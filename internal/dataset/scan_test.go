package dataset

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func writeSampleFile(t *testing.T, n int) (string, *Dataset) {
	t.Helper()
	d := &Dataset{}
	carriers := []string{"att", "verizon", "sprint"}
	for i := 0; i < n; i++ {
		d.Add(sampleExperiment(i+1, carriers[i%len(carriers)]))
	}
	var buf bytes.Buffer
	if err := d.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ds.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, d
}

func TestScanMatchesRead(t *testing.T) {
	path, d := writeSampleFile(t, 25)
	var seqs []int
	if err := ScanFile(path, func(e *Experiment) error {
		seqs = append(seqs, e.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != d.Len() {
		t.Fatalf("scanned %d, want %d", len(seqs), d.Len())
	}
	for i, s := range seqs {
		if s != d.Experiments[i].Seq {
			t.Fatalf("order broken at %d: seq %d != %d", i, s, d.Experiments[i].Seq)
		}
	}
}

func TestScanStopsOnCallbackError(t *testing.T) {
	path, _ := writeSampleFile(t, 10)
	sentinel := errors.New("stop here")
	n := 0
	err := ScanFile(path, func(*Experiment) error {
		n++
		if n == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if n != 3 {
		t.Fatalf("callback ran %d times after error, want 3", n)
	}
}

func TestScanStrictOnTornTail(t *testing.T) {
	path, _ := writeSampleFile(t, 5)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := b[:len(b)-20] // cut into the final line
	if err := Scan(bytes.NewReader(torn), func(*Experiment) error { return nil }); err == nil {
		t.Fatal("strict Scan must reject a torn tail")
	}
	// Torn-tail tolerance belongs to checkpoint segments, which are
	// curtainbin only: a JSONL stream is refused, not half-read.
	if _, err := ScanTorn(bytes.NewReader(torn), func(*Experiment) error { return nil }); err == nil {
		t.Fatal("ScanTorn must refuse a stream that is not curtainbin")
	}
}

func TestScanFileMissing(t *testing.T) {
	err := ScanFile(filepath.Join(t.TempDir(), "nope.jsonl"), func(*Experiment) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "nope.jsonl") {
		t.Fatalf("missing-file error must name the path, got %v", err)
	}
}

// A zero-byte file is an empty JSONL dataset: it scans to nothing, with
// no error.
func TestScanEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := ScanFile(path, func(*Experiment) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("empty file yielded %d experiments", count)
	}
}

// TestScanJSONLErrorNamesFileLine: a line that does not parse is named by
// its line number in the file, blank lines counted — what an editor or
// `sed -n Np` shows for it.
func TestScanJSONLErrorNamesFileLine(t *testing.T) {
	var b bytes.Buffer
	if err := (&Dataset{Experiments: []*Experiment{sampleExperiment(1, "att")}}).WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString("\n\n{\"seq\": broken}\n")
	err := Scan(bytes.NewReader(b.Bytes()), func(*Experiment) error { return nil })
	if err == nil || !strings.HasPrefix(err.Error(), "dataset: line 4: ") {
		t.Fatalf("bad record on line 4 after two blank lines: err = %v, want it to start %q", err, "dataset: line 4: ")
	}
}

// TestScanJSONLEdgeCases runs the real chunk size over the line shapes a
// chunk cut must not break: blank lines (leading, doubled, trailing), a
// line longer than a whole chunk, and a last line with no newline.
func TestScanJSONLEdgeCases(t *testing.T) {
	d := sampleDataset(6)
	long := d.Experiments[2]
	long.FailReason = strings.Repeat("x", jsonlChunkSize+jsonlChunkSize/2)
	var b bytes.Buffer
	b.WriteString("\n")
	for i, e := range d.Experiments {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		if i < len(d.Experiments)-1 {
			b.WriteString("\n\n")
		}
	}
	for _, tc := range []struct {
		name   string
		stream []byte
	}{
		{"no final newline", b.Bytes()},
		{"final newline and a blank line", append(bytes.Clone(b.Bytes()), "\n\n"...)},
	} {
		var got []*Experiment
		if err := Scan(bytes.NewReader(tc.stream), func(e *Experiment) error {
			got = append(got, e)
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(got) != d.Len() {
			t.Fatalf("%s: %d records, want %d", tc.name, len(got), d.Len())
		}
		for i, e := range got {
			if e.Seq != i+1 || e.FailReason != d.Experiments[i].FailReason {
				t.Fatalf("%s: record %d is seq %d with a %d-byte fail reason, want seq %d and %d bytes",
					tc.name, i, e.Seq, len(e.FailReason), i+1, len(d.Experiments[i].FailReason))
			}
		}
	}

	// Lines 1, 3, 5 and 7 are blank, line 8 is the record after the long
	// one: the long line counts as one however many chunks it spans.
	broken := bytes.Replace(b.Bytes(), []byte(`{"seq":4,`), []byte(`{"seq":4,,`), 1)
	err := Scan(bytes.NewReader(broken), func(*Experiment) error { return nil })
	if err == nil || !strings.HasPrefix(err.Error(), "dataset: line 8: ") {
		t.Fatalf("bad record after the long line: err = %v, want it to start %q", err, "dataset: line 8: ")
	}
}

func TestScanCheckpointStreams(t *testing.T) {
	dir := t.TempDir()
	ck, err := CreateCheckpoint(dir, Manifest{Seed: 7, ConfigHash: "h", Total: 6}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := ck.Append(sampleExperiment(i+1, "att")); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	var seqs []int
	discarded, err := ScanCheckpoint(dir, func(e *Experiment) error {
		seqs = append(seqs, e.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if discarded != 0 {
		t.Fatalf("clean checkpoint reported %d discarded bytes", discarded)
	}
	if len(seqs) != 6 || seqs[0] != 1 || seqs[5] != 6 {
		t.Fatalf("checkpoint scan seqs = %v", seqs)
	}
	if !IsCheckpointDir(dir) {
		t.Fatal("IsCheckpointDir must recognize a checkpoint directory")
	}
	if IsCheckpointDir(filepath.Join(dir, "missing")) {
		t.Fatal("IsCheckpointDir must reject a missing path")
	}
}

func TestScanCheckpointTornTail(t *testing.T) {
	dir := t.TempDir()
	ck, err := CreateCheckpoint(dir, Manifest{Seed: 7, ConfigHash: "h", Total: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ck.Append(sampleExperiment(i+1, "att")); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "experiments.bin")
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, b[:len(b)-15], 0o644); err != nil {
		t.Fatal(err)
	}
	count := 0
	discarded, err := ScanCheckpoint(dir, func(*Experiment) error { count++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("torn checkpoint yielded %d, want 2", count)
	}
	if discarded == 0 {
		t.Fatal("torn checkpoint must report discarded bytes")
	}
}

// writeSampleFileBinary mirrors writeSampleFile for the curtainbin codec,
// with a small segment size so even modest datasets span segments.
func writeSampleFileBinary(t *testing.T, n int) (string, *Dataset) {
	t.Helper()
	d := &Dataset{}
	carriers := []string{"att", "verizon", "sprint"}
	for i := 0; i < n; i++ {
		d.Add(sampleExperiment(i+1, carriers[i%len(carriers)]))
	}
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	bw.SegmentRecords = 8
	for _, e := range d.Experiments {
		if err := bw.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ds.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, d
}

// TestScanFewRecords: a file with fewer units than the scan has decoders
// still yields every record in order, for both codecs.
func TestScanFewRecords(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	cases := []struct {
		name    string
		records int
		write   func(t *testing.T, n int) (string, *Dataset)
	}{
		{"jsonl-single", 1, writeSampleFile},
		{"jsonl-few", 3, writeSampleFile},
		{"binary-single", 1, writeSampleFileBinary},
		{"binary-few", 3, writeSampleFileBinary},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path, d := tc.write(t, tc.records)
			var seqs []int
			if err := ScanFile(path, func(e *Experiment) error {
				seqs = append(seqs, e.Seq)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(seqs) != d.Len() {
				t.Fatalf("scan yielded %d records, want %d", len(seqs), d.Len())
			}
			for i, s := range seqs {
				if s != i+1 {
					t.Fatalf("order broken at %d: seq %d", i, s)
				}
			}
		})
	}
}

// A curtainbin file holding only the magic (zero records, zero segments)
// scans as empty, not as an error.
func TestScanBinaryHeaderOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := NewBinaryWriter(&buf).Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "hdr.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := ScanFile(path, func(*Experiment) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("header-only file yielded %d experiments", count)
	}
}
