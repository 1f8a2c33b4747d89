package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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

func TestFileShardsCoverEverything(t *testing.T) {
	path, d := writeSampleFile(t, 53)
	for _, n := range []int{1, 2, 3, 4, 8, 16, 1000} {
		shards, err := FileShards(path, n)
		if err != nil {
			t.Fatal(err)
		}
		var seqs []int
		for _, sh := range shards {
			if err := ScanShard(sh, func(e *Experiment) error {
				seqs = append(seqs, e.Seq)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if len(seqs) != d.Len() {
			t.Fatalf("n=%d: %d experiments across shards, want %d", n, len(seqs), d.Len())
		}
		for i, s := range seqs {
			if s != i+1 {
				t.Fatalf("n=%d: shard order broken at %d: seq %d", n, i, s)
			}
		}
	}
}

func TestFileShardsEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	shards, err := FileShards(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 1 {
		t.Fatalf("empty file must yield one shard, got %d", len(shards))
	}
	count := 0
	if err := ScanShard(shards[0], func(*Experiment) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("empty shard yielded %d experiments", count)
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

// Property-style sweep: every shard count yields the serial scan exactly,
// including files whose last line has no trailing newline.
func TestShardsNoTrailingNewline(t *testing.T) {
	path, d := writeSampleFile(t, 17)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.TrimSuffix(b, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4, 8} {
		shards, err := FileShards(path, n)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for _, sh := range shards {
			if err := ScanShard(sh, func(e *Experiment) error {
				if e.Seq != count+1 {
					return fmt.Errorf("order broken: seq %d at index %d", e.Seq, count)
				}
				count++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if count != d.Len() {
			t.Fatalf("n=%d: %d experiments, want %d", n, count, d.Len())
		}
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

// TestFileShardsEdgeCases sweeps the shard-boundary corners — empty file,
// single record, shard count far above record count — for both codecs.
func TestFileShardsEdgeCases(t *testing.T) {
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
			for _, n := range []int{1, 2, tc.records, tc.records + 1, 64} {
				shards, err := FileShards(path, n)
				if err != nil {
					t.Fatal(err)
				}
				if len(shards) == 0 || len(shards) > n {
					t.Fatalf("n=%d: got %d shards", n, len(shards))
				}
				var seqs []int
				for _, sh := range shards {
					if err := ScanShard(sh, func(e *Experiment) error {
						seqs = append(seqs, e.Seq)
						return nil
					}); err != nil {
						t.Fatal(err)
					}
				}
				if len(seqs) != d.Len() {
					t.Fatalf("n=%d: shards yielded %d records, want %d", n, len(seqs), d.Len())
				}
				for i, s := range seqs {
					if s != i+1 {
						t.Fatalf("n=%d: order broken at %d: seq %d", n, i, s)
					}
				}
			}
		})
	}
}

// A curtainbin file holding only the magic (zero records, zero segments)
// must shard and scan as empty, not error.
func TestFileShardsBinaryHeaderOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := NewBinaryWriter(&buf).Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "hdr.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	shards, err := FileShards(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, sh := range shards {
		if err := ScanShard(sh, func(*Experiment) error { count++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if count != 0 {
		t.Fatalf("header-only file yielded %d experiments", count)
	}
}
