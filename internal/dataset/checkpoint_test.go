package dataset

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// openCollect reopens a checkpoint, collecting the prior experiments the
// way a resuming campaign does.
func openCollect(dir string) (*Checkpoint, []*Experiment, int, error) {
	var prior []*Experiment
	ck, discarded, err := OpenCheckpoint(dir, 0, func(e *Experiment) error {
		prior = append(prior, e)
		return nil
	})
	return ck, prior, discarded, err
}

// scanAll strictly scans a dataset file into a slice.
func scanAll(t *testing.T, path string) []*Experiment {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	es, err := readAll(f)
	if err != nil {
		t.Fatalf("scan %s: %v", path, err)
	}
	return es
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	m := Manifest{Seed: 7, ConfigHash: "00c0ffee", Total: 4}
	ck, err := CreateCheckpoint(dir, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 3; seq++ {
		if err := ck.Append(sampleExperiment(seq, "att")); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, prior, discarded, err := openCollect(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = reopened.Close() }()
	if discarded != 0 {
		t.Fatalf("clean checkpoint reported %d torn bytes", discarded)
	}
	got := reopened.Manifest()
	if got.Seed != 7 || got.ConfigHash != "00c0ffee" || got.Total != 4 || got.Format != FormatBinary {
		t.Fatalf("manifest identity lost: %+v", got)
	}
	if got.Completed != 3 || len(prior) != 3 {
		t.Fatalf("completed = %d (prior %d), want 3", got.Completed, len(prior))
	}
	for i, e := range prior {
		if e.Seq != i+1 {
			t.Fatalf("prior[%d].Seq = %d", i, e.Seq)
		}
	}

	// Appends continue past the prior prefix.
	if err := reopened.Append(sampleExperiment(4, "att")); err != nil {
		t.Fatal(err)
	}
	if err := reopened.Flush(); err != nil {
		t.Fatal(err)
	}
	if c := reopened.Manifest().Completed; c != 4 {
		t.Fatalf("completed after append = %d, want 4", c)
	}
}

func TestOpenCheckpointTruncatesTornTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	ck, err := CreateCheckpoint(dir, Manifest{Seed: 1, Total: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Append(sampleExperiment(1, "att")); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	// A kill mid-append leaves the head of the next segment behind.
	next, err := MarshalExperiments([]*Experiment{sampleExperiment(2, "att")})
	if err != nil {
		t.Fatal(err)
	}
	torn := next[len(binMagic) : len(binMagic)+13]
	seg := filepath.Join(dir, segmentFile)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}

	reopened, prior, discarded, err := openCollect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if discarded != len(torn) || len(prior) != 1 {
		t.Fatalf("discarded=%d prior=%d, want %d and 1", discarded, len(prior), len(torn))
	}
	// The segment file itself must be cut back to the durable prefix.
	after, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size()-int64(len(torn)) {
		t.Fatalf("segment size %d, want %d", after.Size(), before.Size()-int64(len(torn)))
	}
	// And the next append must land on a clean segment boundary.
	if err := reopened.Append(sampleExperiment(2, "att")); err != nil {
		t.Fatal(err)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	if final := scanAll(t, seg); len(final) != 2 || final[1].Seq != 2 {
		t.Fatalf("recovered segment = %d experiments", len(final))
	}
}

// TestOpenCheckpointBeforeFirstSync: a run killed before its first fsync
// leaves an empty segment file, or one torn inside the 8-byte magic. Both
// resume as "nothing durable", report the torn bytes, and rewrite the
// header so the resumed segment is a well-formed curtainbin stream.
func TestOpenCheckpointBeforeFirstSync(t *testing.T) {
	for _, keep := range []int{0, 1, len(binMagic) - 1} {
		dir := filepath.Join(t.TempDir(), "ck")
		ck, err := CreateCheckpoint(dir, Manifest{Seed: 1, Total: 2}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := ck.Close(); err != nil { // syncs the bare magic
			t.Fatal(err)
		}
		seg := filepath.Join(dir, segmentFile)
		if err := os.Truncate(seg, int64(keep)); err != nil {
			t.Fatal(err)
		}

		reopened, prior, discarded, err := openCollect(dir)
		if err != nil {
			t.Fatalf("keep %d: %v", keep, err)
		}
		if len(prior) != 0 || discarded != keep || reopened.Manifest().Completed != 0 {
			t.Fatalf("keep %d: prior=%d discarded=%d completed=%d, want 0, %d, 0",
				keep, len(prior), discarded, reopened.Manifest().Completed, keep)
		}
		if err := reopened.Append(sampleExperiment(1, "att")); err != nil {
			t.Fatal(err)
		}
		if err := reopened.Close(); err != nil {
			t.Fatal(err)
		}
		if final := scanAll(t, seg); len(final) != 1 || final[0].Seq != 1 {
			t.Fatalf("keep %d: resumed segment holds %d experiments, want 1", keep, len(final))
		}
	}
}

// TestAppendSegmentInterleaved mixes the two append paths on one
// checkpoint — record-at-a-time Append, and AppendSegment handing over a
// stream sealed elsewhere — and requires a file a strict Scan accepts with
// every record once, in append order. It then tears the file in the middle
// of the last verbatim segment: a resume must drop exactly that segment,
// count what precedes it, and append cleanly after it.
func TestAppendSegmentInterleaved(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	ck, err := CreateCheckpoint(dir, Manifest{Seed: 3, ConfigHash: "h", Total: 12}, 4)
	if err != nil {
		t.Fatal(err)
	}
	seal := func(seqs ...int) []byte {
		var es []*Experiment
		for _, seq := range seqs {
			es = append(es, sampleExperiment(seq, "att"))
		}
		b, err := MarshalExperiments(es)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// A verbatim segment onto the empty file (it must come out with one
	// magic, the file's), two single appends left open, a verbatim segment
	// that has to wait for them to be cut, one more append, and a last
	// verbatim segment.
	if err := ck.AppendSegment(seal(1, 2, 3), 3); err != nil {
		t.Fatal(err)
	}
	for _, seq := range []int{4, 5} {
		if err := ck.Append(sampleExperiment(seq, "att")); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.AppendSegment(seal(6, 7), 2); err != nil {
		t.Fatal(err)
	}
	if err := ck.Append(sampleExperiment(8, "att")); err != nil {
		t.Fatal(err)
	}
	last := seal(9, 10, 11)
	if err := ck.AppendSegment(last, 3); err != nil {
		t.Fatal(err)
	}
	if got := ck.Manifest().Completed; got != 11 {
		t.Fatalf("completed = %d, want 11", got)
	}

	// What AppendSegment will not write: a count the headers do not bear
	// out, a torn stream, a stream with bytes after its last segment.
	seg := filepath.Join(dir, segmentFile)
	if err := ck.Flush(); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]struct {
		stream []byte
		n      int
	}{
		"wrong count":    {last, 2},
		"no magic":       {last[len(binMagic):], 3},
		"torn":           {last[:len(last)-1], 3},
		"trailing bytes": {append(bytes.Clone(last), 'x'), 3},
	} {
		if err := ck.AppendSegment(bad.stream, bad.n); err == nil {
			t.Fatalf("AppendSegment accepted a stream with %s", name)
		}
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() || ck.Manifest().Completed != 11 {
		t.Fatalf("refused streams moved the file (%d -> %d bytes) or the watermark (%d)", before.Size(), after.Size(), ck.Manifest().Completed)
	}

	for i, e := range scanAll(t, seg) {
		if e.Seq != i+1 {
			t.Fatalf("position %d holds seq %d, want append order", i, e.Seq)
		}
	}

	// Tear the file half-way through the last verbatim segment.
	if err := os.Truncate(seg, after.Size()-int64(len(last)-len(binMagic))/2); err != nil {
		t.Fatal(err)
	}
	re, prior, discarded, err := openCollect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 8 || re.Manifest().Completed != 8 || discarded == 0 {
		t.Fatalf("resume after a tear inside the last segment: prior=%d completed=%d discarded=%d, want 8, 8 and the torn bytes",
			len(prior), re.Manifest().Completed, discarded)
	}
	if err := re.AppendSegment(last, 3); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if final := scanAll(t, seg); len(final) != 11 || final[10].Seq != 11 {
		t.Fatalf("resumed file holds %d records, want 11 ending in seq 11", len(final))
	}
}

func TestOpenCheckpointRejectsBadManifest(t *testing.T) {
	dir := t.TempDir()
	if _, _, _, err := openCollect(dir); err == nil {
		t.Fatal("missing manifest accepted")
	}
	manifest := filepath.Join(dir, manifestFile)
	if err := os.WriteFile(manifest, []byte(`{"version":99,"format":"binary"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := openCollect(dir); err == nil {
		t.Fatal("future manifest version accepted")
	}

	// A JSONL checkpoint (explicitly tagged, or untagged as the old default
	// wrote it) is refused by directory and codec — for resume and for
	// read-only scans alike — even with a well-formed JSONL segment there.
	if err := os.WriteFile(filepath.Join(dir, "experiments.jsonl"), []byte(`{"seq":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tag := range []string{``, `"format":"jsonl",`} {
		body := `{"version":2,` + tag + `"seed":1,"config_hash":"h","total":1,"completed":1}`
		if err := os.WriteFile(manifest, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, openErr := openCollect(dir)
		_, scanErr := ScanCheckpoint(dir, func(*Experiment) error { return nil })
		for _, err := range []error{openErr, scanErr} {
			if err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), `"jsonl"`) {
				t.Fatalf("manifest %s: err = %v, want a refusal naming %s and the jsonl codec", body, err, dir)
			}
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("hello"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}

	// A failing writer must leave no file and no temp litter behind.
	bad := filepath.Join(dir, "bad.txt")
	if err := WriteFileAtomic(bad, func(io.Writer) error {
		return os.ErrInvalid
	}); err == nil {
		t.Fatal("write error swallowed")
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatal("failed write left a file")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "out.txt" {
			t.Fatalf("temp file leaked: %s", e.Name())
		}
	}

	// Overwrite replaces content atomically.
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("replaced"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(path)
	if err != nil || string(got) != "replaced" {
		t.Fatalf("read back %q, %v", got, err)
	}
}
