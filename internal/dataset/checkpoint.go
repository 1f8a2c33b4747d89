package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Checkpoint file layout: dir/experiments.bin is an append-only
// curtainbin stream of completed experiments (Append cuts and fsyncs one
// segment every Every records; AppendSegment adds already-sealed segments
// as they are and fsyncs at the same cadence), and dir/manifest.json
// identifies the campaign it belongs to. The manifest is always written
// via temp file + rename, so it is either the old or the new version —
// never torn. The stream may end in a torn tail (an incomplete curtainbin
// segment, or a partial file magic) after a hard kill; resume drops the
// tail and re-runs those experiments. Checkpoints are an internal recovery
// artefact with exactly one codec; `curtain convert -in dir` renders one
// as JSONL to read by eye.
const (
	segmentFile  = "experiments.bin"
	manifestFile = "manifest.json"

	// ManifestVersion is bumped on incompatible layout changes, and on
	// any change to how trace derives client populations from (seed,
	// config): resuming across such a change would splice two different
	// populations into one dataset even though Seed and ConfigHash
	// still match. Version 2 = per-client RNG streams (seed^clientSalt,
	// carrier fingerprint, index) replacing the shared sequential RNG.
	ManifestVersion = 2

	// DefaultCheckpointEvery is the fsync cadence in experiments.
	DefaultCheckpointEvery = 64
)

// Manifest identifies the campaign a checkpoint belongs to. A resume
// must verify Seed and ConfigHash before trusting the segment: replaying
// a checkpoint into a differently-configured campaign would silently mix
// two datasets.
type Manifest struct {
	Version int `json:"version"`
	// Format tags the segment codec on disk. CreateCheckpoint always
	// writes "binary"; version-2 manifests from when the codec was a
	// choice may say "" or "jsonl", which ReadManifest refuses.
	Format Format `json:"format,omitempty"`
	// Seed is the campaign RNG seed.
	Seed uint64 `json:"seed"`
	// ConfigHash fingerprints every dataset-determining config field
	// (worker count excluded: the dataset is worker-count invariant).
	ConfigHash string `json:"config_hash"`
	// Total is the number of experiments in the full campaign.
	Total int `json:"total"`
	// Completed is the durable-experiment watermark: at least this many
	// complete experiments precede any possible tear in the segment.
	Completed int `json:"completed"`
}

// ReadManifest loads a checkpoint directory's manifest. A manifest whose
// segment codec is not curtainbin — a JSONL checkpoint from before the
// codec was fixed — is refused here, by name, so no reader ever mis-parses
// its segment.
func ReadManifest(dir string) (Manifest, error) {
	mb, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return Manifest{}, fmt.Errorf("dataset: checkpoint %s: %w", dir, err)
	}
	var m Manifest
	if err := json.Unmarshal(mb, &m); err != nil {
		return Manifest{}, fmt.Errorf("dataset: checkpoint %s: manifest: %w", dir, err)
	}
	if m.Format != FormatBinary {
		codec := m.Format
		if codec == "" {
			codec = FormatJSONL // what an absent tag meant when it was written
		}
		return Manifest{}, fmt.Errorf("dataset: checkpoint %s: segment codec %q is not supported: checkpoints are %s only (an old JSONL segment can still be read as a plain dataset file, not resumed)", dir, codec, FormatBinary)
	}
	return m, nil
}

// Checkpoint appends completed experiments durably. It is safe for
// concurrent use by campaign workers.
type Checkpoint struct {
	dir   string
	every int

	mu       sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	bin      *BinaryWriter
	pending  int
	manifest Manifest
}

// CreateCheckpoint initializes a fresh checkpoint directory, truncating
// any previous segment, and durably records the manifest before any
// experiment is appended. The manifest's Version, Format and Completed
// are set here; the caller supplies the campaign identity.
func CreateCheckpoint(dir string, m Manifest, every int) (*Checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: checkpoint %s: %w", dir, err)
	}
	f, err := os.OpenFile(filepath.Join(dir, segmentFile), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dataset: checkpoint %s: %w", dir, err)
	}
	m.Version, m.Format, m.Completed = ManifestVersion, FormatBinary, 0
	ck := newCheckpoint(dir, every, f, m, true)
	if err := ck.writeManifestLocked(); err != nil {
		_ = f.Close() // the manifest write error is the one to report
		return nil, fmt.Errorf("dataset: checkpoint %s: manifest: %w", dir, err)
	}
	return ck, nil
}

// OpenCheckpoint reopens an existing checkpoint for resumption: it reads
// the manifest, streams every durable experiment of the segment to prior
// (dropping a torn tail — the expected state after a hard kill),
// truncates the segment back to its durable prefix and reopens it for
// append at the given fsync cadence. It returns how many torn bytes were
// discarded. An error from prior refuses the checkpoint before anything
// on disk is touched. The caller must verify the manifest's Seed and
// ConfigHash against the campaign it is about to resume.
func OpenCheckpoint(dir string, every int, prior ScanFunc) (*Checkpoint, int, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		//lint:ignore errwrap ReadManifest errors already name the checkpoint and what is wrong with it
		return nil, 0, err
	}
	if m.Version != ManifestVersion {
		return nil, 0, fmt.Errorf("dataset: checkpoint %s: manifest version %d, want %d", dir, m.Version, ManifestVersion)
	}
	// The segment, not the manifest, is the source of truth for what
	// completed: appends past the watermark are durable once their bytes
	// hit disk, even if the process died before the manifest advanced.
	m.Completed = 0
	discarded, err := scanSegment(dir, func(e *Experiment) error {
		m.Completed++
		return prior(e)
	})
	if err != nil {
		return nil, 0, fmt.Errorf("dataset: checkpoint %s: segment: %w", dir, err)
	}
	seg := filepath.Join(dir, segmentFile)
	info, err := os.Stat(seg)
	if err != nil {
		return nil, 0, fmt.Errorf("dataset: checkpoint %s: %w", dir, err)
	}
	size := info.Size() - int64(discarded)
	if discarded > 0 {
		// Cut the segment back to its durable prefix so the next append
		// starts on a clean segment boundary.
		if err := os.Truncate(seg, size); err != nil {
			return nil, 0, fmt.Errorf("dataset: checkpoint %s: truncate torn tail: %w", dir, err)
		}
	}
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("dataset: checkpoint %s: %w", dir, err)
	}
	// A segment that never made it to disk (killed before the first sync,
	// or torn inside the magic) restarts from an empty file and needs its
	// header rewritten.
	return newCheckpoint(dir, every, f, m, size == 0), discarded, nil
}

func newCheckpoint(dir string, every int, f *os.File, m Manifest, fresh bool) *Checkpoint {
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	bw := bufio.NewWriter(f)
	ck := &Checkpoint{dir: dir, every: every, f: f, bw: bw, manifest: m}
	if fresh {
		ck.bin = NewBinaryWriter(bw)
	} else {
		ck.bin = NewBinaryAppender(bw)
	}
	return ck
}

// Manifest returns a snapshot of the checkpoint's manifest.
func (c *Checkpoint) Manifest() Manifest {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.manifest
}

// Dir returns the checkpoint directory.
func (c *Checkpoint) Dir() string { return c.dir }

// Append records one completed experiment. Every Every appends the
// segment is flushed and fsync'd and the manifest watermark advanced.
func (c *Checkpoint) Append(e *Experiment) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.bin.Append(e); err != nil {
		return fmt.Errorf("dataset: checkpoint append experiment %d: %w", e.Seq, err)
	}
	c.manifest.Completed++
	c.pending++
	if c.pending >= c.every {
		return c.syncLocked()
	}
	return nil
}

// AppendSegment records the n experiments of stream — one complete
// curtainbin stream, as MarshalExperiments seals it — by writing its
// segments to the file verbatim: no decode, no second deflate. Records the
// caller has not decoded and checked must not be passed here; all this
// verifies is the framing (the magic, then segment headers that tile the
// stream exactly and declare n records between them), so that no torn or
// foreign byte and no wrong count can reach the file. It keeps Append's
// durability contract: fsync and manifest advance at least every Every
// records.
func (c *Checkpoint) AppendSegment(stream []byte, n int) error {
	var declared uint64
	if err := walkStream(stream, func(h segHeader, _ []byte) error {
		declared += h.count
		return nil
	}); err != nil {
		return fmt.Errorf("dataset: checkpoint %s: append segment: %w", c.dir, err)
	}
	if n < 0 || declared != uint64(n) {
		return fmt.Errorf("dataset: checkpoint %s: append segment: headers declare %d records, caller %d", c.dir, declared, n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Cut the open segment first so earlier Appends precede these bytes
	// (on a fresh file this is also what writes the magic).
	if err := c.bin.Flush(); err != nil {
		return fmt.Errorf("dataset: checkpoint %s: flush segment: %w", c.dir, err)
	}
	if _, err := c.bw.Write(stream[len(binMagic):]); err != nil {
		return fmt.Errorf("dataset: checkpoint %s: append segment: %w", c.dir, err)
	}
	c.manifest.Completed += n
	c.pending += n
	if c.pending >= c.every {
		return c.syncLocked()
	}
	return nil
}

// Flush forces every appended experiment to durable storage and advances
// the manifest watermark.
func (c *Checkpoint) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syncLocked()
}

// Close flushes and closes the segment.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	serr := c.syncLocked()
	cerr := c.f.Close()
	if serr != nil {
		//lint:ignore errwrap syncLocked errors already name the checkpoint and the failing phase
		return serr
	}
	if cerr != nil {
		return fmt.Errorf("dataset: checkpoint %s: close: %w", c.dir, cerr)
	}
	return nil
}

func (c *Checkpoint) syncLocked() error {
	// Cut the open curtainbin segment so every appended record is in the
	// bufio stream (a record is durable only once its segment is).
	if err := c.bin.Flush(); err != nil {
		return fmt.Errorf("dataset: checkpoint %s: flush segment: %w", c.dir, err)
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("dataset: checkpoint %s: flush segment: %w", c.dir, err)
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("dataset: checkpoint %s: fsync segment: %w", c.dir, err)
	}
	c.pending = 0
	return c.writeManifestLocked()
}

func (c *Checkpoint) writeManifestLocked() error {
	path := filepath.Join(c.dir, manifestFile)
	m := c.manifest
	return WriteFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
}
