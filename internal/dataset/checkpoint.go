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

// Checkpoint file layout: dir/experiments.jsonl (JSONL) or
// dir/experiments.bin (curtainbin) is an append-only segment of
// completed experiments (fsync'd every Every appends), and
// dir/manifest.json identifies the campaign the segment belongs to —
// including which codec the segment uses. The manifest is always written
// via temp file + rename, so it is either the old or the new version —
// never torn. The segment may end in a torn tail (a partial JSONL line
// or an incomplete curtainbin segment) after a hard kill; resume drops
// the tail and re-runs those experiments.
const (
	segmentFile    = "experiments.jsonl"
	segmentFileBin = "experiments.bin"
	manifestFile   = "manifest.json"

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

// checkpointSegmentPath locates a checkpoint's segment file: the binary
// segment when present, the JSONL segment otherwise.
func checkpointSegmentPath(dir string) string {
	bin := filepath.Join(dir, segmentFileBin)
	if _, err := os.Stat(bin); err == nil {
		return bin
	}
	return filepath.Join(dir, segmentFile)
}

// segmentFileFor maps a manifest format to its segment file name.
func segmentFileFor(f Format) string {
	if f == FormatBinary {
		return segmentFileBin
	}
	return segmentFile
}

// Manifest identifies the campaign a checkpoint belongs to. A resume
// must verify Seed and ConfigHash before trusting the segment: replaying
// a checkpoint into a differently-configured campaign would silently mix
// two datasets.
type Manifest struct {
	Version int `json:"version"`
	// Format is the segment codec ("" or "jsonl" for JSONL,
	// "binary" for curtainbin).
	Format Format `json:"format,omitempty"`
	// Seed is the campaign RNG seed.
	Seed uint64 `json:"seed"`
	// ConfigHash fingerprints every dataset-determining config field
	// (worker count excluded: the dataset is worker-count invariant).
	ConfigHash string `json:"config_hash"`
	// Total is the number of experiments in the full campaign.
	Total int `json:"total"`
	// Completed is the durable-experiment watermark: at least this many
	// complete experiment lines precede any possible tear in the segment.
	Completed int `json:"completed"`
}

// Checkpoint appends completed experiments durably. It is safe for
// concurrent use by campaign workers.
type Checkpoint struct {
	dir   string
	every int

	mu       sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	enc      *json.Encoder // JSONL segments
	bin      *BinaryWriter // curtainbin segments
	pending  int
	manifest Manifest
}

// CreateCheckpoint initializes a fresh checkpoint directory, truncating
// any previous segment (of either codec), and durably records the
// manifest before any experiment is appended. m.Format selects the
// segment codec.
func CreateCheckpoint(dir string, m Manifest, every int) (*Checkpoint, error) {
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: checkpoint %s: %w", dir, err)
	}
	// Drop the other codec's segment so a format switch cannot leave a
	// stale segment that a later resume would prefer.
	for _, name := range []string{segmentFile, segmentFileBin} {
		if name != segmentFileFor(m.Format) {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, segmentFileFor(m.Format)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dataset: checkpoint %s: %w", dir, err)
	}
	m.Version = ManifestVersion
	m.Completed = 0
	ck := newCheckpoint(dir, every, f, m, true)
	if err := ck.writeManifestLocked(); err != nil {
		_ = f.Close() // the manifest write error is the one to report
		return nil, fmt.Errorf("dataset: checkpoint %s: manifest: %w", dir, err)
	}
	return ck, nil
}

// OpenCheckpoint loads an existing checkpoint for resumption: it reads
// the manifest, loads every durable experiment from the segment
// in the manifest's codec (dropping a torn final JSONL line or incomplete
// curtainbin segment — the expected state after a hard kill),
// truncates the segment back to its durable prefix and reopens it for
// append. It returns the prior experiments and how many torn bytes were
// discarded. The caller must verify the manifest's Seed and ConfigHash
// against the campaign it is about to resume.
func OpenCheckpoint(dir string) (*Checkpoint, *Dataset, int, error) {
	mb, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, nil, 0, fmt.Errorf("dataset: checkpoint %s: %w", dir, err)
	}
	var m Manifest
	if err := json.Unmarshal(mb, &m); err != nil {
		return nil, nil, 0, fmt.Errorf("dataset: checkpoint %s: manifest: %w", dir, err)
	}
	if m.Version != ManifestVersion {
		return nil, nil, 0, fmt.Errorf("dataset: checkpoint %s: manifest version %d, want %d", dir, m.Version, ManifestVersion)
	}

	seg := filepath.Join(dir, segmentFileFor(m.Format))
	sf, err := os.Open(seg)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("dataset: checkpoint %s: %w", dir, err)
	}
	prior, discarded, err := ReadJSONLTorn(sf)
	cerr := sf.Close()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("dataset: checkpoint %s: segment: %w", dir, err)
	}
	if cerr != nil {
		return nil, nil, 0, fmt.Errorf("dataset: checkpoint %s: segment: %w", dir, cerr)
	}
	size := int64(0)
	if info, err := os.Stat(seg); err != nil {
		return nil, nil, 0, fmt.Errorf("dataset: checkpoint %s: %w", dir, err)
	} else {
		size = info.Size()
	}
	if discarded > 0 {
		// Cut the segment back to its durable prefix so the next append
		// starts on a clean record boundary.
		size -= int64(discarded)
		if err := os.Truncate(seg, size); err != nil {
			return nil, nil, 0, fmt.Errorf("dataset: checkpoint %s: truncate torn tail: %w", dir, err)
		}
	}

	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("dataset: checkpoint %s: %w", dir, err)
	}
	// The segment, not the manifest, is the source of truth for what
	// completed: appends past the watermark are durable once their bytes
	// hit disk, even if the process died before the manifest advanced.
	m.Completed = prior.Len()
	// A binary segment that never made it to disk (killed before the
	// first sync, or torn inside the magic) restarts from an empty file
	// and needs its header rewritten.
	return newCheckpoint(dir, DefaultCheckpointEvery, f, m, size == 0), prior, discarded, nil
}

func newCheckpoint(dir string, every int, f *os.File, m Manifest, fresh bool) *Checkpoint {
	bw := bufio.NewWriter(f)
	ck := &Checkpoint{dir: dir, every: every, f: f, bw: bw, manifest: m}
	if m.Format == FormatBinary {
		if fresh {
			ck.bin = NewBinaryWriter(bw)
		} else {
			ck.bin = NewBinaryAppender(bw)
		}
	} else {
		ck.enc = json.NewEncoder(bw)
	}
	return ck
}

// SetEvery overrides the fsync cadence (appends between syncs).
func (c *Checkpoint) SetEvery(every int) {
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	c.mu.Lock()
	c.every = every
	c.mu.Unlock()
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
	if c.bin != nil {
		if err := c.bin.Append(e); err != nil {
			return fmt.Errorf("dataset: checkpoint append experiment %d: %w", e.Seq, err)
		}
	} else if err := c.enc.Encode(e); err != nil {
		return fmt.Errorf("dataset: checkpoint append experiment %d: %w", e.Seq, err)
	}
	c.manifest.Completed++
	c.pending++
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
	if c.bin != nil {
		// Cut the open curtainbin segment so every appended record is in
		// the bufio stream (a record is durable only once its segment is).
		if err := c.bin.Flush(); err != nil {
			return fmt.Errorf("dataset: checkpoint %s: flush segment: %w", c.dir, err)
		}
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
