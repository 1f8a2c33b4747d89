package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// ScanFunc receives experiments one at a time during a streaming scan.
// Returning an error stops the scan and propagates the error to the
// caller. The *Experiment is the callback's once yielded — to keep, read
// and modify; the scanner never touches it again. A curtainbin scan carves
// the records of a stream out of shared chunks, so keeping one experiment
// keeps the chunks (64 KB each, one per kind of slice) it shares with the
// dozen records decoded around it; a consumer that keeps a few of many
// should copy them. fn runs on the goroutine that called the scan, one
// record at a time in stream order; a curtainbin scan decodes on other
// goroutines, at most one segment per decoder ahead of fn, and has
// stopped them all by the time it returns.
type ScanFunc func(*Experiment) error

// Scan streams a dataset written by WriteJSONL or WriteBinary, yielding
// one experiment at a time without materializing the dataset. The codec
// is auto-detected by magic bytes: anything that does not open with the
// curtainbin magic — including the empty stream — is JSONL. It is strict:
// any malformed line or truncated segment — including a torn tail — is an
// error.
func Scan(r io.Reader, fn ScanFunc) error {
	_, err := scan(r, false, fn)
	return err
}

// ScanTorn streams a curtainbin stream tolerating a torn tail — the
// expected state of an append-only checkpoint segment after a hard kill
// mid-write. An incomplete final segment is dropped, as is a file killed
// before its first sync (empty, or a strict prefix of the magic); the
// returned count is how many trailing bytes were discarded. Tears or
// corruption anywhere else remain errors: a tear can only be a suffix of
// the file. Torn-tail tolerance exists for checkpoints, which have one
// codec, so a stream that is not curtainbin is refused.
func ScanTorn(r io.Reader, fn ScanFunc) (int, error) {
	return scan(r, true, fn)
}

// scanBufSize is a scan's read buffer. A curtainbin payload is copied out
// of it a buffer-full at a time, so it need not hold a whole segment.
const scanBufSize = 64 << 10

// scan sniffs the stream's magic bytes and dispatches on them.
func scan(r io.Reader, torn bool, fn ScanFunc) (int, error) {
	cr := &countReader{r: r}
	br := bufio.NewReaderSize(cr, scanBufSize)
	magic, err := br.Peek(len(binMagic))
	if err != nil && err != io.EOF {
		return 0, fmt.Errorf("dataset: read: %w", err)
	}
	switch {
	case bytes.Equal(magic, binMagic[:]):
		if _, err := br.Discard(len(binMagic)); err != nil {
			return 0, fmt.Errorf("dataset: read: %w", err)
		}
		return scanBinary(cr, br, torn, fn)
	case !torn:
		return 0, scanJSONL(br, fn)
	case bytes.HasPrefix(binMagic[:], magic):
		return len(magic), nil // killed before the magic was whole
	default:
		return 0, fmt.Errorf("dataset: not a curtainbin stream (opens with %q)", magic)
	}
}

func scanJSONL(br *bufio.Reader, fn ScanFunc) error {
	line := 0
	for {
		raw, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return fmt.Errorf("dataset: read: %w", err)
		}
		trimmed := bytes.TrimSuffix(raw, []byte("\n"))
		if len(trimmed) > 0 {
			line++
			e := new(Experiment)
			if jerr := json.Unmarshal(trimmed, e); jerr != nil {
				return fmt.Errorf("dataset: line %d: %w", line, jerr)
			}
			if ferr := fn(e); ferr != nil {
				//lint:ignore errwrap the yield callback's error belongs to the caller unwrapped
				return ferr
			}
		}
		if err == io.EOF {
			return nil
		}
	}
}

// ScanFile streams the dataset file at path, JSONL or curtainbin
// (auto-detected by magic, as in Scan). A missing file is reported as a
// clear error naming the path.
func ScanFile(path string, fn ScanFunc) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("dataset: open %s: %w", path, err)
	}
	serr := Scan(f, fn)
	cerr := f.Close()
	if serr != nil {
		//lint:ignore errwrap Scan errors are already contextual, and serr may be the caller's own ScanFunc error
		return serr
	}
	if cerr != nil {
		return fmt.Errorf("dataset: close %s: %w", path, cerr)
	}
	return nil
}

// ScanCheckpoint streams the experiments durably recorded in a campaign
// checkpoint directory (see CreateCheckpoint), tolerating the torn tail
// a hard kill can leave. It returns how many torn trailing bytes were
// skipped.
func ScanCheckpoint(dir string, fn ScanFunc) (int, error) {
	if _, err := ReadManifest(dir); err != nil {
		return 0, err
	}
	return scanSegment(dir, fn)
}

// scanSegment is ScanCheckpoint once the manifest has vouched for the
// segment's codec.
func scanSegment(dir string, fn ScanFunc) (int, error) {
	f, err := os.Open(filepath.Join(dir, segmentFile))
	if err != nil {
		return 0, fmt.Errorf("dataset: checkpoint %s: %w", dir, err)
	}
	defer f.Close()
	return ScanTorn(f, fn)
}

// IsCheckpointDir reports whether path looks like a checkpoint directory
// (a directory holding a manifest), so CLI tools can accept either a
// dataset file or a checkpoint directory as dataset input.
func IsCheckpointDir(path string) bool {
	if info, err := os.Stat(path); err != nil || !info.IsDir() {
		return false
	}
	_, err := os.Stat(filepath.Join(path, manifestFile))
	return err == nil
}

// Shard is one contiguous byte range of a dataset file, aligned so a
// record belongs to exactly one shard: for JSONL the shard whose range
// contains the line's first byte; for curtainbin the shards sit on exact
// segment boundaries. Scanning every shard of FileShards in index order
// yields exactly the records of a serial scan, in the same order.
type Shard struct {
	Path  string
	Start int64 // first byte of the range (a record boundary after alignment)
	End   int64 // one past the last byte of the range
}

// FileFormat sniffs the codec of the dataset file at path by its magic
// bytes. Anything that does not open with the curtainbin magic —
// including the empty file — is JSONL.
func FileFormat(path string) (Format, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("dataset: open %s: %w", path, err)
	}
	defer f.Close()
	return fileFormat(f)
}

func fileFormat(f *os.File) (Format, error) {
	var magic [len(binMagic)]byte
	n, err := f.ReadAt(magic[:], 0)
	if err != nil && err != io.EOF {
		return "", fmt.Errorf("dataset: read %s: %w", f.Name(), err)
	}
	if n == len(binMagic) && bytes.Equal(magic[:], binMagic[:]) {
		return FormatBinary, nil
	}
	return FormatJSONL, nil
}

// FileShards splits the file at path into at most n contiguous shards.
// For JSONL, alignment happens lazily at scan time and the returned
// ranges are the nominal even split; for curtainbin, the split walks the
// segment index (cheap header seeks) and lands on exact segment
// boundaries. Fewer than n shards are returned for a file too small to
// split (including the empty file, which yields one empty shard so
// callers always have something to scan).
func FileShards(path string, n int) ([]Shard, error) {
	if n <= 0 {
		n = 1
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: open %s: %w", path, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("dataset: open %s: %w", path, err)
	}
	size := info.Size()
	format, err := fileFormat(f)
	if err != nil {
		//lint:ignore errwrap fileFormat errors already name the file
		return nil, err
	}
	if format == FormatBinary {
		return binaryShards(f, path, size, n)
	}
	if int64(n) > size {
		n = int(size)
	}
	if n <= 1 {
		return []Shard{{Path: path, Start: 0, End: size}}, nil
	}
	shards := make([]Shard, 0, n)
	for i := 0; i < n; i++ {
		shards = append(shards, Shard{
			Path:  path,
			Start: size * int64(i) / int64(n),
			End:   size * int64(i+1) / int64(n),
		})
	}
	return shards, nil
}

// binaryShards walks the segment headers of a curtainbin file and groups
// whole segments into at most n byte-balanced shards.
func binaryShards(f *os.File, path string, size int64, n int) ([]Shard, error) {
	offsets, err := binarySegmentOffsets(f, path, size)
	if err != nil {
		return nil, err
	}
	if len(offsets) == 0 || n <= 1 {
		return []Shard{{Path: path, Start: 0, End: size}}, nil
	}
	if n > len(offsets) {
		n = len(offsets)
	}
	shards := make([]Shard, 0, n)
	start := int64(0)
	seg := 0
	payload := size - int64(len(binMagic))
	for i := 0; i < n; i++ {
		// The i-th shard ends at the first segment boundary at or past the
		// nominal even split, so every shard holds whole segments.
		target := int64(len(binMagic)) + payload*int64(i+1)/int64(n)
		end := size
		if i < n-1 {
			for seg < len(offsets) && offsets[seg] < target {
				seg++
			}
			if seg < len(offsets) {
				end = offsets[seg]
			}
		}
		if end <= start {
			continue
		}
		shards = append(shards, Shard{Path: path, Start: start, End: end})
		start = end
	}
	return shards, nil
}

// binarySegmentOffsets returns the byte offset of every segment in a
// curtainbin file by reading headers and seeking over payloads.
func binarySegmentOffsets(f *os.File, path string, size int64) ([]int64, error) {
	var offsets []int64
	var hbuf [maxSegHeader]byte
	for pos := int64(len(binMagic)); pos < size; {
		offsets = append(offsets, pos)
		n, err := f.ReadAt(hbuf[:min(int64(len(hbuf)), size-pos)], pos)
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("dataset: read %s: %w", path, err)
		}
		h, hlen, err := parseSegHeader(hbuf[:n])
		if err == nil && int64(h.storedLen) > size-pos-int64(hlen) {
			err = errTorn
		}
		if err == errTorn {
			return nil, fmt.Errorf("dataset: %s: truncated segment at byte %d", path, pos)
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: %s: corrupt segment header at byte %d: %w", path, pos, err)
		}
		pos += int64(hlen) + int64(h.storedLen)
	}
	return offsets, nil
}

// ScanShard streams the experiments whose records start inside the
// shard's byte range. It is strict like Scan: every owned record must
// parse. For JSONL, the line straddling the shard's start boundary
// belongs to the previous shard and is skipped; the line straddling End
// is read to completion because its first byte is owned. Curtainbin
// shards from FileShards sit on exact segment boundaries, so no
// realignment is needed.
func ScanShard(s Shard, fn ScanFunc) error {
	f, err := os.Open(s.Path)
	if err != nil {
		return fmt.Errorf("dataset: open %s: %w", s.Path, err)
	}
	format, ferr := fileFormat(f)
	var serr error
	if ferr != nil {
		serr = ferr
	} else if format == FormatBinary {
		serr = scanBinaryShard(f, s, fn)
	} else {
		serr = scanShard(f, s, fn)
	}
	cerr := f.Close()
	if serr != nil {
		//lint:ignore errwrap shard-scan errors already name the shard file; callback errors pass through unwrapped
		return serr
	}
	if cerr != nil {
		return fmt.Errorf("dataset: close %s: %w", s.Path, cerr)
	}
	return nil
}

// scanBinaryShard streams the whole segments inside [Start, End). A
// shard starting at 0 owns the file magic and skips it.
func scanBinaryShard(f *os.File, s Shard, fn ScanFunc) error {
	start := s.Start
	if start < int64(len(binMagic)) {
		start = int64(len(binMagic))
	}
	if start >= s.End {
		return nil
	}
	if _, err := f.Seek(start, io.SeekStart); err != nil {
		return fmt.Errorf("dataset: seek %s: %w", s.Path, err)
	}
	cr := &countReader{r: f, n: start}
	// One decoder: the caller already scans its shards concurrently.
	_, _, err := scanSegments(cr, bufio.NewReaderSize(cr, scanBufSize), s.End, 1, fn)
	if err == errTorn {
		return fmt.Errorf("dataset: %s: truncated segment in shard [%d,%d)", s.Path, s.Start, s.End)
	}
	//lint:ignore errwrap segment errors already carry file context; callback errors pass through unwrapped
	return err
}

func scanShard(f *os.File, s Shard, fn ScanFunc) error {
	pos := s.Start
	if pos > 0 {
		// Align to a line boundary: seek one byte back and discard through
		// the first newline. If Start already sits on a line boundary the
		// discarded byte is exactly that newline; otherwise the rest of a
		// line owned by the previous shard is skipped.
		pos--
	}
	if _, err := f.Seek(pos, io.SeekStart); err != nil {
		return fmt.Errorf("dataset: seek %s: %w", s.Path, err)
	}
	br := bufio.NewReaderSize(f, 1<<20)
	if s.Start > 0 {
		skipped, err := br.ReadBytes('\n')
		if err == io.EOF {
			return nil // the shard starts inside the unterminated last line
		}
		if err != nil {
			return fmt.Errorf("dataset: read %s: %w", s.Path, err)
		}
		pos += int64(len(skipped))
	}
	for pos < s.End {
		raw, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return fmt.Errorf("dataset: read %s: %w", s.Path, err)
		}
		atEOF := err == io.EOF
		lineStart := pos
		pos += int64(len(raw))
		trimmed := bytes.TrimSuffix(raw, []byte("\n"))
		if len(trimmed) > 0 {
			e := new(Experiment)
			if jerr := json.Unmarshal(trimmed, e); jerr != nil {
				return fmt.Errorf("dataset: %s: line at byte %d: %w", s.Path, lineStart, jerr)
			}
			if ferr := fn(e); ferr != nil {
				//lint:ignore errwrap the yield callback's error belongs to the caller unwrapped
				return ferr
			}
		}
		if atEOF {
			return nil
		}
	}
	return nil
}
