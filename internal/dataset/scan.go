package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
)

// ScanFunc receives experiments one at a time during a streaming scan.
// Returning an error stops the scan and propagates the error to the
// caller. The *Experiment is the callback's once yielded — to keep, read
// and modify; the scanner never touches it again. A curtainbin scan carves
// the records of a stream out of shared chunks, so keeping one experiment
// keeps the chunks (64 KB each, one per kind of slice) it shares with the
// dozen records decoded around it; a consumer that keeps a few of many
// should copy them. fn runs on the goroutine that called the scan, one
// record at a time in stream order. A scan of either codec decodes on other
// goroutines, at most one unit (a curtainbin segment, a JSONL chunk) per
// decoder ahead of fn, and has stopped them all by the time it returns.
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
		return 0, scanJSONL(br, jsonlChunkSize, fn)
	case bytes.HasPrefix(binMagic[:], magic):
		return len(magic), nil // killed before the magic was whole
	default:
		return 0, fmt.Errorf("dataset: not a curtainbin stream (opens with %q)", magic)
	}
}

// jsonlChunkSize is about how many bytes of whole lines a JSONL scan
// hands one decoder: enough lines to amortise a hand-off, few enough that
// GOMAXPROCS chunks in flight stay a few MB.
const jsonlChunkSize = 1 << 20

// jsonlChunk is a JSONL scan's decoder token: whole lines the reader cut
// from the stream, the file's own line number of the first, and the
// records parsed from them.
type jsonlChunk struct {
	lines []byte
	first int
	exps  []*Experiment
}

// records parses every non-blank line of the chunk, then yields what it
// parsed. Parsing comes first because the scanner takes a unit's records
// a batch at a time: a decoder that parsed between hand-offs would run
// one batch ahead of fn, not a chunk, and parsing is most of a JSONL
// scan's work. A line that does not parse ends the chunk after the
// records before it, reported by its line number in the file, blank
// lines counted.
func (c *jsonlChunk) records(fn ScanFunc) error {
	var perr error
	c.exps = c.exps[:0]
	rest := c.lines
	for line := c.first; len(rest) > 0; line++ {
		var raw []byte
		raw, rest, _ = bytes.Cut(rest, []byte("\n"))
		if len(raw) == 0 {
			continue
		}
		e := new(Experiment)
		if err := json.Unmarshal(raw, e); err != nil {
			perr = fmt.Errorf("dataset: line %d: %w", line, err)
			break
		}
		c.exps = append(c.exps, e)
	}
	for i, e := range c.exps {
		c.exps[i] = nil // the token is reused; it must not keep what fn was given
		if err := fn(e); err != nil {
			//lint:ignore errwrap the yield callback's error belongs to the caller unwrapped
			return err
		}
	}
	return perr
}

// scanJSONL streams the records of a JSONL stream through the scan
// pipeline. The reader cuts the stream into chunks of whole lines, each
// about chunkSize bytes (one line longer than that is a chunk of its
// own), and up to GOMAXPROCS decoders parse them.
func scanJSONL(br *bufio.Reader, chunkSize int, fn ScanFunc) error {
	chunks := make([]*jsonlChunk, runtime.GOMAXPROCS(0))
	for i := range chunks {
		chunks[i] = new(jsonlChunk)
	}
	var carry []byte // what the reader read past the last chunk's final newline
	line := 1
	return runPipeline(chunks, func(p *pipeline[*jsonlChunk]) error {
		for {
			c, ok := p.next()
			if !ok {
				return nil
			}
			buf := append(c.lines[:0], carry...)
			cut := 0 // one past buf's last newline; carry holds none
			var err error
			for err == nil && (cut == 0 || len(buf) < chunkSize) {
				buf = slices.Grow(buf, scanBufSize)
				var n int
				n, err = br.Read(buf[len(buf) : len(buf)+scanBufSize])
				if i := bytes.LastIndexByte(buf[len(buf):len(buf)+n], '\n'); i >= 0 {
					cut = len(buf) + i + 1
				}
				buf = buf[:len(buf)+n]
			}
			if err == io.EOF {
				cut = len(buf)
			} else if err != nil {
				p.release(c)
				return fmt.Errorf("dataset: read: %w", err)
			}
			carry = append(carry[:0], buf[cut:]...)
			c.lines, c.first = buf[:cut], line
			line += bytes.Count(c.lines, []byte("\n"))
			if len(c.lines) == 0 {
				p.release(c)
				return nil
			}
			if !p.start(c) || err == io.EOF {
				return nil
			}
		}
	}, fn)
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
