package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// orderStream is a three-segment curtainbin stream of 512, 512 and 37
// records, and the stream offset at which each segment ends.
func orderStream(t *testing.T, compress bool) ([]byte, []int) {
	t.Helper()
	const short = 37
	var bin bytes.Buffer
	bw := NewBinaryWriter(&bin)
	bw.Compress = compress
	var ends []int
	for _, e := range sampleDataset(2*DefaultSegmentRecords + short).Experiments {
		if err := bw.Append(e); err != nil {
			t.Fatal(err)
		}
		if e.Seq%DefaultSegmentRecords == 0 {
			ends = append(ends, int(bw.BytesWritten()))
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return bin.Bytes(), append(ends, bin.Len())
}

// recordKey is what the equivalence tests compare a yielded record by.
func recordKey(e *Experiment) string { return fmt.Sprintf("%d/%s", e.Seq, e.ClientID) }

// serialRecords is the reference a file scan is held to: walkStream over
// b, each segment decoded to completion by a fresh segDecoder before the
// next header is read.
func serialRecords(b []byte) ([]string, error) {
	var got []string
	dec := new(segDecoder)
	err := walkStream(b, func(h segHeader, stored []byte) error {
		return dec.decode(h, stored, func(e *Experiment) error {
			got = append(got, recordKey(e))
			return nil
		})
	})
	return got, err
}

// atGOMAXPROCS runs f as a subtest at each of 1, 2 and 8 Ps: the number
// of segments a scan may decode at once.
func atGOMAXPROCS(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// TestScanSerialEquivalence: whatever the stream, a scan yields exactly
// the records, in exactly the order, and ends with exactly the error, of
// decoding its segments one after another. A stream cut anywhere keeps
// the records of the segments wholly before the cut and reports the rest
// as torn; a byte flipped in a segment's header, string table or records
// yields the records before the damage and the serial decoder's error.
func TestScanSerialEquivalence(t *testing.T) {
	packed, packedEnds := orderStream(t, true)
	plain, plainEnds := orderStream(t, false)

	var cuts []int
	for i, end := range packedEnds {
		start := len(binMagic)
		if i > 0 {
			start = packedEnds[i-1]
		}
		cuts = append(cuts, start, start+1, start+len(segMagic)+1, start+maxSegHeader/2)
		for k := 1; k < 8; k++ {
			cuts = append(cuts, start+(end-start)*k/8)
		}
		cuts = append(cuts, end-1)
	}
	cuts = append(cuts, 0, 3, len(packed))

	type flip struct {
		name string
		at   int
	}
	var flips []flip
	for i, end := range plainEnds {
		start := len(binMagic)
		if i > 0 {
			start = plainEnds[i-1]
		}
		h, hlen, err := parseSegHeader(plain[start:])
		if err != nil {
			t.Fatal(err)
		}
		payload := start + hlen
		seg := fmt.Sprintf("segment %d ", i+1)
		flips = append(flips,
			flip{seg + "magic", start + 1},
			flip{seg + "flags", start + len(segMagic)},
			flip{seg + "record count", start + len(segMagic) + 1},
			flip{seg + "raw length", start + len(segMagic) + 1 + len(binary.AppendUvarint(nil, h.count))},
			flip{seg + "stored length", start + hlen - 1},
			flip{seg + "string count", payload},
			flip{seg + "string length", payload + 1},
			flip{seg + "string bytes", payload + 3},
			flip{seg + "first record", payload + int(h.rawLen)/16},
			flip{seg + "mid record", payload + int(h.rawLen)/2},
			flip{seg + "last byte", end - 1},
		)
	}

	atGOMAXPROCS(t, func(t *testing.T) {
		for _, c := range cuts {
			durable := 0
			if c >= len(binMagic) {
				durable = len(binMagic)
			}
			for _, end := range packedEnds {
				if end <= c {
					durable = end
				}
			}
			var want []string
			if durable > 0 {
				var err error
				if want, err = serialRecords(packed[:durable]); err != nil {
					t.Fatalf("cut %d: the reference refuses the durable prefix: %v", c, err)
				}
			}
			var got []string
			torn, err := ScanTorn(bytes.NewReader(packed[:c]), func(e *Experiment) error {
				got = append(got, recordKey(e))
				return nil
			})
			if err != nil || torn != c-durable || !slices.Equal(got, want) {
				t.Fatalf("cut at %d of %d: %d records, %d torn, err %v; want %d records and %d torn",
					c, len(packed), len(got), torn, err, len(want), c-durable)
			}
		}

		for _, f := range flips {
			mutated := bytes.Clone(plain)
			mutated[f.at] ^= 0x5A
			want, wantErr := serialRecords(mutated)
			var got []string
			err := Scan(bytes.NewReader(mutated), func(e *Experiment) error {
				got = append(got, recordKey(e))
				return nil
			})
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
				t.Fatalf("flip in %s (byte %d): %d records, err %v; want %d records, err %v",
					f.name, f.at, len(got), err, len(want), wantErr)
			}
		}
	})
}

// watchedReader counts the reads of a stream that happen after the scan
// that owns it has returned. It hands out at most 4 KB a read, as a pipe
// would, so a segment takes many reads and a scan that stops mid-segment
// is likely to be caught reading.
type watchedReader struct {
	r        io.Reader
	returned atomic.Bool
	late     atomic.Int64
}

func (w *watchedReader) Read(p []byte) (int, error) {
	if w.returned.Load() {
		w.late.Add(1)
	}
	n, err := w.r.Read(p[:min(len(p), 4<<10)])
	if w.returned.Load() {
		w.late.Add(1)
	}
	return n, err
}

// settledGoroutines waits for the goroutine count to fall back to want: a
// goroutine that has signalled its exit may take a moment to finish it.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// TestScanEarlyStop: a callback error stops the scan at once and comes
// back unwrapped; nothing is yielded after it, and by the time Scan
// returns nothing it started still runs or reads.
func TestScanEarlyStop(t *testing.T) {
	packed, _ := orderStream(t, true)
	total := 2*DefaultSegmentRecords + 37
	stop := errors.New("stop here")
	atGOMAXPROCS(t, func(t *testing.T) {
		for _, at := range []int{1, DefaultSegmentRecords + DefaultSegmentRecords/2, total} {
			base := runtime.NumGoroutine()
			wr := &watchedReader{r: bytes.NewReader(packed)}
			n := 0
			err := Scan(wr, func(e *Experiment) error {
				n++
				if e.Seq == at {
					return stop
				}
				return nil
			})
			wr.returned.Store(true)
			if err != stop {
				t.Fatalf("stop at record %d: Scan returned %v, want the callback's error unwrapped", at, err)
			}
			if n != at {
				t.Fatalf("stop at record %d: callback ran %d times", at, n)
			}
			if got := settledGoroutines(base); got != base {
				t.Fatalf("stop at record %d: %d goroutines after Scan returned, %d before", at, got, base)
			}
			if late := wr.late.Load(); late != 0 {
				t.Fatalf("stop at record %d: the stream was read %d times after Scan returned", at, late)
			}
		}
	})
}
