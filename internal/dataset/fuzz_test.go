package dataset

import (
	"bytes"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// unmarshalSeeds are the crafted streams the decoder tests already hold:
// the one-record frame, the huge-count matrix, the header that lies about
// its sizes, the short deflate stream, and a valid three-record segment.
func unmarshalSeeds(tb testing.TB) [][]byte {
	sane := craftSegmentPayload([5]uint64{})
	seeds := [][]byte{frameSegment(0, 1, len(sane), sane), frameSegment(0, 1<<40, len(sane), sane)}
	seeds = append(seeds, hugeCountFrames()...)
	seeds = append(seeds, frameSegment(segFlagFlate, 1, 1<<30, []byte{0x03, 0x00}), shortDeflateStream(tb))
	valid, err := MarshalExperiments(sampleDataset(3).Experiments)
	if err != nil {
		tb.Fatal(err)
	}
	return append(seeds, valid)
}

// FuzzUnmarshalExperiments feeds UnmarshalExperiments the bytes a worker
// could send. It must never panic; what it accepts must survive a further
// Marshal/Unmarshal unchanged; and accepted or not, what it allocates is
// bounded by the input's length, not by anything the input declares.
//
// The bound: a stored byte inflates to at most maxInflateRatio raw bytes.
// count() admits a collection only if the bytes its record has left could
// encode that many elements, so a raw byte buys at most sizeof(element) /
// min-encoded-size bytes of slab: 24 for an address (1 byte encodes an
// invalid one), 15 to 18 for the four record types. The worst
// a record's bytes can do is be claimed twice, once per nesting level — a
// Resolutions header sized for all of them, then an Answers header inside
// its first element sized for all of them again — before the decode runs
// off the record and fails. A slab chunk abandons a tail shorter than the
// request that did not fit, which at worst doubles that. The inflate
// buffer (1 B per raw byte), the string table (a 16 B header per 1-byte
// entry, for bytes that are then not record bytes) and the Experiment
// structs (~8 B per record byte) fit in the rounding. The constant is the
// decoder's fixed state: a chunk per slab, the inflater.
func FuzzUnmarshalExperiments(f *testing.F) {
	const (
		addrPerByte       = uint64(unsafe.Sizeof(netip.Addr{})) / minAddrBytes
		resolutionPerByte = (uint64(unsafe.Sizeof(Resolution{})) + minResolutionBytes - 1) / minResolutionBytes
		perByte           = maxInflateRatio * 2 * (resolutionPerByte + 2*addrPerByte)
		fixed             = 5*slabChunkBytes + 1<<20
	)
	for _, seed := range unmarshalSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := UnmarshalExperiments(b)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, perByte*uint64(len(b))+fixed; grew > limit {
			t.Fatalf("decoding %d bytes allocated %d, bound %d (err %v)", len(b), grew, limit, err)
		}
		if err != nil {
			return
		}
		again, err := MarshalExperiments(got)
		if err != nil {
			t.Fatalf("accepted stream does not re-marshal: %v", err)
		}
		back, err := UnmarshalExperiments(again)
		if err != nil {
			t.Fatalf("re-marshalled stream does not decode: %v", err)
		}
		if third, err := MarshalExperiments(back); err != nil || !bytes.Equal(third, again) {
			t.Fatalf("the round trip does not re-marshal to the same bytes (err %v)", err)
		}
		for _, es := range [][]*Experiment{got, back} {
			for _, e := range es { // NaN != NaN to DeepEqual; its bits were just compared as bytes
				if e.Lat != e.Lat {
					e.Lat = 0
				}
				if e.Lon != e.Lon {
					e.Lon = 0
				}
			}
		}
		if !reflect.DeepEqual(got, back) {
			t.Fatalf("%d accepted experiments changed over a Marshal/Unmarshal round trip", len(got))
		}
	})
}

// FuzzScanTorn feeds ScanTorn — the reader behind ScanCheckpoint, so
// behind `curtain analyze -in <checkpoint dir>` and every resume — a
// stream b, and, when b is a clean curtainbin stream, b cut at cut and b
// with flip XORed into the byte at at. The properties:
//
//   - Whatever the stream, no panic, and what ScanTorn accepts is a
//     durable prefix plus a torn tail: the prefix rescans strictly to
//     exactly the records it yielded.
//   - A clean stream cut anywhere yields exactly the records of the
//     segments wholly before the cut and reports every byte after the
//     last of them as torn.
//   - A byte flipped inside a complete segment is an error or accepted
//     with different records, never torn, and the segments before it
//     still yield exactly their records; a flipped segment magic is
//     always an error. The segment's three length fields are the
//     exception, held to the first property only: curtainbin carries no
//     checksum, so a stored length that now runs past the end of the
//     stream is indistinguishable from a tear.
func FuzzScanTorn(f *testing.F) {
	for _, seed := range unmarshalSeeds(f) {
		f.Add(seed, uint32(0), uint32(0), byte(0))
	}
	var clean bytes.Buffer
	bw := NewBinaryWriter(&clean)
	bw.SegmentRecords = 1
	for _, e := range sampleDataset(3).Experiments {
		if err := bw.Append(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Fatal(err)
	}
	for cut := 0; cut <= clean.Len(); cut++ {
		f.Add(clean.Bytes(), uint32(cut), uint32(cut), byte(0xFF))
	}
	f.Fuzz(func(t *testing.T, b []byte, cut, at uint32, flip byte) {
		checkTornPrefix(t, b)
		segs, want := cleanSegments(b)
		if segs == nil {
			return
		}

		c := int(cut) % (len(b) + 1)
		durable, records := 0, 0
		if c >= len(binMagic) {
			durable = len(binMagic)
		}
		for _, sg := range segs {
			if sg.end <= c {
				durable, records = sg.end, records+sg.records
			}
		}
		got, torn, err := scanTornRecords(b[:c])
		if err != nil || torn != c-durable || !sameRecords(t, got, want[:records]) {
			t.Fatalf("cut at %d of %d: %d records, %d torn bytes, err %v; want the %d records before byte %d and %d torn",
				c, len(b), len(got), torn, err, records, durable, c-durable)
		}

		if flip == 0 || len(segs) == 0 {
			return
		}
		pos := len(binMagic) + int(at)%(len(b)-len(binMagic))
		before := 0
		for _, sg := range segs {
			if pos >= sg.end {
				before += sg.records
				continue
			}
			mutated := bytes.Clone(b)
			mutated[pos] ^= flip
			checkTornPrefix(t, mutated)
			if pos >= sg.fields && pos < sg.payload {
				return // a length field: see above
			}
			got, torn, err := scanTornRecords(mutated)
			if torn != 0 {
				t.Fatalf("flip at byte %d, inside the segment at %d, reported %d torn bytes (err %v)", pos, sg.start, torn, err)
			}
			if pos < sg.fields-1 && err == nil {
				t.Fatalf("flip at byte %d, in the magic of the segment at %d, was accepted", pos, sg.start)
			}
			if len(got) < before || !sameRecords(t, got[:before], want[:before]) {
				t.Fatalf("flip at byte %d: the %d records before its segment were not yielded intact (got %d)", pos, before, len(got))
			}
			return
		}
	})
}

// segSpan locates one segment of a stream: its header, its three length
// fields (after the magic and flags byte), its payload and its end.
type segSpan struct {
	start, fields, payload, end int
	records                     int
}

// cleanSegments splits b into its segments and decodes its records when
// b is a clean curtainbin stream — one a strict Scan accepts — and
// returns nil otherwise.
func cleanSegments(b []byte) ([]segSpan, []*Experiment) {
	if !bytes.HasPrefix(b, binMagic[:]) {
		return nil, nil
	}
	var records []*Experiment
	if err := Scan(bytes.NewReader(b), func(e *Experiment) error {
		records = append(records, e)
		return nil
	}); err != nil {
		return nil, nil
	}
	segs := []segSpan{}
	for pos := len(binMagic); pos < len(b); {
		h, n, err := parseSegHeader(b[pos:])
		if err != nil {
			return nil, nil
		}
		end := pos + n + int(h.storedLen)
		segs = append(segs, segSpan{start: pos, fields: pos + len(segMagic) + 1, payload: pos + n, end: end, records: int(h.count)})
		pos = end
	}
	return segs, records
}

// checkTornPrefix holds ScanTorn to its contract on any stream: what it
// accepts splits into a durable prefix, which a strict scan reads back as
// exactly the records ScanTorn yielded, and a torn tail.
func checkTornPrefix(t *testing.T, b []byte) {
	t.Helper()
	got, torn, err := scanTornRecords(b)
	if err != nil {
		return
	}
	if torn < 0 || torn > len(b) {
		t.Fatalf("%d of %d bytes reported torn", torn, len(b))
	}
	var again []*Experiment
	if err := Scan(bytes.NewReader(b[:len(b)-torn]), func(e *Experiment) error {
		again = append(again, e)
		return nil
	}); err != nil {
		t.Fatalf("the durable prefix of %d bytes (%d torn) does not rescan: %v", len(b)-torn, torn, err)
	}
	if !sameRecords(t, got, again) {
		t.Fatalf("ScanTorn yielded %d records, its durable prefix rescans to %d others", len(got), len(again))
	}
}

func scanTornRecords(b []byte) ([]*Experiment, int, error) {
	var got []*Experiment
	torn, err := ScanTorn(bytes.NewReader(b), func(e *Experiment) error {
		got = append(got, e)
		return nil
	})
	return got, torn, err
}

// sameRecords compares two record lists by their encoding, which is
// deterministic and, unlike DeepEqual, equates NaN coordinates.
func sameRecords(t *testing.T, a, b []*Experiment) bool {
	t.Helper()
	ea, err := MarshalExperiments(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := MarshalExperiments(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ea, eb)
}

// TestWriteSeedCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/ from unmarshalSeeds. It is skipped unless
// WRITE_FUZZ_CORPUS=1 (as in internal/dnswire), so a normal test run
// never touches testdata.
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzUnmarshalExperiments")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range unmarshalSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
