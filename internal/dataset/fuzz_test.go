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
