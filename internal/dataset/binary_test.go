package dataset

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// sampleDataset builds a dataset exercising every record field shape:
// empty slices, invalid addresses, failed experiments, repeated strings.
func sampleDataset(n int) *Dataset {
	d := &Dataset{}
	carriers := []string{"att", "verizon", "sprint", "tmobile"}
	for i := 0; i < n; i++ {
		e := sampleExperiment(i+1, carriers[i%len(carriers)])
		switch i % 5 {
		case 1:
			e.Resolutions[0].Outcome = "timeout"
			e.Resolutions[0].Attempts = 3
			e.Resolutions[0].FailedOver = true
			e.Resolutions[0].Cost = 1500 * time.Millisecond
		case 2:
			e.Failed = true
			e.FailReason = "measure: synthetic panic"
			e.Time = time.Time{} // outside the UnixNano range
			e.Resolutions = nil
			e.Discoveries = nil
			e.ResolverProbes = nil
			e.ReplicaProbes = nil
			e.EgressTrace = nil
		case 3:
			e.TraceFailed = true
			e.EgressTrace = nil
			e.Resolutions[0].Answers = nil
			e.Resolutions[0].Server = netip.Addr{}
		case 4:
			e.NATAddr = netip.MustParseAddr("2001:db8::7")
		}
		d.Add(e)
	}
	return d
}

// TestBinaryRoundTripByteIdentity is the codec's core guarantee: JSONL →
// binary → JSONL reproduces the original bytes exactly.
func TestBinaryRoundTripByteIdentity(t *testing.T) {
	d := sampleDataset(700) // > DefaultSegmentRecords, so multiple segments
	var jsonl1 bytes.Buffer
	if err := d.WriteJSONL(&jsonl1); err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := d.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= jsonl1.Len() {
		t.Fatalf("binary (%d bytes) not smaller than JSONL (%d bytes)", bin.Len(), jsonl1.Len())
	}
	back := &Dataset{}
	if err := Scan(bytes.NewReader(bin.Bytes()), func(e *Experiment) error {
		back.Add(e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var jsonl2 bytes.Buffer
	if err := back.WriteJSONL(&jsonl2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonl1.Bytes(), jsonl2.Bytes()) {
		a, b := jsonl1.Bytes(), jsonl2.Bytes()
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		lo, hi := i-40, i+40
		if lo < 0 {
			lo = 0
		}
		if hi > len(a) {
			hi = len(a)
		}
		t.Fatalf("round trip diverges at byte %d:\n got %q\nwant %q", i, b[lo:min(hi, len(b))], a[lo:hi])
	}
}

func TestBinaryCompressionRatio(t *testing.T) {
	d := sampleDataset(512)
	var jsonl, bin bytes.Buffer
	if err := d.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if ratio := float64(jsonl.Len()) / float64(bin.Len()); ratio < 5 {
		t.Fatalf("binary only %.1fx smaller than JSONL (%d vs %d bytes), want >= 5x",
			ratio, bin.Len(), jsonl.Len())
	}
}

func TestBinaryUncompressedRoundTrip(t *testing.T) {
	d := sampleDataset(10)
	var bin bytes.Buffer
	bw := NewBinaryWriter(&bin)
	bw.Compress = false
	for _, e := range d.Experiments {
		if err := bw.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := readAll(bytes.NewReader(bin.Bytes())) // auto-detects
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != d.Len() {
		t.Fatalf("read %d experiments, want %d", len(back), d.Len())
	}
}

func TestBinaryTornTail(t *testing.T) {
	d := sampleDataset(64)
	var bin bytes.Buffer
	bw := NewBinaryWriter(&bin)
	bw.SegmentRecords = 16 // several segments
	for _, e := range d.Experiments {
		if err := bw.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	full := bin.Bytes()
	for _, cut := range []int{1, 7, len(full) / 3, len(full) - 1} {
		torn := full[:len(full)-cut]
		if err := Scan(bytes.NewReader(torn), func(*Experiment) error { return nil }); err == nil {
			t.Fatalf("strict Scan accepted a tail torn by %d bytes", cut)
		}
		var got int
		discarded, err := ScanTorn(bytes.NewReader(torn), func(e *Experiment) error {
			got++
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got%16 != 0 || got >= 64 {
			t.Fatalf("cut %d: recovered %d records, want a proper multiple of the segment size", cut, got)
		}
		// The discarded tail plus the durable prefix must account for the
		// whole torn file — that is what checkpoint truncation relies on.
		if rest := len(torn) - discarded; rest < 0 || discarded == 0 {
			t.Fatalf("cut %d: discarded %d of %d bytes", cut, discarded, len(torn))
		}
		clean := torn[:len(torn)-discarded]
		n := 0
		if err := Scan(bytes.NewReader(clean), func(*Experiment) error { n++; return nil }); err != nil && len(clean) > len(binMagic) {
			t.Fatalf("cut %d: durable prefix does not rescan: %v", cut, err)
		}
	}
}

func TestBinaryCorruptionIsNotTorn(t *testing.T) {
	d := sampleDataset(8)
	var bin bytes.Buffer
	if err := d.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	b := bytes.Clone(bin.Bytes())
	b[len(binMagic)+2] ^= 0xFF // corrupt the segment header in place
	if _, err := ScanTorn(bytes.NewReader(b), func(*Experiment) error { return nil }); err == nil {
		t.Fatal("mid-file corruption must stay an error even in torn mode")
	}
}

// craftSegmentPayload hand-assembles a one-record segment payload: a
// string table holding a single empty entry and a minimal record whose
// five collection counts (resolutions, discoveries, resolver probes,
// replica probes, egress hops) are the given values with no elements
// behind them — the shape a corrupt or hostile frame takes.
func craftSegmentPayload(counts [5]uint64) []byte {
	var body []byte
	body = append(body, 0, 0, 0)             // seq delta, time delta, nanos
	body = append(body, 0, 0, 0, 0)          // ClientID/Carrier/Country/Radio -> ""
	body = append(body, make([]byte, 16)...) // Lat, Lon
	body = append(body, 0, 0)                // NATAddr, Configured: invalid
	body = append(body, 0)                   // flags
	body = append(body, 0)                   // FailReason -> ""
	for _, c := range counts {
		body = binary.AppendUvarint(body, c)
	}
	var raw []byte
	raw = append(raw, 1, 0) // string table: one empty string
	raw = binary.AppendUvarint(raw, uint64(len(body)))
	return append(raw, body...)
}

// frameSegment wraps a raw payload in a complete curtainbin file frame.
func frameSegment(flags byte, nrec, rawLen int, stored []byte) []byte {
	f := append([]byte{}, binMagic[:]...)
	f = append(f, segMagic[:]...)
	f = append(f, flags)
	f = binary.AppendUvarint(f, uint64(nrec))
	f = binary.AppendUvarint(f, uint64(rawLen))
	f = binary.AppendUvarint(f, uint64(len(stored)))
	return append(f, stored...)
}

// TestBinaryHugeCollectionCount pins down that a record claiming more
// collection elements than the payload can hold — including counts past
// 2^63, which overflow int — is a decode error, not a panic or a
// multi-GB allocation. This path is worker-reachable: the coordinator
// feeds worker-supplied segment bytes through UnmarshalExperiments.
func TestBinaryHugeCollectionCount(t *testing.T) {
	sane := craftSegmentPayload([5]uint64{})
	if es, err := UnmarshalExperiments(frameSegment(0, 1, len(sane), sane)); err != nil || len(es) != 1 {
		t.Fatalf("minimal crafted record must decode (got %d, %v)", len(es), err)
	}
	for i, frame := range hugeCountFrames() {
		if _, err := UnmarshalExperiments(frame); err == nil {
			t.Fatalf("huge-count frame %d accepted", i)
		}
	}
}

// hugeCountFrames is the matrix of one-record streams in which one of the
// five collection counts claims 2^40, 2^63 or 2^64-1 elements.
func hugeCountFrames() [][]byte {
	var frames [][]byte
	for i := 0; i < 5; i++ {
		for _, huge := range []uint64{1 << 40, 1 << 63, ^uint64(0)} {
			var counts [5]uint64
			counts[i] = huge
			raw := craftSegmentPayload(counts)
			frames = append(frames, frameSegment(0, 1, len(raw), raw))
		}
	}
	return frames
}

// TestBinaryFlateOverInflation: a compressed payload that inflates past
// its declared raw length is corrupt and must be rejected, not silently
// truncated to the declared length.
func TestBinaryFlateOverInflation(t *testing.T) {
	raw := craftSegmentPayload([5]uint64{})
	deflate := func(b []byte) []byte {
		var comp bytes.Buffer
		fw, err := flate.NewWriter(&comp, flate.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(b); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		return comp.Bytes()
	}
	if es, err := UnmarshalExperiments(frameSegment(segFlagFlate, 1, len(raw), deflate(raw))); err != nil || len(es) != 1 {
		t.Fatalf("exact compressed segment must decode (got %d, %v)", len(es), err)
	}
	over := deflate(append(bytes.Clone(raw), 'X'))
	if _, err := UnmarshalExperiments(frameSegment(segFlagFlate, 1, len(raw), over)); err == nil {
		t.Fatal("segment inflating past declared raw length accepted")
	}
}

// allocatedBy reports how many heap bytes f allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBinaryHeaderCannotDemandAllocation: a segment header is a few
// worker-supplied bytes, so what it declares must be checked against the
// bytes actually present before any buffer is sized from it. A header
// declaring a gigabyte of raw payload over a handful of stored bytes (more
// than deflate can expand them to), and one declaring more stored bytes
// than the stream holds, are both refused without allocating for them; so
// is a flags byte with a bit this reader does not know, whatever else the
// header declares.
func TestBinaryHeaderCannotDemandAllocation(t *testing.T) {
	stored := []byte{0x03, 0x00} // an empty final deflate block
	// frameSegment sizes storedLen from the bytes it is given; this header
	// claims a gigabyte it does not have.
	lying := append([]byte{}, binMagic[:]...)
	lying = append(lying, segMagic[:]...)
	lying = append(lying, 0, 1) // flags, one record
	lying = binary.AppendUvarint(lying, 1<<30)
	lying = binary.AppendUvarint(lying, 1<<30)
	lying = append(lying, stored...)
	for _, tc := range []struct {
		name, want string
		frame      []byte
	}{
		{"1 GB raw over 2 stored bytes", "can inflate to", frameSegment(segFlagFlate, 1, 1<<30, stored)},
		{"raw one past the inflate bound", "can inflate to", frameSegment(segFlagFlate, 1, maxInflateRatio*(len(stored)+1)+1, stored)},
		{"1 GB stored, 2 bytes present", "truncated", lying},
		{"a flag bit no reader knows", "unknown segment flags", frameSegment(segFlagFlate|0x80, 1, 1<<30, stored)},
	} {
		if len(tc.frame) > 30 {
			t.Fatalf("%s: crafted frame is %d bytes, want a header-sized input", tc.name, len(tc.frame))
		}
		var err error
		got := allocatedBy(func() { _, err = UnmarshalExperiments(tc.frame) })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want a refusal saying %q", tc.name, err, tc.want)
		}
		if got >= 2<<20 {
			t.Fatalf("%s: refusing a %d-byte input allocated %d bytes", tc.name, len(tc.frame), got)
		}
	}

	// The record count is header too. Records are carved from chunks made
	// as decoding proceeds, so 2^40 declared records over one real one fail
	// at the second without more than a chunk of each kind being made.
	raw := craftSegmentPayload([5]uint64{})
	var err error
	got := allocatedBy(func() { _, err = UnmarshalExperiments(frameSegment(0, 1<<40, len(raw), raw)) })
	if err == nil || !strings.Contains(err.Error(), "corrupt record 1") {
		t.Fatalf("2^40 declared records: err = %v, want record 1 refused", err)
	}
	if got > 5*slabChunkBytes+64<<10 {
		t.Fatalf("2^40 declared records over a %d-byte payload allocated %d bytes, more than one chunk of each kind", len(raw), got)
	}

	// The stream reader checkpoints and analyze go through sizes its
	// payload buffer by the bytes that arrive: the lying header is a torn
	// tail, read into a buffer of its own size, beside the reader's 64 KB
	// of buffering.
	var torn int
	got = allocatedBy(func() { torn, err = ScanTorn(bytes.NewReader(lying), func(*Experiment) error { return nil }) })
	if err != nil || torn != len(lying)-len(binMagic) {
		t.Fatalf("1 GB stored, 2 bytes present: ScanTorn = %d torn, %v; want the segment torn", torn, err)
	}
	if got >= 2<<20 {
		t.Fatalf("ScanTorn of a %d-byte stream declaring 1 GB allocated %d bytes", len(lying), got)
	}
}

// TestDecodedRecordsOwnTheirWindows: decoded records are windows of shared
// slab chunks, which must not show. Appending to any slice of a record
// reallocates instead of writing into the record decoded next, and a
// record kept by the callback still reads as written after the scan has
// gone on through later segments.
func TestDecodedRecordsOwnTheirWindows(t *testing.T) {
	d := sampleDataset(24)
	var bin bytes.Buffer
	bw := NewBinaryWriter(&bin)
	bw.SegmentRecords = 8
	for _, e := range d.Experiments {
		if err := bw.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	jsonl := func(es []*Experiment) string {
		var b bytes.Buffer
		if err := (&Dataset{Experiments: es}).WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want := jsonl(d.Experiments)

	var kept []*Experiment
	if err := Scan(bytes.NewReader(bin.Bytes()), func(e *Experiment) error {
		kept = append(kept, e)
		if e.Seq == 17 { // the third segment: the first is two segments back
			if got, want := jsonl(kept[:1]), jsonl(d.Experiments[:1]); got != want {
				t.Fatalf("record 1 read back two segments later:\n got %s\nwant %s", got, want)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := jsonl(kept); got != want {
		t.Fatal("kept records differ from the encoded ones")
	}

	junkAddr := netip.MustParseAddr("255.255.255.255")
	for _, e := range kept {
		e.Resolutions = append(e.Resolutions, Resolution{Domain: "junk"})
		e.Discoveries = append(e.Discoveries, Discovery{Outcome: "junk"})
		e.ResolverProbes = append(e.ResolverProbes, ResolverProbe{Which: "junk"})
		e.ReplicaProbes = append(e.ReplicaProbes, ReplicaProbe{Domain: "junk"})
		e.EgressTrace = append(e.EgressTrace, junkAddr)
		for i := range e.Resolutions {
			e.Resolutions[i].Answers = append(e.Resolutions[i].Answers, junkAddr)
		}
	}
	for _, e := range kept {
		e.Resolutions = e.Resolutions[:len(e.Resolutions)-1]
		e.Discoveries = e.Discoveries[:len(e.Discoveries)-1]
		e.ResolverProbes = e.ResolverProbes[:len(e.ResolverProbes)-1]
		e.ReplicaProbes = e.ReplicaProbes[:len(e.ReplicaProbes)-1]
		e.EgressTrace = e.EgressTrace[:len(e.EgressTrace)-1]
		for i := range e.Resolutions {
			a := e.Resolutions[i].Answers
			e.Resolutions[i].Answers = a[:len(a)-1]
		}
	}
	// Slices that were nil are now empty, which JSONL tells apart; compare
	// the binary encoding, which does not.
	gotBin, err := MarshalExperiments(kept)
	if err != nil {
		t.Fatal(err)
	}
	wantBin, err := MarshalExperiments(d.Experiments)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBin, wantBin) {
		t.Fatal("appending to one decoded record's slices changed a neighbouring record")
	}
}

// TestBinaryShortDeflateIsNotTorn: a complete segment whose deflate stream
// ends early is corruption. The inflater reports it as an unexpected EOF,
// which must not be taken for the torn tail a hard kill leaves — ScanTorn
// would drop the segment and whatever follows it.
func TestBinaryShortDeflateIsNotTorn(t *testing.T) {
	if _, err := ScanTorn(bytes.NewReader(shortDeflateStream(t)), func(*Experiment) error { return nil }); err == nil {
		t.Fatal("a short deflate stream mid-file was taken for a torn tail")
	}
}

// shortDeflateStream is a two-segment stream whose first segment is
// re-framed over the front half of its deflate stream; the second follows
// untouched.
func shortDeflateStream(tb testing.TB) []byte {
	d := sampleDataset(8)
	var bin bytes.Buffer
	bw := NewBinaryWriter(&bin)
	bw.SegmentRecords = 4
	for _, e := range d.Experiments {
		if err := bw.Append(e); err != nil {
			tb.Fatal(err)
		}
	}
	h, hlen, err := parseSegHeader(bin.Bytes()[len(binMagic):])
	if err != nil {
		tb.Fatal(err)
	}
	first := len(binMagic) + hlen
	half := bin.Bytes()[first : first+int(h.storedLen)/2]
	b := frameSegment(h.flags, int(h.count), int(h.rawLen), half)
	return append(b, bin.Bytes()[first+int(h.storedLen):]...)
}

// TestFileShardsTruncatedTrailer: a kill that tears the file inside the
// next segment's fixed header (1-4 trailing bytes) must surface as the
// truncation error, not a slice-bounds panic in offset discovery.
func TestFileShardsTruncatedTrailer(t *testing.T) {
	d := sampleDataset(40)
	var bin bytes.Buffer
	if err := d.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	for extra := 1; extra <= 4; extra++ {
		b := append(bytes.Clone(bin.Bytes()), segMagic[:extra]...)
		path := filepath.Join(t.TempDir(), "trunc.bin")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := FileShards(path, 3); err == nil {
			t.Fatalf("%d torn trailing bytes accepted", extra)
		}
	}
}

func TestMarshalUnmarshalExperiments(t *testing.T) {
	roundTrip := func(d *Dataset) error {
		b, err := MarshalExperiments(d.Experiments)
		if err != nil {
			return err
		}
		es, err := UnmarshalExperiments(b)
		if err != nil {
			return err
		}
		var a, bb bytes.Buffer
		if err := d.WriteJSONL(&a); err != nil {
			return err
		}
		if err := (&Dataset{Experiments: es}).WriteJSONL(&bb); err != nil {
			return err
		}
		if len(es) != d.Len() || !bytes.Equal(a.Bytes(), bb.Bytes()) {
			return errors.New("marshal round trip is not byte-identical")
		}
		return nil
	}
	if err := roundTrip(sampleDataset(33)); err != nil {
		t.Fatal(err)
	}

	// Both directions keep codec state between calls. Eight goroutines
	// round-trip datasets of different sizes at once (run under -race), and
	// every other call is one that fails half-way — a nil experiment after
	// real ones on the encode side, a stream cut inside its segment on the
	// decode side — so state handed back by a failed call, or shared between
	// two calls in flight, shows up as a wrong byte in somebody's result.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := sampleDataset(20 + 7*g)
			sealed, err := MarshalExperiments(d.Experiments)
			if err != nil {
				t.Error(err)
				return
			}
			poisoned := append(append([]*Experiment{}, d.Experiments[:5]...), nil)
			for i := 0; i < 20; i++ {
				if _, err := MarshalExperiments(poisoned); err == nil || !strings.Contains(err.Error(), "nil") {
					t.Errorf("goroutine %d: nil experiment: err = %v", g, err)
				}
				if _, err := UnmarshalExperiments(sealed[:len(sealed)-3]); err == nil {
					t.Errorf("goroutine %d: truncated stream accepted", g)
				}
				if err := roundTrip(d); err != nil {
					t.Errorf("goroutine %d round %d: %v", g, i, err)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestBinaryFileShardsEquivalence(t *testing.T) {
	d := sampleDataset(300)
	var bin bytes.Buffer
	bw := NewBinaryWriter(&bin)
	bw.SegmentRecords = 32
	for _, e := range d.Experiments {
		if err := bw.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ds.bin")
	if err := os.WriteFile(path, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 4, 8, 100} {
		shards, err := FileShards(path, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(shards) > n {
			t.Fatalf("n=%d: got %d shards", n, len(shards))
		}
		var seqs []int
		for i, sh := range shards {
			if i > 0 && sh.Start != shards[i-1].End {
				t.Fatalf("n=%d: shard %d not contiguous", n, i)
			}
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
}

func TestBinaryCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := Manifest{Seed: 7, ConfigHash: "abc", Total: 50}
	ck, err := CreateCheckpoint(dir, m, 8)
	if err != nil {
		t.Fatal(err)
	}
	d := sampleDataset(50)
	for _, e := range d.Experiments[:30] {
		if err := ck.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ck.Manifest().Completed; got != 30 {
		t.Fatalf("completed = %d, want 30", got)
	}

	// Resume: reopen, verify the prior records, append the rest.
	re, prior, discarded, err := openCollect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if discarded != 0 || len(prior) != 30 {
		t.Fatalf("reopen: %d prior, %d discarded", len(prior), discarded)
	}
	for _, e := range d.Experiments[30:] {
		if err := re.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	var got int
	tornBytes, err := ScanCheckpoint(dir, func(e *Experiment) error {
		got++
		if e.Seq != got {
			t.Fatalf("checkpoint scan out of order: seq %d at position %d", e.Seq, got)
		}
		return nil
	})
	if err != nil || tornBytes != 0 {
		t.Fatalf("scan checkpoint: %v (%d torn)", err, tornBytes)
	}
	if got != 50 {
		t.Fatalf("checkpoint holds %d records, want 50", got)
	}
}

func TestBinaryCheckpointTornResume(t *testing.T) {
	dir := t.TempDir()
	ck, err := CreateCheckpoint(dir, Manifest{Seed: 7, ConfigHash: "h", Total: 40}, 10)
	if err != nil {
		t.Fatal(err)
	}
	d := sampleDataset(40)
	for _, e := range d.Experiments {
		if err := ck.Append(e); err != nil {
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
	if err := os.WriteFile(seg, b[:len(b)-11], 0o644); err != nil {
		t.Fatal(err)
	}
	re, prior, discarded, err := openCollect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if discarded == 0 {
		t.Fatal("torn tail not reported")
	}
	if len(prior)%10 != 0 || len(prior) >= 40 {
		t.Fatalf("prior = %d records after tear, want durable multiple of sync cadence", len(prior))
	}
	// Re-append the lost suffix; the file must scan clean afterwards.
	for _, e := range d.Experiments[len(prior):] {
		if err := re.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := ScanCheckpoint(dir, func(*Experiment) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("resumed checkpoint holds %d records, want 40", n)
	}
}

// TestHotPathAllocs proves the per-record encode primitives allocate
// nothing once buffers and the string table are warm. (The decode side is
// gated where it is used: TestScanAllocBudget.)
func TestHotPathAllocs(t *testing.T) {
	e := sampleExperiment(12345, "verizon")
	enc := newBinEncoder()
	enc.appendExperiment(e) // warm the string table and buffers
	encAllocs := testing.AllocsPerRun(200, func() {
		enc.buf = enc.buf[:0]
		enc.prevSeq = 0
		enc.prevTime = 0
		enc.count = 0
		enc.appendExperiment(e)
	})
	if encAllocs != 0 {
		t.Fatalf("encode hot path allocates %.1f per record, want 0", encAllocs)
	}
}

func TestParseFormat(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Format
		ok   bool
	}{
		{"", FormatJSONL, true},
		{"jsonl", FormatJSONL, true},
		{"binary", FormatBinary, true},
		{"proto", "", false},
	} {
		got, err := ParseFormat(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Fatalf("ParseFormat(%q) = %q, %v", tc.in, got, err)
		}
	}
}

func TestFileFormat(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "a.jsonl")
	if err := os.WriteFile(jp, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bp := filepath.Join(dir, "a.bin")
	var bin bytes.Buffer
	if err := sampleDataset(1).WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bp, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	ep := filepath.Join(dir, "empty")
	if err := os.WriteFile(ep, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path string
		want Format
	}{{jp, FormatJSONL}, {bp, FormatBinary}, {ep, FormatJSONL}} {
		got, err := FileFormat(tc.path)
		if err != nil || got != tc.want {
			t.Fatalf("FileFormat(%s) = %q, %v; want %q", tc.path, got, err, tc.want)
		}
	}
}
