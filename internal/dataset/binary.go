package dataset

// curtainbin — the compact binary dataset codec (DESIGN.md §15).
//
// A curtainbin stream is an 8-byte file magic followed by self-delimiting
// segments. Each segment carries a string table (carrier, resolver-kind,
// domain and outcome strings are interned per segment) and a batch of
// length-prefixed records with varint/delta-encoded fields; the payload
// is optionally flate-compressed. Segments are the torn-tail unit: a
// hard kill mid-append leaves at most one incomplete trailing segment,
// which a checkpoint resume drops (ScanTorn).
//
// The per-record encode/decode primitives are //lint:hotpath: every byte
// goes through caller-owned buffers, every string through the segment
// table, and decoded records are carved out of the segment decoder's slabs
// (decodeSlabs). TestHotPathAllocs proves the encode side allocates
// nothing per record; TestScanAllocBudget holds a whole Scan to a few
// allocations per record.

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/netip"
	"runtime"
	"sync"
	"time"
	"unsafe"
)

// Format selects a dataset serialization codec.
type Format string

// The two codecs: JSONL is the debug/interchange format, binary the
// compact campaign format. Readers auto-detect by magic bytes, so the
// format only needs choosing on the write side.
const (
	FormatJSONL  Format = "jsonl"
	FormatBinary Format = "binary"
)

// ParseFormat validates a -format flag value ("" selects JSONL).
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case "", FormatJSONL:
		return FormatJSONL, nil
	case FormatBinary:
		return FormatBinary, nil
	}
	return "", fmt.Errorf("dataset: unknown format %q (want %s or %s)", s, FormatJSONL, FormatBinary)
}

// Magic identifies a curtainbin stream; the final byte is the codec
// version.
var binMagic = [8]byte{'C', 'U', 'R', 'T', 'B', 'I', 'N', 1}

// segMagic opens every segment header — a resync marker that makes a
// mid-file corruption diagnosable rather than silently misparsed.
var segMagic = [4]byte{'C', 'B', 'S', 'G'}

const (
	// segFlagFlate marks a flate-compressed segment payload.
	segFlagFlate = 1 << 0

	// DefaultSegmentRecords is the records-per-segment cut cadence of a
	// standalone BinaryWriter (checkpoints cut on their fsync cadence
	// instead, so a kill never loses a synced record).
	DefaultSegmentRecords = 512

	// maxSegmentPayload bounds a segment's declared payload so a corrupt
	// header cannot demand an absurd allocation.
	maxSegmentPayload = 1 << 30
)

// errCorrupt is the hot-path decode failure sentinel; the segment reader
// wraps it with file context.
var errCorrupt = errors.New("dataset: corrupt curtainbin record")

// errTorn reports that the bytes end inside a segment's header or stored
// payload — the only shape a hard kill mid-append can leave. It is a
// private sentinel rather than io.ErrUnexpectedEOF so that a complete
// segment whose deflate stream ends early (corruption) is never mistaken
// for a tear.
var errTorn = errors.New("dataset: curtainbin: stream ends inside a segment")

// stringTable interns the strings of one segment being encoded. Index 0
// is always the empty string so absent fields cost one byte.
type stringTable struct {
	idx   map[string]uint32
	strs  []string
	bytes int
}

func newStringTable() *stringTable {
	t := &stringTable{idx: make(map[string]uint32)}
	t.idx[""] = 0
	t.strs = append(t.strs, "")
	return t
}

func (t *stringTable) reset() {
	for s := range t.idx {
		delete(t.idx, s)
	}
	t.idx[""] = 0
	t.strs = t.strs[:0]
	t.strs = append(t.strs, "")
	t.bytes = 0
}

// ref returns the table index for s, interning it on first use.
//
//lint:hotpath
func (t *stringTable) ref(s string) uint32 {
	if i, ok := t.idx[s]; ok {
		return i
	}
	i := uint32(len(t.strs))
	t.idx[s] = i
	t.strs = append(t.strs, s)
	t.bytes += len(s)
	return i
}

// binEncoder encodes records into a caller-owned buffer with per-segment
// delta state. rec is the per-record scratch body; buf accumulates the
// length-prefixed records of the open segment.
type binEncoder struct {
	buf      []byte
	rec      []byte
	tbl      *stringTable
	prevSeq  int64
	prevTime int64
	count    int
}

func newBinEncoder() *binEncoder {
	return &binEncoder{tbl: newStringTable()}
}

func (enc *binEncoder) reset() {
	enc.buf = enc.buf[:0]
	enc.rec = enc.rec[:0]
	enc.tbl.reset()
	enc.prevSeq = 0
	enc.prevTime = 0
	enc.count = 0
}

// zigzag folds a signed value into the uvarint space.
//
//lint:hotpath
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// unzigzag is the inverse of zigzag.
//
//lint:hotpath
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// The fewest bytes one element of each collection can encode to — every
// varint, string reference, flags byte and address length is at least one
// byte. The append* functions below define these; the decoder's count()
// divides the bytes a record has left by them, so a collection header
// cannot claim more elements than its record could hold.
const (
	minAddrBytes          = 1  // appendAddr: the length byte of an invalid address
	minResolutionBytes    = 14 // appendResolution: 14 fields
	minDiscoveryBytes     = 5  // appendDiscovery: 5 fields
	minResolverProbeBytes = 5  // appendResolverProbe: 5 fields
	minReplicaProbeBytes  = 6  // appendReplicaProbe: 6 fields
)

// appendAddr encodes a netip.Addr as a 1-byte length (0 = invalid, 4 or
// 16) plus the raw address bytes — exact, including IPv4-in-IPv6 forms.
//
//lint:hotpath
func appendAddr(buf []byte, a netip.Addr) []byte {
	switch {
	case !a.IsValid():
		buf = append(buf, 0)
	case a.Is4():
		b := a.As4()
		buf = append(buf, 4)
		buf = append(buf, b[0], b[1], b[2], b[3])
	default:
		b := a.As16()
		buf = append(buf, 16)
		buf = append(buf, b[:]...)
	}
	return buf
}

// appendExperiment appends e's record body to enc.rec, then the
// length-prefixed body to enc.buf. Seq and Time are delta-encoded
// against the previous record of the segment.
//
//lint:hotpath
func (enc *binEncoder) appendExperiment(e *Experiment) {
	rec := enc.rec[:0]
	rec = binary.AppendUvarint(rec, zigzag(int64(e.Seq)-enc.prevSeq))
	enc.prevSeq = int64(e.Seq)
	// Seconds + nanos rather than UnixNano: the zero time.Time (and any
	// other instant outside the UnixNano range) must round-trip exactly.
	sec := e.Time.Unix()
	rec = binary.AppendUvarint(rec, zigzag(sec-enc.prevTime))
	enc.prevTime = sec
	rec = binary.AppendUvarint(rec, uint64(e.Time.Nanosecond()))
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(e.ClientID)))
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(e.Carrier)))
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(e.Country)))
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(e.Radio)))
	rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(e.Lat))
	rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(e.Lon))
	rec = appendAddr(rec, e.NATAddr)
	rec = appendAddr(rec, e.Configured)
	var flags byte
	if e.TraceFailed {
		flags |= 1
	}
	if e.Failed {
		flags |= 2
	}
	rec = append(rec, flags)
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(e.FailReason)))

	rec = binary.AppendUvarint(rec, uint64(len(e.Resolutions)))
	for i := range e.Resolutions {
		rec = enc.appendResolution(rec, &e.Resolutions[i])
	}
	rec = binary.AppendUvarint(rec, uint64(len(e.Discoveries)))
	for i := range e.Discoveries {
		rec = enc.appendDiscovery(rec, &e.Discoveries[i])
	}
	rec = binary.AppendUvarint(rec, uint64(len(e.ResolverProbes)))
	for i := range e.ResolverProbes {
		rec = enc.appendResolverProbe(rec, &e.ResolverProbes[i])
	}
	rec = binary.AppendUvarint(rec, uint64(len(e.ReplicaProbes)))
	for i := range e.ReplicaProbes {
		rec = enc.appendReplicaProbe(rec, &e.ReplicaProbes[i])
	}
	rec = binary.AppendUvarint(rec, uint64(len(e.EgressTrace)))
	for _, a := range e.EgressTrace {
		rec = appendAddr(rec, a)
	}
	enc.rec = rec

	enc.buf = binary.AppendUvarint(enc.buf, uint64(len(rec)))
	enc.buf = append(enc.buf, rec...)
	enc.count++
}

//lint:hotpath
func (enc *binEncoder) appendResolution(rec []byte, r *Resolution) []byte {
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(r.Domain)))
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(string(r.Kind))))
	rec = appendAddr(rec, r.Server)
	rec = binary.AppendUvarint(rec, zigzag(int64(r.RTT1)))
	rec = binary.AppendUvarint(rec, zigzag(int64(r.RTT2)))
	rec = binary.AppendUvarint(rec, zigzag(int64(r.Cost)))
	var flags byte
	if r.OK {
		flags |= 1
	}
	if r.OK2 {
		flags |= 2
	}
	if r.FailedOver {
		flags |= 4
	}
	rec = append(rec, flags)
	rec = binary.AppendUvarint(rec, uint64(len(r.Answers)))
	for _, a := range r.Answers {
		rec = appendAddr(rec, a)
	}
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(r.CNAME)))
	rec = binary.AppendUvarint(rec, uint64(r.TTL))
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(r.Radio)))
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(r.Outcome)))
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(r.Outcome2)))
	rec = binary.AppendUvarint(rec, uint64(r.Attempts))
	return rec
}

//lint:hotpath
func (enc *binEncoder) appendDiscovery(rec []byte, d *Discovery) []byte {
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(string(d.Kind))))
	rec = appendAddr(rec, d.Queried)
	rec = appendAddr(rec, d.External)
	var flags byte
	if d.OK {
		flags |= 1
	}
	rec = append(rec, flags)
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(d.Outcome)))
	return rec
}

//lint:hotpath
func (enc *binEncoder) appendResolverProbe(rec []byte, p *ResolverProbe) []byte {
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(string(p.Kind))))
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(p.Which)))
	rec = appendAddr(rec, p.Target)
	rec = binary.AppendUvarint(rec, zigzag(int64(p.RTT)))
	var flags byte
	if p.OK {
		flags |= 1
	}
	rec = append(rec, flags)
	return rec
}

//lint:hotpath
func (enc *binEncoder) appendReplicaProbe(rec []byte, p *ReplicaProbe) []byte {
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(p.Domain)))
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(string(p.Kind))))
	rec = appendAddr(rec, p.Replica)
	rec = binary.AppendUvarint(rec, zigzag(int64(p.PingRTT)))
	rec = binary.AppendUvarint(rec, zigzag(int64(p.TTFB)))
	var flags byte
	if p.PingOK {
		flags |= 1
	}
	if p.HTTPOK {
		flags |= 2
	}
	rec = append(rec, flags)
	return rec
}

// slab hands out never-before-used, zeroed []T windows of chunks it
// allocates as decoding proceeds: one allocation serves many records. A
// window's capacity is its length, so appending to one reallocates instead
// of writing into the next record's window.
type slab[T any] struct{ free []T }

// slabChunkBytes sizes a slab chunk. A record the paper's script produces
// decodes to ~13 KB, most of it in two of the five slabs, so a chunk
// serves a dozen records and loses ~4 % to the tail too short for the next
// one; whoever keeps one decoded record keeps the chunks it was carved
// from.
const slabChunkBytes = 64 << 10

// take returns a window of n elements, nil for none. A request of a chunk
// or more gets an allocation of its own: count() has already bounded n by
// what the record's remaining bytes can encode, and the open chunk stays
// open.
func (s *slab[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	if n > len(s.free) {
		var zero T
		chunk := slabChunkBytes / int(unsafe.Sizeof(zero))
		if n >= chunk {
			return make([]T, n)
		}
		s.free = make([]T, chunk)
	}
	w := s.free[:n:n]
	s.free = s.free[n:]
	return w
}

// experimentChunk is how many Experiments are allocated together. The
// open chunk is reachable from the decoder, and with it every record
// already decoded into it and everything those records point to; a small
// chunk is what lets the collector have a record soon after its consumer
// drops it.
const experimentChunk = 16

// decodeSlabs is the memory decoded records are carved from: Experiments
// a few at a time, their slices from one slab per element type. Chunks are
// made on demand and never sized from a segment header, so a header's
// record count cannot demand an allocation.
type decodeSlabs struct {
	experiments    []Experiment
	resolutions    slab[Resolution]
	discoveries    slab[Discovery]
	resolverProbes slab[ResolverProbe]
	replicaProbes  slab[ReplicaProbe]
	addrs          slab[netip.Addr]
}

// binDecoder decodes the record bytes of one segment. The hot-path
// methods never allocate: strings come interned from the segment table
// and every slice of a record is a window of mem.
type binDecoder struct {
	buf      []byte
	pos      int
	end      int // where the record being decoded stops; count() bounds collections by it
	tbl      []string
	mem      *decodeSlabs
	prevSeq  int64
	prevTime int64
	bad      bool
}

//lint:hotpath
func (d *binDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.pos += n
	return v
}

//lint:hotpath
func (d *binDecoder) varint() int64 { return unzigzag(d.uvarint()) }

// count decodes the length of a collection whose elements encode to at
// least minBytes each and bounds it by what is left of the record: a
// larger count is corrupt, and is refused before anything is sized from
// it. The uint64 comparison also rejects counts that would overflow int,
// which would otherwise turn into negative slice bounds downstream.
//
//lint:hotpath
func (d *binDecoder) count(minBytes int) int {
	n := d.uvarint()
	if d.bad || d.pos > d.end || n > uint64(d.end-d.pos)/uint64(minBytes) {
		d.bad = true
		return 0
	}
	return int(n)
}

//lint:hotpath
func (d *binDecoder) str() string {
	i := d.uvarint()
	if i >= uint64(len(d.tbl)) {
		d.bad = true
		return ""
	}
	return d.tbl[i]
}

//lint:hotpath
func (d *binDecoder) byte() byte {
	if d.pos >= len(d.buf) {
		d.bad = true
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

//lint:hotpath
func (d *binDecoder) float64() float64 {
	if d.pos+8 > len(d.buf) {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return math.Float64frombits(v)
}

//lint:hotpath
func (d *binDecoder) addr() netip.Addr {
	n := int(d.byte())
	var a netip.Addr
	switch n {
	case 0:
		return a
	case 4:
		if d.pos+4 > len(d.buf) {
			d.bad = true
			return a
		}
		var b4 [4]byte
		copy(b4[:], d.buf[d.pos:])
		d.pos += 4
		return netip.AddrFrom4(b4)
	case 16:
		if d.pos+16 > len(d.buf) {
			d.bad = true
			return a
		}
		var b16 [16]byte
		copy(b16[:], d.buf[d.pos:])
		d.pos += 16
		return netip.AddrFrom16(b16)
	default:
		d.bad = true
		return a
	}
}

// addrs decodes n addresses.
//
//lint:hotpath
func (d *binDecoder) addrs(n int) []netip.Addr {
	dst := d.mem.addrs.take(n)
	for i := 0; i < n && !d.bad; i++ {
		dst[i] = d.addr()
	}
	return dst
}

// decodeExperiment decodes one length-prefixed record into the zero
// Experiment e. It reports false on corrupt input.
//
//lint:hotpath
func (d *binDecoder) decodeExperiment(e *Experiment) bool {
	bodyLen := d.uvarint()
	if d.bad || bodyLen > uint64(len(d.buf)-d.pos) {
		d.bad = true
		return false
	}
	d.end = d.pos + int(bodyLen)

	e.Seq = int(d.prevSeq + d.varint())
	d.prevSeq = int64(e.Seq)
	sec := d.prevTime + d.varint()
	d.prevTime = sec
	e.Time = time.Unix(sec, int64(d.uvarint())).UTC()
	e.ClientID = d.str()
	e.Carrier = d.str()
	e.Country = d.str()
	e.Radio = d.str()
	e.Lat = d.float64()
	e.Lon = d.float64()
	e.NATAddr = d.addr()
	e.Configured = d.addr()
	flags := d.byte()
	e.TraceFailed = flags&1 != 0
	e.Failed = flags&2 != 0
	e.FailReason = d.str()

	n := d.count(minResolutionBytes)
	if d.bad {
		return false
	}
	e.Resolutions = d.mem.resolutions.take(n)
	for i := 0; i < n && !d.bad; i++ {
		d.decodeResolution(&e.Resolutions[i])
	}
	n = d.count(minDiscoveryBytes)
	if d.bad {
		return false
	}
	e.Discoveries = d.mem.discoveries.take(n)
	for i := 0; i < n && !d.bad; i++ {
		d.decodeDiscovery(&e.Discoveries[i])
	}
	n = d.count(minResolverProbeBytes)
	if d.bad {
		return false
	}
	e.ResolverProbes = d.mem.resolverProbes.take(n)
	for i := 0; i < n && !d.bad; i++ {
		d.decodeResolverProbe(&e.ResolverProbes[i])
	}
	n = d.count(minReplicaProbeBytes)
	if d.bad {
		return false
	}
	e.ReplicaProbes = d.mem.replicaProbes.take(n)
	for i := 0; i < n && !d.bad; i++ {
		d.decodeReplicaProbe(&e.ReplicaProbes[i])
	}
	n = d.count(minAddrBytes)
	if d.bad {
		return false
	}
	e.EgressTrace = d.addrs(n)

	if d.bad || d.pos != d.end {
		d.bad = true
		return false
	}
	return true
}

//lint:hotpath
func (d *binDecoder) decodeResolution(r *Resolution) {
	r.Domain = d.str()
	r.Kind = ResolverKind(d.str())
	r.Server = d.addr()
	r.RTT1 = time.Duration(d.varint())
	r.RTT2 = time.Duration(d.varint())
	r.Cost = time.Duration(d.varint())
	flags := d.byte()
	r.OK = flags&1 != 0
	r.OK2 = flags&2 != 0
	r.FailedOver = flags&4 != 0
	n := d.count(minAddrBytes)
	if d.bad {
		return
	}
	r.Answers = d.addrs(n)
	r.CNAME = d.str()
	r.TTL = uint32(d.uvarint())
	r.Radio = d.str()
	r.Outcome = d.str()
	r.Outcome2 = d.str()
	r.Attempts = int(d.uvarint())
}

//lint:hotpath
func (d *binDecoder) decodeDiscovery(dc *Discovery) {
	dc.Kind = ResolverKind(d.str())
	dc.Queried = d.addr()
	dc.External = d.addr()
	dc.OK = d.byte()&1 != 0
	dc.Outcome = d.str()
}

//lint:hotpath
func (d *binDecoder) decodeResolverProbe(p *ResolverProbe) {
	p.Kind = ResolverKind(d.str())
	p.Which = d.str()
	p.Target = d.addr()
	p.RTT = time.Duration(d.varint())
	p.OK = d.byte()&1 != 0
}

//lint:hotpath
func (d *binDecoder) decodeReplicaProbe(p *ReplicaProbe) {
	p.Domain = d.str()
	p.Kind = ResolverKind(d.str())
	p.Replica = d.addr()
	p.PingRTT = time.Duration(d.varint())
	p.TTFB = time.Duration(d.varint())
	flags := d.byte()
	p.PingOK = flags&1 != 0
	p.HTTPOK = flags&2 != 0
}

// BinaryWriter streams experiments as a curtainbin file: records
// accumulate into the open segment, which is cut at SegmentRecords
// appends or on Flush. The writer never buffers more than one segment.
type BinaryWriter struct {
	w io.Writer
	// Compress flate-compresses each segment payload (default on via
	// NewBinaryWriter).
	Compress bool
	// SegmentRecords is the automatic segment cut cadence.
	SegmentRecords int

	enc           *binEncoder
	headerWritten bool
	scratch       []byte       // the open segment's raw payload
	comp          bytes.Buffer // its deflated form
	hdr           []byte       // its header
	fw            *flate.Writer
	written       int64
}

// NewBinaryWriter returns a writer that emits the file magic before its
// first segment.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{w: w, Compress: true, SegmentRecords: DefaultSegmentRecords, enc: newBinEncoder()}
}

// NewBinaryAppender returns a writer that extends an existing curtainbin
// stream: no file magic is emitted (it is already on disk).
func NewBinaryAppender(w io.Writer) *BinaryWriter {
	bw := NewBinaryWriter(w)
	bw.headerWritten = true
	return bw
}

// Append encodes one experiment into the open segment.
func (b *BinaryWriter) Append(e *Experiment) error {
	b.enc.appendExperiment(e)
	if b.enc.count >= b.SegmentRecords {
		return b.Flush()
	}
	return nil
}

// BytesWritten reports how many bytes reached the underlying writer.
func (b *BinaryWriter) BytesWritten() int64 { return b.written }

// Flush cuts the open segment (writing the file magic first if needed)
// and resets the encoder. Flushing with no pending records writes the
// magic alone, so a fresh file is identifiable even before data arrives.
func (b *BinaryWriter) Flush() error {
	if !b.headerWritten {
		n, err := b.w.Write(binMagic[:])
		b.written += int64(n)
		if err != nil {
			return fmt.Errorf("dataset: curtainbin header: %w", err)
		}
		b.headerWritten = true
	}
	if b.enc.count == 0 {
		return nil
	}
	payload := b.scratch[:0]
	payload = binary.AppendUvarint(payload, uint64(len(b.enc.tbl.strs)))
	for _, s := range b.enc.tbl.strs {
		payload = binary.AppendUvarint(payload, uint64(len(s)))
		payload = append(payload, s...)
	}
	payload = append(payload, b.enc.buf...)
	b.scratch = payload

	stored := payload
	var flags byte
	if b.Compress {
		b.comp.Reset()
		if b.fw == nil {
			fw, err := flate.NewWriter(&b.comp, flate.BestSpeed)
			if err != nil {
				return fmt.Errorf("dataset: curtainbin flate: %w", err)
			}
			b.fw = fw
		} else {
			b.fw.Reset(&b.comp)
		}
		if _, err := b.fw.Write(payload); err != nil {
			return fmt.Errorf("dataset: curtainbin compress: %w", err)
		}
		if err := b.fw.Close(); err != nil {
			return fmt.Errorf("dataset: curtainbin compress: %w", err)
		}
		stored = b.comp.Bytes()
		flags |= segFlagFlate
	}

	hdr := append(b.hdr[:0], segMagic[:]...)
	hdr = append(hdr, flags)
	hdr = binary.AppendUvarint(hdr, uint64(b.enc.count))
	hdr = binary.AppendUvarint(hdr, uint64(len(payload)))
	hdr = binary.AppendUvarint(hdr, uint64(len(stored)))
	b.hdr = hdr
	n, err := b.w.Write(hdr)
	b.written += int64(n)
	if err != nil {
		return fmt.Errorf("dataset: curtainbin segment header: %w", err)
	}
	n, err = b.w.Write(stored)
	b.written += int64(n)
	if err != nil {
		return fmt.Errorf("dataset: curtainbin segment payload: %w", err)
	}
	b.enc.reset()
	return nil
}

// segHeader is a decoded segment header: the flags byte, the record
// count, and the payload's raw (inflated) and stored (on-the-wire) sizes.
type segHeader struct {
	flags                    byte
	count, rawLen, storedLen uint64
}

// maxSegHeader is the longest encodable segment header: magic, flags and
// three uvarints.
const maxSegHeader = len(segMagic) + 1 + 3*binary.MaxVarintLen64

// parseSegHeader decodes the segment header at the front of b and returns
// its encoded length. It is the only header parser: the stream scanner
// and, through walkStream, the slice decoder and Checkpoint.AppendSegment
// all go through it. A b that ends before the header does is errTorn — a
// torn tail to the callers that tolerate one.
func parseSegHeader(b []byte) (segHeader, int, error) {
	var h segHeader
	if len(b) <= len(segMagic) {
		return h, 0, errTorn
	}
	if !bytes.Equal(b[:len(segMagic)], segMagic[:]) {
		return h, 0, fmt.Errorf("dataset: curtainbin: bad segment magic %02x%02x%02x%02x", b[0], b[1], b[2], b[3])
	}
	h.flags = b[len(segMagic)]
	if h.flags&^segFlagFlate != 0 {
		// A flag this reader does not know may change what the payload
		// means; reading on would misread it silently.
		return h, 0, fmt.Errorf("dataset: curtainbin: unknown segment flags %#02x", h.flags)
	}
	pos := len(segMagic) + 1
	for _, field := range []*uint64{&h.count, &h.rawLen, &h.storedLen} {
		v, n := binary.Uvarint(b[pos:])
		if n == 0 {
			return h, 0, errTorn
		}
		if n < 0 {
			return h, 0, fmt.Errorf("dataset: curtainbin: segment header varint overflows 64 bits")
		}
		*field = v
		pos += n
	}
	if h.rawLen > maxSegmentPayload || h.storedLen > maxSegmentPayload {
		return h, 0, fmt.Errorf("dataset: curtainbin: segment payload %d/%d exceeds limit", h.rawLen, h.storedLen)
	}
	return h, pos, nil
}

// walkStream calls fn with the header and stored payload (a sub-slice of
// b, not a copy) of each segment of b, which must be exactly one complete
// curtainbin stream: the magic, then segments that tile b to its last
// byte. Each header is checked against the bytes actually behind it before
// fn — or anything sized from it — sees it.
func walkStream(b []byte, fn func(h segHeader, stored []byte) error) error {
	if !bytes.HasPrefix(b, binMagic[:]) {
		return fmt.Errorf("dataset: not a curtainbin stream (%d bytes)", len(b))
	}
	for pos := len(binMagic); pos < len(b); {
		h, n, err := parseSegHeader(b[pos:])
		if err == nil && h.storedLen > uint64(len(b)-pos-n) {
			err = errTorn
		}
		if err == errTorn {
			return fmt.Errorf("dataset: curtainbin: truncated segment at byte %d", pos)
		}
		if err != nil {
			return err
		}
		end := pos + n + int(h.storedLen)
		if err := fn(h, b[pos+n:end]); err != nil {
			return err
		}
		pos = end
	}
	return nil
}

// maxInflateRatio bounds what deflate can expand one stored byte to: a
// 258-byte match costs at least two bits. A header declaring more raw
// bytes than that is corrupt, and is refused before the raw buffer is
// allocated.
const maxInflateRatio = 1032

// segDecoder decodes segment payloads. Its inflate buffer, flate reader
// and string-table backing array are reused from segment to segment (and,
// through segDecoders, from call to call); nothing it yields aliases them.
// What it yields is carved from mem, whose open chunks carry over the same
// way but are never handed out twice.
type segDecoder struct {
	rawB []byte
	strs []string
	src  bytes.Reader
	fr   io.ReadCloser
	mem  decodeSlabs
}

// segDecoders recycles decoder state across UnmarshalExperiments calls and
// file scans, so neither a lease-sized decode nor a scan pays for a fresh
// inflater and raw buffer.
var segDecoders = sync.Pool{New: func() any { return new(segDecoder) }}

// decode yields the records of the segment whose header is h and whose
// stored payload is stored (read, never retained). It is the one segment
// decoder: file scans run its two halves, inflate and records, on the
// bytes they read, slice decodes run it on a sub-slice of the caller's
// buffer.
func (s *segDecoder) decode(h segHeader, stored []byte, fn ScanFunc) error {
	raw, err := s.inflate(h, stored)
	if err != nil {
		return err
	}
	return s.records(h, raw, fn)
}

// inflate returns the raw payload of the segment: stored itself when the
// segment is not compressed, else stored inflated into s.rawB.
func (s *segDecoder) inflate(h segHeader, stored []byte) ([]byte, error) {
	if h.flags&segFlagFlate == 0 {
		if uint64(len(stored)) != h.rawLen {
			return nil, fmt.Errorf("dataset: curtainbin: segment declares %d raw bytes but stores %d", h.rawLen, len(stored))
		}
		return stored, nil
	}
	if h.rawLen > maxInflateRatio*(uint64(len(stored))+1) {
		return nil, fmt.Errorf("dataset: curtainbin: segment declares %d raw bytes, more than %d stored bytes can inflate to", h.rawLen, len(stored))
	}
	if uint64(cap(s.rawB)) < h.rawLen {
		s.rawB = make([]byte, h.rawLen)
	}
	raw := s.rawB[:h.rawLen]
	s.src.Reset(stored)
	defer s.src.Reset(nil) // a pooled decoder must not pin the caller's buffer
	if s.fr == nil {
		s.fr = flate.NewReader(&s.src)
	} else if err := s.fr.(flate.Resetter).Reset(&s.src, nil); err != nil {
		return nil, fmt.Errorf("dataset: curtainbin: flate reset: %w", err)
	}
	if _, err := io.ReadFull(s.fr, raw); err != nil {
		return nil, fmt.Errorf("dataset: curtainbin: decompress segment: %w", err)
	}
	// The stream must be exhausted: a payload inflating past rawLen would
	// otherwise be silently truncated, hiding the corruption from the
	// trailing-bytes check in records.
	if n, err := io.CopyN(io.Discard, s.fr, 1); n != 0 || err != io.EOF {
		return nil, fmt.Errorf("dataset: curtainbin: segment inflates past declared %d raw bytes", h.rawLen)
	}
	return raw, nil
}

// records yields the records of raw, the raw payload of the segment whose
// header is h.
func (s *segDecoder) records(h segHeader, raw []byte, fn ScanFunc) error {
	d := binDecoder{buf: raw, mem: &s.mem}
	nstr, n := binary.Uvarint(raw)
	if n <= 0 || nstr > h.rawLen {
		return fmt.Errorf("dataset: curtainbin: corrupt string table")
	}
	d.pos = n
	s.strs = s.strs[:0]
	for i := uint64(0); i < nstr; i++ {
		l := d.uvarint()
		if d.bad || l > uint64(len(d.buf)-d.pos) {
			return fmt.Errorf("dataset: curtainbin: corrupt string table")
		}
		s.strs = append(s.strs, string(d.buf[d.pos:d.pos+int(l)]))
		d.pos += int(l)
	}
	d.tbl = s.strs

	for i := uint64(0); i < h.count; i++ {
		if len(s.mem.experiments) == 0 {
			s.mem.experiments = make([]Experiment, experimentChunk)
		}
		e := &s.mem.experiments[0]
		s.mem.experiments = s.mem.experiments[1:]
		if !d.decodeExperiment(e) {
			return fmt.Errorf("dataset: curtainbin: corrupt record %d of segment: %w", i, errCorrupt)
		}
		if err := fn(e); err != nil {
			//lint:ignore errwrap the yield callback's error belongs to the caller unwrapped
			return err
		}
	}
	if d.pos != len(raw) {
		return fmt.Errorf("dataset: curtainbin: %d trailing payload bytes after %d records", len(raw)-d.pos, h.count)
	}
	return nil
}

// countReader tracks how many bytes a binary scan has consumed, so a
// torn trailing segment's size is known exactly for truncation.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// scanBinary streams every record of a curtainbin stream whose 8-byte
// magic has already been consumed from br (which must buffer cr). With
// tolerateTorn, an incomplete trailing segment is dropped and its byte
// count returned; otherwise it is an error. Corruption inside a
// complete segment is always an error.
func scanBinary(cr *countReader, br *bufio.Reader, tolerateTorn bool, fn ScanFunc) (int, error) {
	at, torn, err := scanSegments(cr, br, fn)
	switch {
	case err != errTorn:
		return 0, err
	case tolerateTorn:
		return torn, nil
	}
	return 0, fmt.Errorf("dataset: curtainbin: truncated segment at byte %d", at)
}

// storedBufs recycles the buffer a file scan reads stored payloads into.
var storedBufs = sync.Pool{New: func() any { return new([]byte) }}

// segSlot is a curtainbin scan's decoder token: a pooled segDecoder and
// the segment the reader last inflated into it.
type segSlot struct {
	dec *segDecoder
	h   segHeader
	raw []byte
}

func (s *segSlot) records(fn ScanFunc) error { return s.dec.records(s.h, s.raw, fn) }

// scanSegments streams the records of the segments br reads through the
// scan pipeline, decoding up to GOMAXPROCS segments at once. The reader
// inflates each segment into an idle pooled segDecoder; its one
// stored-payload buffer is spent once the segment is inflated. A stream
// that ends inside a segment returns errTorn with the segment's offset
// and the number of bytes read from it.
func scanSegments(cr *countReader, br *bufio.Reader, fn ScanFunc) (int64, int, error) {
	slots := make([]*segSlot, runtime.GOMAXPROCS(0))
	for i := range slots {
		slots[i] = &segSlot{dec: segDecoders.Get().(*segDecoder)}
	}
	stored := storedBufs.Get().(*[]byte)
	// consumed is the stream offset of the reader: bytes taken from the
	// underlying reader minus what still sits in the bufio buffer.
	consumed := func() int64 { return cr.n - int64(br.Buffered()) }
	var tornAt int64
	var torn int
	err := runPipeline(slots, func(p *pipeline[*segSlot]) error {
		for {
			s, ok := p.next()
			if !ok {
				return nil
			}
			segStart := consumed()
			h, st, err := readSegment(br, (*stored)[:0])
			*stored = st[:0]
			var raw []byte
			if err == nil {
				raw, err = s.dec.inflate(h, st)
			}
			if err != nil {
				p.release(s)
				if err == errTorn {
					tornAt, torn = segStart, int(consumed()-segStart)
				}
				if err == io.EOF {
					return nil
				}
				return err
			}
			if h.flags&segFlagFlate == 0 {
				// raw is the reader's buffer, which the next segment reuses.
				s.dec.rawB = append(s.dec.rawB[:0], raw...)
				raw = s.dec.rawB
			}
			s.h, s.raw = h, raw
			if !p.start(s) {
				return nil
			}
		}
	}, fn)
	for _, s := range slots {
		segDecoders.Put(s.dec)
	}
	storedBufs.Put(stored)
	return tornAt, torn, err
}

// readSegment reads the header and stored payload of the segment at the
// front of br, appending the payload to buf. It returns io.EOF at a clean
// end before any header byte. A stream that ends inside the segment is
// errTorn, with every byte up to the end consumed so the caller can size
// the torn tail.
func readSegment(br *bufio.Reader, buf []byte) (segHeader, []byte, error) {
	peek, err := br.Peek(maxSegHeader)
	if err != nil && err != io.EOF {
		return segHeader{}, buf, fmt.Errorf("dataset: read: %w", err)
	}
	if len(peek) == 0 {
		return segHeader{}, buf, io.EOF
	}
	h, n, err := parseSegHeader(peek)
	if err != nil {
		n = len(peek) // a torn header: the tail is all there is
	}
	if _, derr := br.Discard(n); derr != nil {
		return h, buf, fmt.Errorf("dataset: read: %w", derr)
	}
	if err != nil {
		//lint:ignore errwrap the caller matches errTorn bare; other header errors are already contextual
		return h, buf, err
	}
	// The payload is taken a buffer-full at a time, so what it costs grows
	// with the bytes that arrive, not with what the header declares: a
	// torn or hostile header cannot demand the allocation before the
	// stream proves it holds the payload.
	stored := buf
	for err == nil && uint64(len(stored)) < h.storedLen {
		var chunk []byte
		chunk, err = br.Peek(int(min(h.storedLen-uint64(len(stored)), uint64(br.Size()))))
		stored = append(stored, chunk...)
		_, _ = br.Discard(len(chunk)) // cannot fail: the bytes are buffered
	}
	if err == io.EOF {
		return h, stored, errTorn
	} else if err != nil {
		return h, stored, fmt.Errorf("dataset: read: %w", err)
	}
	return h, stored, nil
}

// marshalState is the reusable codec state behind MarshalExperiments: the
// encoder with its string table, the flate writer (over a megabyte of
// compressor state) and the scratch and output buffers.
type marshalState struct {
	out bytes.Buffer
	bw  *BinaryWriter
}

var marshalStates = sync.Pool{New: func() any {
	st := new(marshalState)
	st.bw = NewBinaryWriter(&st.out)
	return st
}}

// MarshalExperiments encodes experiments as one self-contained
// curtainbin stream (the control plane's segment payload). The returned
// slice is the caller's own; the codec state that built it is recycled.
func MarshalExperiments(es []*Experiment) ([]byte, error) {
	st := marshalStates.Get().(*marshalState)
	defer marshalStates.Put(st)
	// Start clean whatever the previous call left behind — a call that
	// failed mid-stream must not leak records into this one.
	st.out.Reset()
	st.bw.enc.reset()
	st.bw.headerWritten = false
	for i, e := range es {
		if e == nil {
			return nil, fmt.Errorf("dataset: marshal: experiment %d of %d is nil", i, len(es))
		}
		if err := st.bw.Append(e); err != nil {
			return nil, err
		}
	}
	if err := st.bw.Flush(); err != nil {
		return nil, err
	}
	return bytes.Clone(st.out.Bytes()), nil
}

// UnmarshalExperiments decodes a MarshalExperiments stream straight from
// b: stored payloads are inflated (or, uncompressed, decoded) in place,
// and b is not retained. It is strict — b must be exactly one curtainbin
// stream, with no torn or trailing bytes — and bounds every allocation by
// what b can actually hold, because the coordinator feeds it bytes a
// worker supplied.
func UnmarshalExperiments(b []byte) ([]*Experiment, error) {
	dec := segDecoders.Get().(*segDecoder)
	defer segDecoders.Put(dec)
	var es []*Experiment
	collect := func(e *Experiment) error {
		es = append(es, e)
		return nil
	}
	if err := walkStream(b, func(h segHeader, stored []byte) error {
		return dec.decode(h, stored, collect)
	}); err != nil {
		return nil, err
	}
	return es, nil
}
