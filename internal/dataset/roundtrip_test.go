package dataset

import (
	"bytes"
	"fmt"
	"math"
	"net/netip"
	"testing"
	"time"

	"cellcurtain/internal/stats"
)

// recordGen draws random experiments from a seeded stream.
//
// Its domain is every field shape the two codecs promise to carry
// unchanged:
//   - times that are the zero time.Time or a UTC instant, to the
//     nanosecond, in years 1–9999;
//   - addresses that are invalid, IPv4, IPv6 or IPv4-mapped IPv6;
//   - slices that are nil or non-empty;
//   - strings of valid UTF-8, drawn mostly from a small pool, so one
//     value recurs within a segment and across segment boundaries;
//   - finite floats of any bit pattern, and integers and durations over
//     their full range;
//   - failed experiments, shaped as measure.FailedExperiment shapes them,
//     and every flag in both states.
//
// It excludes what the codecs do not promise to keep:
//   - non-UTC locations: curtainbin stores the instant and decodes it in
//     UTC, while JSONL keeps the offset;
//   - years outside 0–9999, which encoding/json refuses to marshal;
//   - zoned IPv6 addresses: curtainbin stores the 16 bytes, not the zone;
//   - empty non-nil slices, which JSONL writes as [] and curtainbin
//     decodes as nil;
//   - invalid UTF-8, which encoding/json replaces with U+FFFD;
//   - NaN and ±Inf, which JSON cannot express.
type recordGen struct {
	r    *stats.RNG
	pool []string
}

func newRecordGen(seed uint64) *recordGen {
	return &recordGen{r: stats.NewRNG(seed), pool: []string{
		"", "local", "google", "opendns", "att", "sktelecom", "LTE", "ok", "timeout",
		"www.buzzfeed.com", "서울", "a\"b\\c\nd", "<&>", "\u2028", "\x00", "e\u0301",
	}}
}

func (g *recordGen) str() string {
	if g.r.Bool(0.8) {
		return g.pool[g.r.Intn(len(g.pool))]
	}
	runes := make([]rune, g.r.Intn(12))
	for i := range runes {
		switch g.r.Intn(3) {
		case 0:
			runes[i] = rune(g.r.Intn(0x80))
		case 1:
			runes[i] = rune(0x80 + g.r.Intn(0xD800-0x80))
		default:
			runes[i] = rune(0xE000 + g.r.Intn(0x110000-0xE000))
		}
	}
	s := string(runes)
	g.pool = append(g.pool, s) // a fresh value recurs later, often in another segment
	return s
}

func (g *recordGen) addr() netip.Addr {
	var b [16]byte
	for i := range b {
		b[i] = byte(g.r.Intn(256))
	}
	switch g.r.Intn(4) {
	case 0:
		return netip.Addr{}
	case 1:
		return netip.AddrFrom4([4]byte{b[0], b[1], b[2], b[3]})
	case 2:
		return netip.AddrFrom16(b)
	default:
		return netip.AddrFrom16(netip.AddrFrom4([4]byte{b[0], b[1], b[2], b[3]}).As16()) // ::ffff:a.b.c.d
	}
}

func (g *recordGen) addrs() []netip.Addr {
	n := g.len()
	if n == 0 {
		return nil
	}
	out := make([]netip.Addr, n)
	for i := range out {
		out[i] = g.addr()
	}
	return out
}

// len is a slice length: zero (the slice stays nil) or 1–4.
func (g *recordGen) len() int {
	if g.r.Bool(0.3) {
		return 0
	}
	return 1 + g.r.Intn(4)
}

func (g *recordGen) time() time.Time {
	if g.r.Bool(0.1) {
		return time.Time{}
	}
	return time.Date(1+g.r.Intn(9999), time.Month(1+g.r.Intn(12)), 1+g.r.Intn(28),
		g.r.Intn(24), g.r.Intn(60), g.r.Intn(60), g.r.Intn(1e9), time.UTC)
}

func (g *recordGen) float() float64 {
	for {
		if f := math.Float64frombits(g.r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

func (g *recordGen) int() int           { return int(g.r.Uint64()) }
func (g *recordGen) dur() time.Duration { return time.Duration(g.r.Uint64()) }
func (g *recordGen) flag() bool         { return g.r.Bool(0.5) }
func (g *recordGen) kind() ResolverKind { return ResolverKind(g.str()) }

// experiment draws one record; one in ten is a failed-experiment marker.
func (g *recordGen) experiment() *Experiment {
	e := &Experiment{
		Seq: g.int(), ClientID: g.str(), Carrier: g.str(), Country: g.str(),
		Time: g.time(), Lat: g.float(), Lon: g.float(), Radio: g.str(),
		NATAddr: g.addr(), Configured: g.addr(),
	}
	if g.r.Bool(0.1) {
		e.Failed, e.FailReason = true, g.str()
		return e
	}
	if n := g.len(); n > 0 {
		e.Resolutions = make([]Resolution, n)
		for i := range e.Resolutions {
			e.Resolutions[i] = Resolution{
				Domain: g.str(), Kind: g.kind(), Server: g.addr(),
				RTT1: g.dur(), RTT2: g.dur(), OK: g.flag(), OK2: g.flag(),
				Answers: g.addrs(), CNAME: g.str(), TTL: uint32(g.r.Uint64()), Radio: g.str(),
				Outcome: g.str(), Outcome2: g.str(), Attempts: g.int(), FailedOver: g.flag(), Cost: g.dur(),
			}
		}
	}
	if n := g.len(); n > 0 {
		e.Discoveries = make([]Discovery, n)
		for i := range e.Discoveries {
			e.Discoveries[i] = Discovery{Kind: g.kind(), Queried: g.addr(), External: g.addr(), OK: g.flag(), Outcome: g.str()}
		}
	}
	if n := g.len(); n > 0 {
		e.ResolverProbes = make([]ResolverProbe, n)
		for i := range e.ResolverProbes {
			e.ResolverProbes[i] = ResolverProbe{Kind: g.kind(), Which: g.str(), Target: g.addr(), RTT: g.dur(), OK: g.flag()}
		}
	}
	if n := g.len(); n > 0 {
		e.ReplicaProbes = make([]ReplicaProbe, n)
		for i := range e.ReplicaProbes {
			e.ReplicaProbes[i] = ReplicaProbe{
				Domain: g.str(), Kind: g.kind(), Replica: g.addr(),
				PingRTT: g.dur(), PingOK: g.flag(), TTFB: g.dur(), HTTPOK: g.flag(),
			}
		}
	}
	e.EgressTrace = g.addrs()
	e.TraceFailed = g.flag()
	return e
}

func jsonlOf(t *testing.T, es []*Experiment) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := (&Dataset{Experiments: es}).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// firstDiff names the first line at which two JSONL streams differ.
func firstDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n%s\n%s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("%d lines vs %d", len(al), len(bl))
}

// TestRandomExperimentsRoundTrip holds both codecs to random records
// (recordGen's domain): JSONL → curtainbin → JSONL is byte-identical at a
// random segment cadence and compression setting, and so is a
// MarshalExperiments/UnmarshalExperiments round trip, whose stream is
// itself re-marshalled byte for byte. Every fourth seed draws more than
// DefaultSegmentRecords records, so its marshalled stream holds two
// segments.
func TestRandomExperimentsRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		g := newRecordGen(seed)
		n := 200
		if seed%4 == 0 {
			n = DefaultSegmentRecords + 100
		}
		es := make([]*Experiment, n)
		for i := range es {
			es[i] = g.experiment()
		}
		want := jsonlOf(t, es)

		var bin bytes.Buffer
		bw := NewBinaryWriter(&bin)
		bw.SegmentRecords = 1 + g.r.Intn(64)
		bw.Compress = g.flag()
		if err := Scan(bytes.NewReader(want), bw.Append); err != nil {
			t.Fatalf("seed %d: scan JSONL: %v", seed, err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		var back []*Experiment
		if err := Scan(&bin, func(e *Experiment) error { back = append(back, e); return nil }); err != nil {
			t.Fatalf("seed %d: scan curtainbin: %v", seed, err)
		}
		if got := jsonlOf(t, back); !bytes.Equal(got, want) {
			t.Fatalf("seed %d (segments of %d, compress %v): JSONL -> curtainbin -> JSONL differs at %s",
				seed, bw.SegmentRecords, bw.Compress, firstDiff(got, want))
		}

		b, err := MarshalExperiments(es)
		if err != nil {
			t.Fatal(err)
		}
		un, err := UnmarshalExperiments(b)
		if err != nil {
			t.Fatalf("seed %d: unmarshal: %v", seed, err)
		}
		if got := jsonlOf(t, un); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: Marshal/UnmarshalExperiments differs at %s", seed, firstDiff(got, want))
		}
		if again, err := MarshalExperiments(un); err != nil || !bytes.Equal(again, b) {
			t.Fatalf("seed %d: re-marshalled stream differs (%d vs %d bytes, err %v)", seed, len(again), len(b), err)
		}
	}
}
