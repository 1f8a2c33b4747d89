package dnswire

// Hot-path allocation proofs backing the //lint:hotpath annotations (see
// DESIGN.md §11). Each test pins a steady-state encode/decode path at zero
// allocations per operation with testing.AllocsPerRun, whose warm-up call
// lets grow-once buffers amortize away; Parse, which must build the
// message it returns, has a budget instead.
//
// The same loops measured (reused buffers; the reply is CNAME + 2×A):
//
//	                    first codec   map compression   inline table + shared names
//	appendName          5 allocs/op   0                 0
//	parseName           3 allocs/op   1 (the Name)      1
//	Message.Append      10 allocs/op  2 (map + growth)  0
//	Parse (reply)       -             11                8
//
// The first step was byte-wise label iteration, tail-slice compression
// keys, caller-owned decode buffers and the reusable Encoder; the second
// a compression table on the packer's stack and Names that a pointer-only
// name shares with the label it points to.

import (
	"net/netip"
	"testing"

	"cellcurtain/internal/raceflag"
)

func requireZeroAllocs(t *testing.T, what string, f func()) {
	t.Helper()
	if n := testing.AllocsPerRun(200, f); n != 0 {
		t.Errorf("%s: %.1f allocs/op, want 0", what, n)
	}
}

func TestHotPathAllocsAppendName(t *testing.T) {
	name := Name("www.cdn.example.com")
	buf := make([]byte, 0, 512)
	var cm compressionMap
	requireZeroAllocs(t, "appendName (reused buf+cm)", func() {
		cm.reset()
		out, err := appendName(buf[:0], name, &cm, 0)
		if err != nil {
			t.Fatal(err)
		}
		buf = out[:0]
	})
}

func TestHotPathAllocsDecodeName(t *testing.T) {
	wire, err := appendName(nil, "www.cdn.example.com", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 512)
	requireZeroAllocs(t, "decodeName (reused dst)", func() {
		out, _, err := decodeName(wire, 0, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
		dst = out[:0]
	})
}

func TestHotPathAllocsDecodeNameCompressed(t *testing.T) {
	// Pointer-chasing decode must stay alloc-free too: encode two names
	// sharing a tail so the second is a label plus a pointer.
	var cm compressionMap
	msg, err := appendName(nil, "a.example.com", &cm, 0)
	if err != nil {
		t.Fatal(err)
	}
	second := len(msg)
	msg, err = appendName(msg, "b.a.example.com", &cm, 0)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 512)
	requireZeroAllocs(t, "decodeName (compressed)", func() {
		out, _, err := decodeName(msg, second, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
		dst = out[:0]
	})
}

func TestHotPathAllocsEncodeMessage(t *testing.T) {
	q := NewQuery(4242, "www.cdn.example.com", TypeA)
	resp := q.Reply()
	resp.Answers = append(resp.Answers,
		Record{Name: "www.cdn.example.com", Class: ClassIN, TTL: 300,
			Data: CNAME{Target: "edge-7.cdn.example.com"}},
		Record{Name: "edge-7.cdn.example.com", Class: ClassIN, TTL: 60,
			Data: A{Addr: netip.MustParseAddr("192.0.2.7")}},
		Record{Name: "edge-7.cdn.example.com", Class: ClassIN, TTL: 60,
			Data: AAAA{Addr: netip.MustParseAddr("2001:db8::7")}},
	)
	var enc Encoder
	requireZeroAllocs(t, "Encoder.Encode (full reply)", func() {
		if _, err := enc.Encode(resp); err != nil {
			t.Fatal(err)
		}
	})
}

// cdnReply is the shape of every CDN answer in a campaign: the question,
// a CNAME into the provider's zone and two A records owned by its target.
func cdnReply() *Message {
	resp := NewQuery(4242, "m.facebook.com", TypeA).Reply()
	resp.Header.Authoritative = true
	resp.Answers = []Record{
		{Name: "m.facebook.com", Class: ClassIN, TTL: 30,
			Data: CNAME{Target: "m-facebook-com.edgecast.example.net"}},
		{Name: "m-facebook-com.edgecast.example.net", Class: ClassIN, TTL: 30,
			Data: A{Addr: netip.MustParseAddr("23.0.3.1")}},
		{Name: "m-facebook-com.edgecast.example.net", Class: ClassIN, TTL: 30,
			Data: A{Addr: netip.MustParseAddr("23.0.3.2")}},
	}
	return resp
}

// TestHotPathAllocsAppendMessage pins Append's compression table to the
// packer's stack: with map compression the same loop made 2 allocations.
func TestHotPathAllocsAppendMessage(t *testing.T) {
	resp := cdnReply()
	buf := make([]byte, 0, 512)
	requireZeroAllocs(t, "Message.Append (CNAME + 2×A into a reused buf)", func() {
		out, err := resp.Append(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = out[:0]
	})
}

// TestParseAllocBudget holds Parse of the CDN reply to the Message, its
// question and answer slices, two decoded names (the question and the
// CNAME target: the answers' owners are pointers that share them) and the
// three boxed RDATA. Without shared names it made 11.
func TestParseAllocBudget(t *testing.T) {
	pkt, err := cdnReply().Pack()
	if err != nil {
		t.Fatal(err)
	}
	const budget = 8
	n := testing.AllocsPerRun(200, func() {
		if _, err := Parse(pkt); err != nil {
			t.Fatal(err)
		}
	})
	if n > budget {
		t.Errorf("Parse (CNAME + 2×A reply): %.1f allocs/op, budget %d", n, budget)
	}
}

// TestEncoderMatchesAppend pins Encoder.Encode to the exact bytes of the
// allocating Append path, including compression pointers.
func TestEncoderMatchesAppend(t *testing.T) {
	q := NewQuery(7, "www.Example.COM", TypeA)
	resp := q.Reply()
	resp.Answers = append(resp.Answers,
		Record{Name: "www.example.com", Class: ClassIN, TTL: 30,
			Data: A{Addr: netip.MustParseAddr("192.0.2.1")}})
	want, err := resp.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var enc Encoder
	for i := 0; i < 3; i++ { // repeated use must not leak state between calls
		got, err := enc.Encode(resp)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("encode %d: Encoder bytes diverge from Append", i)
		}
	}
}

// TestCheckAllocBudget holds Check of the CDN reply to zero allocations:
// it walks every rule Parse applies and builds nothing.
func TestCheckAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets run without -race")
	}
	pkt, err := cdnReply().Pack()
	if err != nil {
		t.Fatal(err)
	}
	requireZeroAllocs(t, "Check (CNAME + 2×A reply)", func() {
		if err := Check(pkt); err != nil {
			t.Fatal(err)
		}
	})
}
