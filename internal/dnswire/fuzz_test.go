package dnswire

import (
	"encoding/binary"
	"net/netip"
	"testing"
)

// goldenMessages builds the seed corpus: one message per wire feature the
// codec supports (each rdata type, EDNS, compression-heavy responses).
func goldenMessages(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	add := func(m *Message) {
		pkt, err := m.Pack()
		if err != nil {
			tb.Fatalf("seed pack: %v", err)
		}
		out = append(out, pkt)
	}

	add(NewQuery(1, "www.example.com", TypeA))
	add(NewQuery(2, "example.com", TypeTXT))

	resp := NewQuery(3, "cdn.example.net", TypeA).Reply()
	resp.Header.Authoritative = true
	resp.Answers = []Record{
		{Name: "cdn.example.net", Class: ClassIN, TTL: 30,
			Data: CNAME{Target: "edge.provider.example"}},
		{Name: "edge.provider.example", Class: ClassIN, TTL: 30,
			Data: A{Addr: netip.MustParseAddr("192.0.2.7")}},
		{Name: "edge.provider.example", Class: ClassIN, TTL: 30,
			Data: AAAA{Addr: netip.MustParseAddr("2001:db8::7")}},
	}
	resp.Authorities = []Record{
		{Name: "provider.example", Class: ClassIN, TTL: 3600,
			Data: NS{Host: "ns1.provider.example"}},
		{Name: "provider.example", Class: ClassIN, TTL: 3600,
			Data: SOA{MName: "ns1.provider.example", RName: "hostmaster.provider.example",
				Serial: 2014030101, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 60}},
	}
	resp.Additionals = []Record{
		{Name: "ns1.provider.example", Class: ClassIN, TTL: 3600,
			Data: A{Addr: netip.MustParseAddr("192.0.2.53")}},
	}
	add(resp)

	mx := NewQuery(4, "example.org", TypeMX).Reply()
	mx.Answers = []Record{
		{Name: "example.org", Class: ClassIN, TTL: 300,
			Data: MX{Preference: 10, Host: "mail.example.org"}},
		{Name: "example.org", Class: ClassIN, TTL: 300,
			Data: TXT{Strings: []string{"v=spf1 -all", "second string"}}},
		{Name: "example.org", Class: ClassIN, TTL: 300,
			Data: PTR{Target: "alias.example.org"}},
	}
	add(mx)

	edns := NewQuery(5, "subnet.example.com", TypeA)
	edns.Additionals = []Record{{Name: "", Class: ClassIN,
		Data: OPT{UDPSize: 4096, Options: []EDNSOption{
			{Code: OptionClientSubnet, Data: []byte{0, 1, 24, 0, 192, 0, 2}},
		}}}}
	add(edns)

	raw := NewQuery(6, "unknown.example", Type(0xFF00)).Reply()
	raw.Answers = []Record{{Name: "unknown.example", Class: ClassIN, TTL: 60,
		Data: RawRData{T: Type(0xFF00), Data: []byte{0xDE, 0xAD, 0xBE, 0xEF}}}}
	add(raw)

	// The answer's owner packs as a pointer to "example" in the middle of
	// the question's name: Parse shares that label's suffix.
	mid := NewQuery(7, "www.example.com", TypeA).Reply()
	mid.Answers = []Record{{Name: "example.com", Class: ClassIN, TTL: 60,
		Data: A{Addr: netip.MustParseAddr("192.0.2.8")}}}
	add(mid)

	return out
}

// optTrailing is an EDNS query whose OPT RDLENGTH runs extra bytes past
// its one option. Parse used to accept it and re-pack it shorter; now the
// options must tile the RDATA.
func optTrailing(tb testing.TB, extra int) []byte {
	tb.Helper()
	q := NewQuery(8, "subnet.example.com", TypeA)
	opt := EDNSOption{Code: OptionClientSubnet, Data: []byte{0, 1, 24, 0, 192, 0, 2}}
	q.Additionals = []Record{{Class: ClassIN, Data: OPT{UDPSize: 4096, Options: []EDNSOption{opt}}}}
	pkt, err := q.Pack()
	if err != nil {
		tb.Fatal(err)
	}
	rdlen := 4 + len(opt.Data)
	binary.BigEndian.PutUint16(pkt[len(pkt)-rdlen-2:], uint16(rdlen+extra))
	return append(pkt, make([]byte, extra)...)
}

// deepPointers is a message of 65 questions. Question 0 is "a" and each
// of the next 62 is a pointer to the one before, so question 62 takes 62
// jumps. Question 63 is "b" plus a pointer to it: 63 jumps, the most
// decodeName allows. Question 64 points at that "b": 64 jumps, which
// Parse must refuse although the label is in its shared-name table.
func deepPointers() []byte {
	msg := []byte{0, 9, 0, 0, 0, 65, 0, 0, 0, 0, 0, 0}
	prev := len(msg)
	msg = append(msg, 1, 'a', 0, 0, 1, 0, 1)
	for k := 1; k <= 62; k++ {
		at := len(msg)
		msg = append(msg, 0xC0|byte(prev>>8), byte(prev), 0, 1, 0, 1)
		prev = at
	}
	b := len(msg)
	msg = append(msg, 1, 'b', 0xC0|byte(prev>>8), byte(prev), 0, 1, 0, 1)
	return append(msg, 0xC0|byte(b>>8), byte(b), 0, 1, 0, 1)
}

// badAdditional is a reply whose question, answer and authority sections
// parse but whose one additional record is an A with 3 bytes of RDATA:
// Parse gets through every earlier section before it refuses.
func badAdditional(tb testing.TB) []byte {
	tb.Helper()
	r := NewQuery(9, "cdn.example.net", TypeA).Reply()
	r.Answers = []Record{{Name: "cdn.example.net", Class: ClassIN, TTL: 30,
		Data: A{Addr: netip.MustParseAddr("192.0.2.9")}}}
	r.Authorities = []Record{{Name: "example.net", Class: ClassIN, TTL: 3600,
		Data: NS{Host: "ns1.example.net"}}}
	r.Additionals = []Record{{Name: "ns1.example.net", Class: ClassIN, TTL: 3600,
		Data: RawRData{T: TypeA, Data: []byte{192, 0, 2}}}}
	pkt, err := r.Pack()
	if err != nil {
		tb.Fatal(err)
	}
	return pkt
}

// optOverrun is an EDNS query whose OPT RDATA ends in an option header
// that announces 9 bytes of data but carries 2.
func optOverrun(tb testing.TB) []byte {
	tb.Helper()
	pkt := optTrailing(tb, 6)
	copy(pkt[len(pkt)-6:], []byte{0, 8, 0, 9, 1, 2})
	return pkt
}

// malformedMessages are seeds Parse must refuse.
func malformedMessages(tb testing.TB) [][]byte {
	return [][]byte{optTrailing(tb, 2), deepPointers(), badAdditional(tb), optOverrun(tb)}
}

// parseName is a fresh decode of the name at off, with no table and no
// sharing: the reference every name a parse returns is held to.
func parseName(msg []byte, off int) (Name, int, error) {
	b, end, err := decodeName(msg, off, nil)
	if err != nil {
		return "", 0, err
	}
	return Name(b), end, nil
}

// nameOffsets walks a message Parse accepted and returns the wire offset
// of each name in messageNames order: question names, then per record
// its owner and the names in its RDATA.
func nameOffsets(tb testing.TB, msg []byte) []int {
	tb.Helper()
	skip := func(off int) int {
		_, end, err := parseName(msg, off)
		if err != nil {
			tb.Fatalf("walker: name at %d: %v", off, err)
		}
		return end
	}
	var offs []int
	off := headerLen
	for i := 0; i < int(binary.BigEndian.Uint16(msg[4:])); i++ {
		offs = append(offs, off)
		off = skip(off) + 4
	}
	records := 0
	for s := 6; s < headerLen; s += 2 {
		records += int(binary.BigEndian.Uint16(msg[s:]))
	}
	for i := 0; i < records; i++ {
		offs = append(offs, off)
		off = skip(off)
		rd := off + 10
		switch Type(binary.BigEndian.Uint16(msg[off:])) {
		case TypeCNAME, TypeNS, TypePTR:
			offs = append(offs, rd)
		case TypeMX:
			offs = append(offs, rd+2)
		case TypeSOA:
			offs = append(offs, rd, skip(rd))
		}
		off = rd + int(binary.BigEndian.Uint16(msg[off+8:]))
	}
	return offs
}

// messageNames lists every name of m in wire order.
func messageNames(m *Message) []Name {
	var out []Name
	for _, q := range m.Questions {
		out = append(out, q.Name)
	}
	for _, sec := range [][]Record{m.Answers, m.Authorities, m.Additionals} {
		for _, rr := range sec {
			out = append(out, rr.Name)
			switch d := rr.Data.(type) {
			case CNAME:
				out = append(out, d.Target)
			case NS:
				out = append(out, d.Host)
			case PTR:
				out = append(out, d.Target)
			case MX:
				out = append(out, d.Host)
			case SOA:
				out = append(out, d.MName, d.RName)
			}
		}
	}
	return out
}

// FuzzParseMessage asserts the parse/pack round-trip property: any input
// Parse accepts must Pack without error, and the packed form must parse
// again. Parse must never panic, whatever the input. Every Name Parse
// returns must also be what a fresh parseName decodes at its wire offset,
// which holds the names Parse shares to the suffix they stand for. Check
// must accept exactly what Parse accepts, and refuse the rest with the
// same error. One Decoder and one Scratch, kept across every input
// (accepted or refused), must parse each input to a message
// reflect.DeepEqual to Parse's, or to the same error.
func FuzzParseMessage(f *testing.F) {
	for _, pkt := range goldenMessages(f) {
		f.Add(pkt)
	}
	for _, pkt := range malformedMessages(f) {
		f.Add(pkt)
	}
	f.Add([]byte{})                   // short header
	f.Add(make([]byte, headerLen))    // empty message
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, // qd=1 but no question bytes
		0, 0, 0, 0, 0})
	var dec Decoder
	var scratch Scratch
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := requireSameParse(t, &dec, &scratch, data)
		if cerr := Check(data); (cerr == nil) != (err == nil) || cerr != nil && cerr.Error() != err.Error() {
			t.Fatalf("Check says %v, Parse says %v", cerr, err)
		}
		if err != nil {
			return // rejected input: fine, as long as we didn't panic
		}
		names, offs := messageNames(m), nameOffsets(t, data)
		if len(names) != len(offs) {
			t.Fatalf("%d names, walker found %d", len(names), len(offs))
		}
		for i, off := range offs {
			if want, _, _ := parseName(data, off); names[i] != want {
				t.Fatalf("name %d at offset %d is %q, a fresh decode gives %q", i, off, names[i], want)
			}
		}
		pkt, err := m.Pack()
		if err != nil {
			t.Fatalf("accepted message failed to re-pack: %v\n%s", err, m)
		}
		if _, err := Parse(pkt); err != nil {
			t.Fatalf("re-packed message failed to parse: %v\n%s", err, m)
		}
	})
}

// FuzzDecodeName asserts parseName's contract: no panics; on success the
// returned end offset lands inside (0, len(data)], and the name re-encodes
// through appendName into at most 255 wire octets.
func FuzzDecodeName(f *testing.F) {
	seed := func(n Name) []byte {
		buf, err := appendName(nil, n, nil, 0)
		if err != nil {
			f.Fatalf("seed %q: %v", n, err)
		}
		return buf
	}
	f.Add(seed(""))
	f.Add(seed("www.example.com"))
	f.Add(seed("a.very.deep.chain.of.labels.example"))
	// Compressed: "www.example.com" then a pointer to "example.com" at 4.
	comp := seed("www.example.com")
	f.Add(append(comp, 0xC0, 0x04))
	f.Add([]byte{0xC0, 0x00}) // self-pointer (must be rejected)
	f.Add([]byte{63})         // truncated label
	f.Add([]byte{1, '.', 0})  // dot inside a label (must be rejected)
	f.Fuzz(func(t *testing.T, data []byte) {
		n, end, err := parseName(data, 0)
		if err != nil {
			return
		}
		if end <= 0 || end > len(data) {
			t.Fatalf("parseName end offset %d outside (0, %d]", end, len(data))
		}
		wire, err := appendName(nil, n, nil, 0)
		if err != nil {
			t.Fatalf("parsed name %q does not re-encode: %v", n, err)
		}
		if len(wire) > maxNameWire {
			t.Fatalf("parsed name %q re-encodes to %d octets (max %d)", n, len(wire), maxNameWire)
		}
	})
}
