package dnswire

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"unsafe"
)

// requireSameParse fails unless d parses pkt into s exactly as Parse
// does: an equal message, or the same error. It returns d's.
func requireSameParse(t *testing.T, d *Decoder, s *Scratch, pkt []byte) (*Message, error) {
	t.Helper()
	want, werr := Parse(pkt)
	got, gerr := d.ParseInto(pkt, s)
	if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
		t.Fatalf("Decoder says %v, Parse says %v", gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Decoder parsed\n%s\nParse parsed\n%s", got, want)
	}
	return got, gerr
}

// TestDecoderSharesNothingMutable changes a message parsed into one
// Scratch in every way a caller can — an append to a section, a
// rewritten record, a resliced and refilled question, the slices inside
// TXT and OPT RDATA — and requires the rest of that message, every later
// parse into another Scratch of the same Decoder, and a later parse into
// the changed Scratch itself to be unaffected; the changed message keeps
// its changes until its Scratch is parsed into again.
func TestDecoderSharesNothingMutable(t *testing.T) {
	var d Decoder
	var held, other Scratch
	golden := goldenMessages(t)
	pkt := golden[2] // question, 3 answers, 2 authorities, 1 additional
	m, err := requireSameParse(t, &d, &held, pkt)
	if err != nil {
		t.Fatal(err)
	}
	auth := append([]Record(nil), m.Authorities...)

	m.Answers = append(m.Answers, Record{Name: "evil.example", Data: A{Addr: netip.MustParseAddr("10.6.6.6")}})
	if !reflect.DeepEqual(m.Authorities, auth) {
		t.Fatal("an append to Answers wrote over Authorities")
	}
	m.Authorities[0] = Record{Name: "evil.example", Data: CNAME{Target: "evil.example"}}
	m.Additionals[0].Data = A{Addr: netip.MustParseAddr("10.6.6.7")}
	m.Questions = append(m.Questions[:0], Question{Name: "evil.example", Type: TypeTXT})

	kept := Message{
		Header:      m.Header,
		Questions:   append([]Question(nil), m.Questions...),
		Answers:     append([]Record(nil), m.Answers...),
		Authorities: append([]Record(nil), m.Authorities...),
		Additionals: append([]Record(nil), m.Additionals...),
	}
	// The slices inside TXT and OPT RDATA are the caller's too.
	txt, _ := requireSameParse(t, &d, &other, golden[3])
	txt.Answers[1].Data.(TXT).Strings[0] = "evil"
	opt, _ := requireSameParse(t, &d, &other, golden[4])
	opt.Additionals[0].Data.(OPT).Options[0].Data[0] = 0xEE

	for _, later := range append([][]byte{pkt, pkt}, golden...) {
		requireSameParse(t, &d, &other, later)
	}
	if !reflect.DeepEqual(*m, kept) {
		t.Fatalf("a parse into another Scratch changed a held message:\n%s\nwant\n%s", m, &kept)
	}
	for _, later := range append([][]byte{pkt, pkt}, golden...) {
		requireSameParse(t, &d, &held, later)
	}
}

// TestDecoderUnderChurn runs a Decoder through 10⁴ messages of distinct
// names and addresses, and through names, addresses and targets that
// share a slot, and requires every parse to equal Parse's while the
// Decoder stays a fixed-size value: arrays only, at most 16 KB, whose
// names hold at most one name's bytes per slot.
func TestDecoderUnderChurn(t *testing.T) {
	var d Decoder
	var s Scratch
	rt := reflect.TypeOf(d)
	for i := range rt.NumField() {
		if rt.Field(i).Type.Kind() != reflect.Array {
			t.Fatalf("Decoder.%s is a %s: only fixed arrays keep it from growing", rt.Field(i).Name, rt.Field(i).Type.Kind())
		}
	}
	if size := unsafe.Sizeof(d); size > 16<<10 {
		t.Fatalf("a Decoder is %d bytes, more than 16 KB", size)
	}

	reply := func(owner, target Name, typ Type, v4 [4]byte, v6 [16]byte) []byte {
		m := NewQuery(1, owner, TypeA).Reply()
		m.Answers = []Record{
			{Name: owner, Class: ClassIN, TTL: 30, Data: boxTarget(typ, target)},
			{Name: target, Class: ClassIN, TTL: 30, Data: A{Addr: netip.AddrFrom4(v4)}},
			{Name: target, Class: ClassIN, TTL: 30, Data: AAAA{Addr: netip.MustParseAddr("2001:db8::1")}},
		}
		pkt, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		// The AAAA's RDATA ends the message; Pack refuses a v4-mapped one.
		copy(pkt[len(pkt)-16:], v6[:])
		return pkt
	}
	types := []Type{TypeCNAME, TypeNS, TypePTR}
	for i := range 10000 {
		var v6 [16]byte
		v6[0], v6[14], v6[15] = 0x20, byte(i>>8), byte(i)
		owner := Name(fmt.Sprintf("host-%d.Example.com", i))
		pkt := reply(owner, Name(fmt.Sprintf("edge-%d.cdn.example.net", i%997)), types[i%3],
			[4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}, v6)
		requireSameParse(t, &d, &s, pkt)
	}

	// Same length, same first and last eight bytes: one name slot. The
	// v4-mapped AAAA shares the A's address slot; the three target types
	// of one name differ only in type.
	collide := []Name{"abcdefgh.one.stuvwxyz", "abcdefgh.two.stuvwxyz", "ABCDEFGH.one.stuvwxyz"}
	if nameSlot(collide[0]) != nameSlot(collide[1]) {
		t.Fatal("the colliding names do not share a slot")
	}
	v4 := [4]byte{192, 0, 2, 1}
	mapped := netip.AddrFrom4(v4).As16()
	for i := range 300 {
		owner, target := collide[i%3], collide[(i+1)%3]
		requireSameParse(t, &d, &s, reply(owner, target, types[i%3], v4, mapped))
		requireSameParse(t, &d, &s, reply(target, owner, types[(i+1)%3], v4, mapped))
	}
	retained := 0
	for _, n := range d.names {
		retained += len(n)
	}
	if retained > decoderSlots*maxNameWire {
		t.Fatalf("the name table holds %d bytes", retained)
	}
}
