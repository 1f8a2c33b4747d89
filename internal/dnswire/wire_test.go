package dnswire

import (
	"bytes"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustPack(t *testing.T, m *Message) []byte {
	t.Helper()
	b, err := m.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	return b
}

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	b := mustPack(t, m)
	got, err := Parse(b)
	if err != nil {
		t.Fatalf("Parse: %v\nwire: % x", err, b)
	}
	return got
}

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0x1234, "www.example.com", TypeA)
	got := roundTrip(t, q)
	if got.Header.ID != 0x1234 || got.Header.Response || !got.Header.RecursionDesired {
		t.Fatalf("header mismatch: %+v", got.Header)
	}
	if len(got.Questions) != 1 {
		t.Fatalf("got %d questions", len(got.Questions))
	}
	if got.Questions[0].Name != "www.example.com" || got.Questions[0].Type != TypeA {
		t.Fatalf("question mismatch: %+v", got.Questions[0])
	}
}

func TestResponseRoundTripAllTypes(t *testing.T) {
	q := NewQuery(7, "m.yelp.com", TypeA)
	r := q.Reply()
	r.Header.RCode = RCodeSuccess
	r.Header.Authoritative = true
	r.Header.RecursionAvailable = true
	r.Answers = []Record{
		{Name: "m.yelp.com", Class: ClassIN, TTL: 30,
			Data: CNAME{Target: "edge.cdn.example.net"}},
		{Name: "edge.cdn.example.net", Class: ClassIN, TTL: 20,
			Data: A{Addr: netip.MustParseAddr("203.0.113.7")}},
		{Name: "edge.cdn.example.net", Class: ClassIN, TTL: 20,
			Data: AAAA{Addr: netip.MustParseAddr("2001:db8::7")}},
	}
	r.Authorities = []Record{
		{Name: "cdn.example.net", Class: ClassIN, TTL: 300,
			Data: NS{Host: "ns1.cdn.example.net"}},
		{Name: "cdn.example.net", Class: ClassIN, TTL: 300,
			Data: SOA{MName: "ns1.cdn.example.net", RName: "hostmaster.cdn.example.net",
				Serial: 2014030100, Refresh: 3600, Retry: 600, Expire: 86400, Minimum: 60}},
	}
	r.Additionals = []Record{
		{Name: "ns1.cdn.example.net", Class: ClassIN, TTL: 300,
			Data: A{Addr: netip.MustParseAddr("198.51.100.1")}},
		{Name: "whoami.aqualab.example", Class: ClassIN, TTL: 0,
			Data: TXT{Strings: []string{"resolver=10.1.2.3", "t=123"}}},
		{Name: "mail.example.com", Class: ClassIN, TTL: 60,
			Data: MX{Preference: 10, Host: "mx1.example.com"}},
		{Name: "4.3.2.1.in-addr.arpa", Class: ClassIN, TTL: 60,
			Data: PTR{Target: "host.example.com"}},
	}
	got := roundTrip(t, r)
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestCompressionSavesSpace(t *testing.T) {
	r := &Message{Header: Header{ID: 1, Response: true}}
	r.Questions = []Question{{Name: "a.very.long.subdomain.example.com", Type: TypeA, Class: ClassIN}}
	for i := 0; i < 5; i++ {
		r.Answers = append(r.Answers, Record{
			Name: "a.very.long.subdomain.example.com", Class: ClassIN, TTL: 30,
			Data: A{Addr: netip.AddrFrom4([4]byte{10, 0, 0, byte(i)})},
		})
	}
	packed := mustPack(t, r)
	// Uncompressed this message is 296 bytes (the 35-byte name appears 6
	// times); with compression the five answers use 2-byte pointers and
	// the whole message is 131 bytes.
	if len(packed) > 140 {
		t.Fatalf("compression ineffective: %d bytes", len(packed))
	}
	got, err := Parse(packed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatal("compressed round trip mismatch")
	}
}

func TestCompressionCaseInsensitive(t *testing.T) {
	r := &Message{Header: Header{ID: 1}}
	r.Questions = []Question{{Name: "WWW.Example.COM", Type: TypeA, Class: ClassIN}}
	r.Answers = []Record{{Name: "www.example.com", Class: ClassIN, TTL: 1,
		Data: A{Addr: netip.MustParseAddr("1.2.3.4")}}}
	packed := mustPack(t, r)
	got, err := Parse(packed)
	if err != nil {
		t.Fatal(err)
	}
	// The answer name should have been compressed to a pointer at the
	// question's (case-preserved) name.
	if !strings.EqualFold(string(got.Answers[0].Name), "www.example.com") {
		t.Fatalf("answer name %q", got.Answers[0].Name)
	}
}

func TestNameValidation(t *testing.T) {
	long := strings.Repeat("a", 64)
	if _, err := (&Message{Questions: []Question{{Name: Name(long + ".com"), Type: TypeA, Class: ClassIN}}}).Pack(); err == nil {
		t.Fatal("64-byte label must fail")
	}
	var parts []string
	for i := 0; i < 30; i++ {
		parts = append(parts, strings.Repeat("x", 10))
	}
	tooLong := Name(strings.Join(parts, "."))
	if _, err := (&Message{Questions: []Question{{Name: tooLong, Type: TypeA, Class: ClassIN}}}).Pack(); err == nil {
		t.Fatal("names >255 octets must fail")
	}
	if _, err := (&Message{Questions: []Question{{Name: "a..b", Type: TypeA, Class: ClassIN}}}).Pack(); err == nil {
		t.Fatal("empty label must fail")
	}
}

func TestRootName(t *testing.T) {
	m := &Message{Header: Header{ID: 9}}
	m.Questions = []Question{{Name: "", Type: TypeNS, Class: ClassIN}}
	got := roundTrip(t, m)
	if got.Questions[0].Name != "" {
		t.Fatalf("root name round trip: %q", got.Questions[0].Name)
	}
	if Name("").String() != "." {
		t.Fatal("root name should render as '.'")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		wire []byte
	}{
		{"empty", nil},
		{"short header", []byte{0, 1, 0}},
		{"counts exceed size", []byte{0, 1, 0, 0, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0}},
		{"truncated question", append(make([]byte, 4), 0, 1, 0, 0, 0, 0, 0, 0, 3, 'a', 'b')},
	}
	for _, c := range cases {
		if _, err := Parse(c.wire); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

func TestPointerMustPointBackwards(t *testing.T) {
	// Header claiming 1 question whose name is a self-pointer.
	wire := []byte{
		0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
		0xC0, 12, // pointer to itself
		0, 1, 0, 1,
	}
	if _, err := Parse(wire); err == nil {
		t.Fatal("self-referential pointer must fail")
	}
}

func TestForwardPointerRejected(t *testing.T) {
	wire := []byte{
		0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
		0xC0, 14, // forward pointer
		0, 1, 0, 1,
		0,
	}
	if _, err := Parse(wire); err == nil {
		t.Fatal("forward pointer must fail")
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	q := NewQuery(1, "example.com", TypeA)
	b := mustPack(t, q)
	b = append(b, 0xDE, 0xAD)
	if _, err := Parse(b); err != ErrTrailingBytes {
		t.Fatalf("got %v, want ErrTrailingBytes", err)
	}
}

func TestOPTRoundTrip(t *testing.T) {
	ecs, err := ClientSubnet(netip.MustParsePrefix("203.0.113.0/24"))
	if err != nil {
		t.Fatal(err)
	}
	m := NewQuery(3, "www.google.com", TypeA)
	m.Additionals = []Record{{Name: "", Class: ClassIN, Data: OPT{UDPSize: 4096, Options: []EDNSOption{ecs}}}}
	got := roundTrip(t, m)
	opt, ok := got.Additionals[0].Data.(OPT)
	if !ok {
		t.Fatalf("additionals[0] is %T", got.Additionals[0].Data)
	}
	if opt.UDPSize != 4096 {
		t.Fatalf("UDP size %d", opt.UDPSize)
	}
	prefix, err := ParseClientSubnet(opt.Options[0])
	if err != nil {
		t.Fatal(err)
	}
	if prefix.String() != "203.0.113.0/24" {
		t.Fatalf("ECS prefix %s", prefix)
	}
}

func TestClientSubnetErrors(t *testing.T) {
	if _, err := ClientSubnet(netip.MustParsePrefix("2001:db8::/32")); err == nil {
		t.Fatal("IPv6 ECS should be rejected")
	}
	if _, err := ParseClientSubnet(EDNSOption{Code: 99}); err == nil {
		t.Fatal("wrong option code should be rejected")
	}
	if _, err := ParseClientSubnet(EDNSOption{Code: OptionClientSubnet, Data: []byte{0}}); err == nil {
		t.Fatal("short payload should be rejected")
	}
	if _, err := ParseClientSubnet(EDNSOption{Code: OptionClientSubnet, Data: []byte{0, 2, 24, 0, 1, 2, 3}}); err == nil {
		t.Fatal("non-IPv4 family should be rejected")
	}
}

func TestUnknownTypePreserved(t *testing.T) {
	m := &Message{Header: Header{ID: 2, Response: true}}
	m.Answers = []Record{{Name: "x.example", Class: ClassIN, TTL: 5,
		Data: RawRData{T: Type(999), Data: []byte{1, 2, 3, 4}}}}
	got := roundTrip(t, m)
	raw, ok := got.Answers[0].Data.(RawRData)
	if !ok || raw.T != Type(999) || !bytes.Equal(raw.Data, []byte{1, 2, 3, 4}) {
		t.Fatalf("raw rdata mismatch: %+v", got.Answers[0].Data)
	}
}

func TestAnswerHelpers(t *testing.T) {
	m := &Message{}
	m.Answers = []Record{
		{Name: "a", Class: ClassIN, TTL: 60, Data: CNAME{Target: "b"}},
		{Name: "b", Class: ClassIN, TTL: 20, Data: A{Addr: netip.MustParseAddr("1.1.1.1")}},
		{Name: "b", Class: ClassIN, TTL: 40, Data: A{Addr: netip.MustParseAddr("2.2.2.2")}},
	}
	if ips := m.AnswerIPs(); len(ips) != 2 || ips[0].String() != "1.1.1.1" {
		t.Fatalf("AnswerIPs = %v", ips)
	}
	var chain []Name
	for _, rr := range m.Answers {
		if c, ok := rr.Data.(CNAME); ok {
			chain = append(chain, c.Target)
		}
	}
	if len(chain) != 1 || chain[0] != "b" {
		t.Fatalf("CNAME chain = %v", chain)
	}
	if ttl := m.MinAnswerTTL(); ttl != 20 {
		t.Fatalf("MinAnswerTTL = %d", ttl)
	}
	if (&Message{}).MinAnswerTTL() != 0 {
		t.Fatal("empty MinAnswerTTL should be 0")
	}
}

func TestNameHelpers(t *testing.T) {
	n := Name("a.b.example.com")
	if got := n.Parent(); got != "b.example.com" {
		t.Fatalf("Parent = %q", got)
	}
	if got := Name("com").Parent(); got != "" {
		t.Fatalf("Parent of TLD = %q", got)
	}
	if !n.HasSuffix("example.com") || !n.HasSuffix("a.b.example.com") || !n.HasSuffix("") {
		t.Fatal("HasSuffix failures")
	}
	if n.HasSuffix("ample.com") {
		t.Fatal("HasSuffix must match on label boundaries")
	}
}

func TestTXTEmpty(t *testing.T) {
	m := &Message{Header: Header{Response: true}}
	m.Answers = []Record{{Name: "t.example", Class: ClassIN, TTL: 1, Data: TXT{}}}
	got := roundTrip(t, m)
	txt := got.Answers[0].Data.(TXT)
	if len(txt.Strings) != 1 || txt.Strings[0] != "" {
		t.Fatalf("empty TXT round trip: %+v", txt)
	}
}

func TestTXTTooLong(t *testing.T) {
	m := &Message{}
	m.Answers = []Record{{Name: "t.example", Class: ClassIN, TTL: 1,
		Data: TXT{Strings: []string{strings.Repeat("x", 256)}}}}
	if _, err := m.Pack(); err == nil {
		t.Fatal("256-byte TXT string must fail")
	}
}

func TestReplyEchoesQuestion(t *testing.T) {
	q := NewQuery(77, "example.com", TypeAAAA)
	r := q.Reply()
	if !r.Header.Response || r.Header.ID != 77 || !r.Header.RecursionDesired {
		t.Fatalf("reply header %+v", r.Header)
	}
	if len(r.Questions) != 1 || r.Questions[0] != q.Questions[0] {
		t.Fatal("reply must echo the question")
	}
}

func TestStringRendering(t *testing.T) {
	m := NewQuery(5, "example.com", TypeA)
	m.Answers = []Record{{Name: "example.com", Class: ClassIN, TTL: 60,
		Data: A{Addr: netip.MustParseAddr("93.184.216.34")}}}
	s := m.String()
	for _, want := range []string{"example.com", "93.184.216.34", "rd"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
	if TypeA.String() != "A" || Type(200).String() != "TYPE200" {
		t.Fatal("Type.String mismatch")
	}
	if RCodeNXDomain.String() != "NXDOMAIN" || RCode(13).String() != "RCODE13" {
		t.Fatal("RCode.String mismatch")
	}
	if ClassIN.String() != "IN" || Class(7).String() != "CLASS7" || ClassANY.String() != "ANY" {
		t.Fatal("Class.String mismatch")
	}
}

// Property: any message built from random well-formed names and A records
// survives a pack/parse round trip byte-for-byte after re-packing.
func TestRoundTripProperty(t *testing.T) {
	label := func(seed uint16) string {
		const alpha = "abcdefghijklmnopqrstuvwxyz0123456789-"
		n := int(seed%12) + 1
		var sb strings.Builder
		x := uint32(seed) + 1
		for i := 0; i < n; i++ {
			x = x*1664525 + 1013904223
			sb.WriteByte(alpha[x%uint32(len(alpha)-1)]) // avoid '-' runs at edges for simplicity
		}
		return sb.String()
	}
	f := func(id uint16, l1, l2, l3 uint16, ttl uint32, oct [4]byte, nAnswers uint8) bool {
		name := Name(label(l1) + "." + label(l2) + "." + label(l3))
		m := NewQuery(id, name, TypeA)
		r := m.Reply()
		for i := 0; i < int(nAnswers%8); i++ {
			r.Answers = append(r.Answers, Record{
				Name: name, Class: ClassIN, TTL: ttl % 86400,
				Data: A{Addr: netip.AddrFrom4(oct)},
			})
		}
		b1, err := r.Pack()
		if err != nil {
			return false
		}
		p, err := Parse(b1)
		if err != nil {
			return false
		}
		b2, err := p.Pack()
		if err != nil {
			return false
		}
		return bytes.Equal(b1, b2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the parser never panics on arbitrary input.
func TestParseNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Parse panicked on % x: %v", data, r)
			}
		}()
		Parse(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Mutation fuzz: flip bytes in a valid message; parser must not panic and
// any successful parse must re-pack.
func TestParseMutationRobustness(t *testing.T) {
	base := NewQuery(42, "edge.cdn.example.net", TypeA)
	r := base.Reply()
	r.Answers = []Record{
		{Name: "edge.cdn.example.net", Class: ClassIN, TTL: 30, Data: CNAME{Target: "pop.cdn.example.net"}},
		{Name: "pop.cdn.example.net", Class: ClassIN, TTL: 30, Data: A{Addr: netip.MustParseAddr("10.9.8.7")}},
	}
	wire := mustPack(t, r)
	for i := 0; i < len(wire); i++ {
		for _, delta := range []byte{0x01, 0x80, 0xFF} {
			mut := append([]byte(nil), wire...)
			mut[i] ^= delta
			m, err := Parse(mut)
			if err != nil {
				continue
			}
			if _, err := m.Pack(); err != nil {
				// Parsed messages must always be re-packable unless they
				// contain something our packer legitimately rejects
				// (e.g. a mutated empty label). Accept known name errors.
				switch err.(type) {
				default:
					if !strings.Contains(err.Error(), "dnswire:") {
						t.Fatalf("byte %d ^ %x: repack failed unexpectedly: %v", i, delta, err)
					}
				}
			}
		}
	}
}

// TestParseRejectsOPTTrailingBytes: 1-3 bytes after an OPT's last option
// used to parse and then vanish on re-pack (40 bytes in, 38 out for two).
func TestParseRejectsOPTTrailingBytes(t *testing.T) {
	if _, err := Parse(optTrailing(t, 0)); err != nil {
		t.Fatalf("well-formed OPT: %v", err)
	}
	for extra := 1; extra <= 3; extra++ {
		if m, err := Parse(optTrailing(t, extra)); err == nil {
			t.Errorf("%d trailing OPT bytes accepted: %s", extra, m)
		}
	}
}

// TestParseSharesOnlyWhatParseNameAccepts: the last question of
// deepPointers is a pointer to a label Parse has recorded, but decoding it
// takes one jump more than decodeName allows, so Parse must fail as a
// fresh decode would. Without the hop count the name was shared.
func TestParseSharesOnlyWhatParseNameAccepts(t *testing.T) {
	msg := deepPointers()
	legal := append([]byte(nil), msg[:len(msg)-6]...)
	legal[5] = 64 // drop the last question
	m, err := Parse(legal)
	if err != nil {
		t.Fatalf("63 jumps are legal: %v", err)
	}
	if got := m.Questions[63].Name; got != "b.a" {
		t.Fatalf("question 63 = %q, want b.a", got)
	}
	if m, err := Parse(msg); err == nil {
		t.Fatalf("64-jump name accepted: %q", m.Questions[64].Name)
	}
}
