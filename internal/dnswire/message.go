package dnswire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// Record is one resource record in an answer, authority or additional
// section.
type Record struct {
	Name  Name
	Class Class
	TTL   uint32
	Data  RData
}

// String implements fmt.Stringer.
func (r Record) String() string {
	return fmt.Sprintf("%s %d %s %s %s", r.Name, r.TTL, r.Class, r.Data.Type(), r.Data)
}

// Message is a complete DNS message.
type Message struct {
	Header      Header
	Questions   []Question
	Answers     []Record
	Authorities []Record
	Additionals []Record
}

// Errors returned by message parsing.
var (
	ErrHeaderTruncated = errors.New("dnswire: truncated header")
	ErrSectionCount    = errors.New("dnswire: section count exceeds message size")
	ErrTrailingBytes   = errors.New("dnswire: trailing bytes after message")
)

const headerLen = 12

// NewQuery constructs a recursion-desired query for (name, type).
func NewQuery(id uint16, name Name, t Type) *Message {
	return &Message{
		Header:    Header{ID: id, RecursionDesired: true},
		Questions: []Question{{Name: name, Type: t, Class: ClassIN}},
	}
}

// SetQuestion makes m, in place, the recursion-desired query for (name,
// type) that NewQuery builds. Its question section keeps its storage, so
// a Message a client queries with again and again allocates it once; use
// it only on a Message whose questions no other message shares.
func (m *Message) SetQuestion(id uint16, name Name, t Type) {
	*m = Message{
		Header:    Header{ID: id, RecursionDesired: true},
		Questions: append(m.Questions[:0], Question{Name: name, Type: t, Class: ClassIN}),
	}
}

// Reply constructs a response message skeleton for a query, echoing its ID,
// question and recursion-desired bit.
func (m *Message) Reply() *Message {
	r := new(Message)
	r.SetReply(m)
	return r
}

// SetReply makes r, in place, the response skeleton Reply builds for
// query q. r's answer, authority and additional sections are emptied but
// keep their storage, so a handler that builds every reply in one Message
// appends its records into the same array each time; a section assigned
// from another message's storage becomes that storage, so only append to
// sections r built itself.
func (r *Message) SetReply(q *Message) {
	*r = Message{
		Header: Header{
			ID:               q.Header.ID,
			Response:         true,
			Opcode:           q.Header.Opcode,
			RecursionDesired: q.Header.RecursionDesired,
		},
		// The reply shares the query's questions. Nothing writes a
		// Question in place, and the capacity limit makes an append to
		// either copy.
		Questions:   q.Questions[:len(q.Questions):len(q.Questions)],
		Answers:     r.Answers[:0],
		Authorities: r.Authorities[:0],
		Additionals: r.Additionals[:0],
	}
}

// packFlags encodes header flag bits into the 16-bit flags word.
//
//lint:hotpath pure bit twiddling on every encoded message
func (h Header) packFlags() uint16 {
	var f uint16
	if h.Response {
		f |= 1 << 15
	}
	f |= uint16(h.Opcode&0xF) << 11
	if h.Authoritative {
		f |= 1 << 10
	}
	if h.Truncated {
		f |= 1 << 9
	}
	if h.RecursionDesired {
		f |= 1 << 8
	}
	if h.RecursionAvailable {
		f |= 1 << 7
	}
	f |= uint16(h.RCode & 0xF)
	return f
}

//lint:hotpath pure bit twiddling on every parsed message
func unpackFlags(f uint16) Header {
	return Header{
		Response:           f&(1<<15) != 0,
		Opcode:             Opcode(f >> 11 & 0xF),
		Authoritative:      f&(1<<10) != 0,
		Truncated:          f&(1<<9) != 0,
		RecursionDesired:   f&(1<<8) != 0,
		RecursionAvailable: f&(1<<7) != 0,
		RCode:              RCode(f & 0xF),
	}
}

// Append serializes the message, appending to buf (which is usually nil).
// Domain names in question and answer sections are compressed.
func (m *Message) Append(buf []byte) ([]byte, error) {
	if len(m.Questions)+len(m.Answers)+len(m.Authorities)+len(m.Additionals) <= 1 {
		// A lone question has nothing to point back to: skip the table.
		return m.appendPacked(buf, nil)
	}
	var cm compressionMap // on the stack: nothing it is passed to keeps it
	return m.appendPacked(buf, &cm)
}

// sizeHint estimates the packed size: exact without compression for
// address and single-name records, RDATA of other types not counted
// (append grows the buffer for those).
func (m *Message) sizeHint() int {
	n := headerLen
	for _, q := range m.Questions {
		n += len(q.Name) + 2 + 4
	}
	for _, sec := range [][]Record{m.Answers, m.Authorities, m.Additionals} {
		for _, rr := range sec {
			n += len(rr.Name) + 2 + 10
			switch d := rr.Data.(type) {
			case A:
				n += 4
			case AAAA:
				n += 16
			case CNAME:
				n += len(d.Target) + 2
			case NS:
				n += len(d.Host) + 2
			case PTR:
				n += len(d.Target) + 2
			}
		}
	}
	return n
}

// Encoder amortizes message encoding across packets: it owns a reusable
// output buffer and compression table, so steady-state Encode performs zero
// allocations (proven by TestHotPathAllocsEncodeMessage). An Encoder must
// not be used concurrently; pool instances instead (see dnsserver).
type Encoder struct {
	buf []byte
	cm  compressionMap
}

// Encode serializes m with name compression. The returned slice is owned
// by the Encoder and only valid until the next Encode call; callers that
// need to retain the bytes must copy them.
func (e *Encoder) Encode(m *Message) ([]byte, error) {
	e.cm.reset()
	out, err := m.appendPacked(e.buf[:0], &e.cm)
	if err != nil {
		return nil, err
	}
	e.buf = out
	return out, nil
}

// appendPacked is the shared serialization core behind Append and Encoder.
func (m *Message) appendPacked(buf []byte, cm *compressionMap) ([]byte, error) {
	if len(m.Questions) > 0xFFFF || len(m.Answers) > 0xFFFF ||
		len(m.Authorities) > 0xFFFF || len(m.Additionals) > 0xFFFF {
		return nil, fmt.Errorf("dnswire: section too large")
	}
	buf = binary.BigEndian.AppendUint16(buf, m.Header.ID)
	buf = binary.BigEndian.AppendUint16(buf, m.Header.packFlags())
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Questions)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Answers)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Authorities)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Additionals)))

	var err error
	for _, q := range m.Questions {
		if buf, err = appendName(buf, q.Name, cm, 0); err != nil {
			return nil, fmt.Errorf("question %s: %w", q.Name, err)
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	for _, sec := range [][]Record{m.Answers, m.Authorities, m.Additionals} {
		for _, rr := range sec {
			if buf, err = appendRecord(buf, rr, cm); err != nil {
				//lint:ignore errwrap appendRecord errors already name the failing record
				return nil, err
			}
		}
	}
	return buf, nil
}

// Pack is Append with a fresh buffer sized from the message.
func (m *Message) Pack() ([]byte, error) { return m.Append(make([]byte, 0, m.sizeHint())) }

func appendRecord(buf []byte, rr Record, cm *compressionMap) ([]byte, error) {
	var err error
	if buf, err = appendName(buf, rr.Name, cm, 0); err != nil {
		return nil, fmt.Errorf("record %s: %w", rr.Name, err)
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Data.Type()))

	classField := uint16(rr.Class)
	ttlField := rr.TTL
	if opt, ok := rr.Data.(OPT); ok {
		// EDNS0: class carries the UDP payload size; TTL carries
		// extended RCODE and flags (we emit zero).
		classField = opt.UDPSize
		ttlField = 0
	}
	buf = binary.BigEndian.AppendUint16(buf, classField)
	buf = binary.BigEndian.AppendUint32(buf, ttlField)

	lenAt := len(buf)
	buf = append(buf, 0, 0) // placeholder RDLENGTH
	// The name-bearing types are called directly: through the interface,
	// escape analysis could not see that cm stays put, and every Append
	// would move its table to the heap. Other types never compress.
	switch d := rr.Data.(type) {
	case CNAME:
		buf, err = d.appendTo(buf, cm)
	case NS:
		buf, err = d.appendTo(buf, cm)
	case PTR:
		buf, err = d.appendTo(buf, cm)
	case MX:
		buf, err = d.appendTo(buf, cm)
	case SOA:
		buf, err = d.appendTo(buf, cm)
	default:
		buf, err = rr.Data.appendTo(buf, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("record %s: %w", rr.Name, err)
	}
	rdlen := len(buf) - lenAt - 2
	if rdlen > 0xFFFF {
		return nil, fmt.Errorf("dnswire: RDATA of %s exceeds 65535 bytes", rr.Name)
	}
	binary.BigEndian.PutUint16(buf[lenAt:], uint16(rdlen))
	return buf, nil
}

// Parse decodes a complete DNS message. The message it returns, and every
// name and RDATA in it, is its own; a Decoder parses the same way into a
// reused Scratch and shares the immutable names and RDATA across calls.
func Parse(msg []byte) (*Message, error) {
	var p parser
	return walk(msg, &p)
}

// Check reports whether Parse would accept msg, with the error Parse
// would return, but builds nothing: no Message, Name or record. It
// allocates only for an error it returns. A receiver that only needs to
// know a datagram is well-formed (the UDP transport dropping strays)
// checks it instead of parsing it.
func Check(msg []byte) error {
	_, err := walk(msg, nil)
	return err
}

// parser is what walk builds a message with: Parse's has no Decoder and
// builds a fresh message and every name and RDATA in it, a Decoder's
// fills a Scratch and shares names and RDATA through the Decoder's
// tables. Check walks with a nil parser, which builds nothing.
type parser struct {
	shared sharedNames
	dec    *Decoder
	into   *Scratch
}

// walk is the one section walk of Parse, Decoder.ParseInto and Check.
// With p nil it only checks: every rule a parse applies runs, in the same
// order, but it builds nothing and returns a nil message.
func walk(msg []byte, p *parser) (*Message, error) {
	if len(msg) < headerLen {
		return nil, ErrHeaderTruncated
	}
	qd := int(binary.BigEndian.Uint16(msg[4:6]))
	an := int(binary.BigEndian.Uint16(msg[6:8]))
	ns := int(binary.BigEndian.Uint16(msg[8:10]))
	ar := int(binary.BigEndian.Uint16(msg[10:12]))

	// Each question needs >= 5 bytes, each record >= 11: cheap sanity bound.
	if qd*5+(an+ns+ar)*11 > len(msg)-headerLen {
		return nil, ErrSectionCount
	}

	var out *Message
	var dests [3]*[]Record
	var block []Record // a Scratch's one slab for all three sections
	if p != nil {
		if p.into != nil {
			// The sanity bound above caps the count by the message size.
			out, block = p.into.reset(qd, an+ns+ar)
		} else {
			out = &Message{}
		}
		out.Header = unpackFlags(binary.BigEndian.Uint16(msg[2:4]))
		out.Header.ID = binary.BigEndian.Uint16(msg[0:2])
		dests = [3]*[]Record{&out.Answers, &out.Authorities, &out.Additionals}
	}
	off := headerLen
	var err error
	for i := 0; i < qd; i++ {
		var q Question
		if q.Name, off, err = p.name(msg, off); err != nil {
			return nil, fmt.Errorf("question %d: %w", i, err)
		}
		if off+4 > len(msg) {
			return nil, ErrNameTruncated
		}
		q.Type = Type(binary.BigEndian.Uint16(msg[off:]))
		q.Class = Class(binary.BigEndian.Uint16(msg[off+2:]))
		off += 4
		if out != nil {
			out.Questions = append(out.Questions, q)
		}
	}
	for s, n := range [3]int{an, ns, ar} {
		dest := dests[s]
		if dest != nil && n > 0 {
			if block != nil {
				*dest, block = block[:0:n], block[n:]
			} else {
				*dest = make([]Record, 0, n)
			}
		}
		for i := 0; i < n; i++ {
			var rr Record
			if rr, off, err = parseRecord(msg, off, p); err != nil {
				//lint:ignore errwrap parse errors are already positional; Parse adds nothing
				return nil, err
			}
			if dest != nil {
				*dest = append(*dest, rr)
			}
		}
	}
	if off != len(msg) {
		return nil, ErrTrailingBytes
	}
	return out, nil
}

// SameQuestion reports whether the packed messages a and b each carry
// exactly one question and the same one: names equal under DNS
// case-insensitivity, as Name.Equal has it, and the same type and class.
// It decodes both names into stack scratch and allocates nothing. A
// question that does not decode matches nothing.
func SameQuestion(a, b []byte) bool {
	var sa, sb [maxNameWire + maxLabelWire]byte
	na, ta, ok := soleQuestion(a, sa[:0])
	if !ok {
		return false
	}
	nb, tb, ok := soleQuestion(b, sb[:0])
	return ok && bytes.EqualFold(na, nb) && bytes.Equal(a[ta:ta+4], b[tb:tb+4])
}

// soleQuestion decodes the name of msg's one question into dst and
// returns it with the offset of the question's type and class.
func soleQuestion(msg, dst []byte) ([]byte, int, bool) {
	if len(msg) < headerLen || binary.BigEndian.Uint16(msg[4:]) != 1 {
		return nil, 0, false
	}
	name, end, err := decodeName(msg, headerLen, dst)
	if err != nil || end+4 > len(msg) {
		return nil, 0, false
	}
	return name, end, true
}

// parseRecord decodes the record at off. With p nil it only checks (see
// walk): the returned Record has no name and no data.
func parseRecord(msg []byte, off int, p *parser) (Record, int, error) {
	var rr Record
	var err error
	if rr.Name, off, err = p.name(msg, off); err != nil {
		return rr, 0, err
	}
	if off+10 > len(msg) {
		return rr, 0, ErrNameTruncated
	}
	typ := Type(binary.BigEndian.Uint16(msg[off:]))
	classField := binary.BigEndian.Uint16(msg[off+2:])
	rr.TTL = binary.BigEndian.Uint32(msg[off+4:])
	rdlen := int(binary.BigEndian.Uint16(msg[off+8:]))
	off += 10
	if off+rdlen > len(msg) {
		return rr, 0, ErrNameTruncated
	}
	rd := msg[off : off+rdlen]
	rdEnd := off + rdlen
	build := p != nil

	rr.Class = Class(classField)
	switch typ {
	case TypeA:
		if rdlen != 4 {
			return rr, 0, fmt.Errorf("dnswire: A RDATA length %d", rdlen)
		}
		if build {
			rr.Data = p.dec.addr(TypeA, netip.AddrFrom4([4]byte(rd)))
		}
	case TypeAAAA:
		if rdlen != 16 {
			return rr, 0, fmt.Errorf("dnswire: AAAA RDATA length %d", rdlen)
		}
		if build {
			rr.Data = p.dec.addr(TypeAAAA, netip.AddrFrom16([16]byte(rd)))
		}
	case TypeCNAME, TypeNS, TypePTR:
		n, nend, err := p.name(msg, off)
		if err != nil {
			return rr, 0, err
		}
		if nend != rdEnd {
			return rr, 0, fmt.Errorf("dnswire: %s RDATA has trailing bytes", typ)
		}
		if build {
			rr.Data = p.dec.target(typ, n)
		}
	case TypeMX:
		if rdlen < 3 {
			return rr, 0, fmt.Errorf("dnswire: MX RDATA length %d", rdlen)
		}
		pref := binary.BigEndian.Uint16(rd)
		host, nend, err := p.name(msg, off+2)
		if err != nil {
			return rr, 0, err
		}
		if nend != rdEnd {
			return rr, 0, errors.New("dnswire: MX RDATA has trailing bytes")
		}
		if build {
			rr.Data = MX{Preference: pref, Host: host}
		}
	case TypeSOA:
		var s SOA
		pos := off
		if s.MName, pos, err = p.name(msg, pos); err != nil {
			return rr, 0, err
		}
		if s.RName, pos, err = p.name(msg, pos); err != nil {
			return rr, 0, err
		}
		if pos+20 != rdEnd {
			return rr, 0, errors.New("dnswire: SOA RDATA malformed")
		}
		s.Serial = binary.BigEndian.Uint32(msg[pos:])
		s.Refresh = binary.BigEndian.Uint32(msg[pos+4:])
		s.Retry = binary.BigEndian.Uint32(msg[pos+8:])
		s.Expire = binary.BigEndian.Uint32(msg[pos+12:])
		s.Minimum = binary.BigEndian.Uint32(msg[pos+16:])
		if build {
			rr.Data = s
		}
	case TypeTXT:
		var t TXT
		for p := 0; p < rdlen; {
			l := int(rd[p])
			if p+1+l > rdlen {
				return rr, 0, errors.New("dnswire: TXT string truncated")
			}
			if build {
				t.Strings = append(t.Strings, string(rd[p+1:p+1+l]))
			}
			p += 1 + l
		}
		if build {
			if len(t.Strings) == 0 {
				t.Strings = []string{""}
			}
			rr.Data = t
		}
	case TypeOPT:
		opt := OPT{UDPSize: classField}
		for p := 0; p < rdlen; {
			if p+4 > rdlen {
				// Options must tile the RDATA: 1-3 stray bytes would
				// otherwise vanish on re-pack.
				return rr, 0, errors.New("dnswire: EDNS option header truncated")
			}
			code := binary.BigEndian.Uint16(rd[p:])
			olen := int(binary.BigEndian.Uint16(rd[p+2:]))
			if p+4+olen > rdlen {
				return rr, 0, errors.New("dnswire: EDNS option truncated")
			}
			if build {
				data := make([]byte, olen)
				copy(data, rd[p+4:p+4+olen])
				opt.Options = append(opt.Options, EDNSOption{Code: code, Data: data})
			}
			p += 4 + olen
		}
		rr.Class = ClassIN // normalized; UDP size carried in opt.UDPSize
		if build {
			rr.Data = opt
		}
	default:
		if build {
			data := make([]byte, rdlen)
			copy(data, rd)
			rr.Data = RawRData{T: typ, Data: data}
		}
	}
	return rr, rdEnd, nil
}

// AnswerIPs extracts all IPv4/IPv6 addresses from the answer section,
// in order, into one slice of exactly their number: nil when there are
// none.
func (m *Message) AnswerIPs() []netip.Addr {
	n := 0
	for _, rr := range m.Answers {
		if _, ok := answerIP(rr); ok {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]netip.Addr, 0, n)
	for _, rr := range m.Answers {
		if a, ok := answerIP(rr); ok {
			out = append(out, a)
		}
	}
	return out
}

// answerIP returns the address an A or AAAA record carries.
func answerIP(rr Record) (netip.Addr, bool) {
	switch d := rr.Data.(type) {
	case A:
		return d.Addr, true
	case AAAA:
		return d.Addr, true
	}
	return netip.Addr{}, false
}

// MinAnswerTTL returns the minimum TTL across answer records, or 0 when
// the answer section is empty.
func (m *Message) MinAnswerTTL() uint32 {
	var minTTL uint32
	for i, rr := range m.Answers {
		if i == 0 || rr.TTL < minTTL {
			minTTL = rr.TTL
		}
	}
	return minTTL
}

// String renders a dig-style summary of the message.
func (m *Message) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, ";; id=%d rcode=%s %s\n", m.Header.ID, m.Header.RCode, flagString(m.Header))
	for _, q := range m.Questions {
		fmt.Fprintf(&b, ";%s\n", q)
	}
	for _, rr := range m.Answers {
		fmt.Fprintf(&b, "%s\n", rr)
	}
	for _, rr := range m.Authorities {
		fmt.Fprintf(&b, "auth: %s\n", rr)
	}
	for _, rr := range m.Additionals {
		fmt.Fprintf(&b, "extra: %s\n", rr)
	}
	return b.String()
}

func flagString(h Header) string {
	var flags []string
	if h.Response {
		flags = append(flags, "qr")
	}
	if h.Authoritative {
		flags = append(flags, "aa")
	}
	if h.Truncated {
		flags = append(flags, "tc")
	}
	if h.RecursionDesired {
		flags = append(flags, "rd")
	}
	if h.RecursionAvailable {
		flags = append(flags, "ra")
	}
	return strings.Join(flags, " ")
}
