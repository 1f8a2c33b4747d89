package dnswire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
	"testing"
)

// appendNameRef is the map-based compressor that compressionMap's inline
// table replaced, kept as the reference FuzzPackMatchesReference holds
// the packer to. A nil map disables compression.
func appendNameRef(buf []byte, n Name, cm map[string]int, msgStart int) ([]byte, error) {
	if err := n.validate(); err != nil {
		return nil, err
	}
	s := trimRoot(n)
	if s == "" {
		return append(buf, 0), nil
	}
	lower := lowerASCII(s)
	for start := 0; start < len(s); {
		if cm != nil {
			suffix := lower[start:]
			if off, ok := cm[suffix]; ok && off < 0x3FFF {
				return append(buf, 0xC0|byte(off>>8), byte(off)), nil
			}
			if pos := len(buf) - msgStart; pos < 0x3FFF {
				cm[suffix] = pos
			}
		}
		end := strings.IndexByte(s[start:], '.')
		if end < 0 {
			end = len(s)
		} else {
			end += start
		}
		buf = append(buf, byte(end-start))
		buf = append(buf, s[start:end]...)
		start = end + 1
	}
	return append(buf, 0), nil
}

// packRef is Append over appendNameRef: the same header, sections and
// RDATA, with every name compressed through one map per message.
func packRef(m *Message) ([]byte, error) {
	var cm map[string]int
	if len(m.Questions)+len(m.Answers)+len(m.Authorities)+len(m.Additionals) > 1 {
		cm = map[string]int{}
	}
	buf := binary.BigEndian.AppendUint16(nil, m.Header.ID)
	buf = binary.BigEndian.AppendUint16(buf, m.Header.packFlags())
	for _, n := range []int{len(m.Questions), len(m.Answers), len(m.Authorities), len(m.Additionals)} {
		buf = binary.BigEndian.AppendUint16(buf, uint16(n))
	}
	var err error
	for _, q := range m.Questions {
		if buf, err = appendNameRef(buf, q.Name, cm, 0); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	for _, sec := range [][]Record{m.Answers, m.Authorities, m.Additionals} {
		for _, rr := range sec {
			if buf, err = appendNameRef(buf, rr.Name, cm, 0); err != nil {
				return nil, err
			}
			buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Data.Type()))
			class, ttl := uint16(rr.Class), rr.TTL
			if opt, ok := rr.Data.(OPT); ok {
				class, ttl = opt.UDPSize, 0
			}
			buf = binary.BigEndian.AppendUint16(buf, class)
			buf = binary.BigEndian.AppendUint32(buf, ttl)
			lenAt := len(buf)
			buf = append(buf, 0, 0)
			switch d := rr.Data.(type) {
			case CNAME:
				buf, err = appendNameRef(buf, d.Target, cm, 0)
			case NS:
				buf, err = appendNameRef(buf, d.Host, cm, 0)
			case PTR:
				buf, err = appendNameRef(buf, d.Target, cm, 0)
			case MX:
				buf = binary.BigEndian.AppendUint16(buf, d.Preference)
				buf, err = appendNameRef(buf, d.Host, cm, 0)
			case SOA:
				if buf, err = appendNameRef(buf, d.MName, cm, 0); err == nil {
					buf, err = appendNameRef(buf, d.RName, cm, 0)
				}
				for _, v := range []uint32{d.Serial, d.Refresh, d.Retry, d.Expire, d.Minimum} {
					buf = binary.BigEndian.AppendUint32(buf, v)
				}
			default:
				buf, err = rr.Data.appendTo(buf, nil)
			}
			if err != nil {
				return nil, err
			}
			binary.BigEndian.PutUint16(buf[lenAt:], uint16(len(buf)-lenAt-2))
		}
	}
	return buf, nil
}

// fuzzLabels are the labels a fuzzed name draws from: shared suffixes in
// several cases, so compression keys must fold case.
var fuzzLabels = []string{"www", "WWW", "cdn", "Cdn", "edge", "example", "EXAMPLE", "Example", "com", "COM", "net", "a", "B"}

// messageFromBytes builds a message from fuzz input. Each record takes
// one byte for its type and a name per owner and RDATA name: a name is a
// count byte (0 = the root) and one byte per label. A label byte below
// 0x80 picks from fuzzLabels; above, it is a label of its own, so long
// inputs hold more distinct suffixes than the inline table.
func messageFromBytes(data []byte) *Message {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	name := func() Name {
		labels := make([]string, int(next()%5))
		for i := range labels {
			if b := next(); b < 0x80 {
				labels[i] = fuzzLabels[int(b)%len(fuzzLabels)]
			} else {
				labels[i] = fmt.Sprintf("x%02x", b)
			}
		}
		return Name(strings.Join(labels, "."))
	}
	m := NewQuery(uint16(next()), name(), TypeA).Reply()
	for i := 0; len(data) > 0 && i < 200; i++ {
		rr := Record{Name: name(), Class: ClassIN, TTL: 60}
		switch next() % 8 {
		case 0:
			rr.Data = A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})}
		case 1:
			rr.Data = CNAME{Target: name()}
		case 2:
			rr.Data = NS{Host: name()}
		case 3:
			rr.Data = PTR{Target: name()}
		case 4:
			rr.Data = MX{Preference: uint16(i), Host: name()}
		case 5:
			rr.Data = SOA{MName: name(), RName: name(), Serial: uint32(i)}
		case 6:
			rr.Data = TXT{Strings: []string{"t"}}
		default:
			rr.Data = AAAA{Addr: netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(i)})}
		}
		switch i % 3 {
		case 0:
			m.Answers = append(m.Answers, rr)
		case 1:
			m.Authorities = append(m.Authorities, rr)
		default:
			m.Additionals = append(m.Additionals, rr)
		}
	}
	return m
}

// spillSeed is fuzz input whose message holds more distinct suffixes than
// compressionMap's inline table: 48 A records, each owned by two labels
// of its own under "com", then 48 more owned by the same names, which
// must compress to pointers into both tiers.
func spillSeed() []byte {
	seed := []byte{7, 2, 0, 9} // id, question "www.COM"
	for i := 0; i < 96; i++ {
		seed = append(seed, 3, byte(0x80+i%48), byte(0xC0+i%48), 8, 0) // owner x<i>.x<j>.com, type A
	}
	return seed
}

// FuzzPackMatchesReference holds Append and the Encoder to the map-based
// compressor byte for byte, spill included.
func FuzzPackMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 0, 5, 10, 1, 2, 0, 5, 10, 0, 3, 1, 6, 10, 3})
	f.Add([]byte{2, 2, 1, 6, 2, 2, 7, 8, 1, 3, 0, 12, 10, 5, 3, 4, 5, 10, 2, 2, 6})
	f.Add(spillSeed())
	f.Fuzz(func(t *testing.T, data []byte) {
		m := messageFromBytes(data)
		want, err := packRef(m)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		got, err := m.Append(nil)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Append diverges from the map-based reference\n got %x\nwant %x\n%s", got, want, m)
		}
		var enc Encoder
		for i := 0; i < 2; i++ { // the second Encode starts from a reset table
			if got, err = enc.Encode(m); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Encoder pass %d diverges from the reference (err %v)", i, err)
			}
		}
	})
}

// TestSpillSeedSpills checks that spillSeed reaches the spill map, so the
// fuzz target's seed run covers both tiers of the table.
func TestSpillSeedSpills(t *testing.T) {
	var cm compressionMap
	if _, err := messageFromBytes(spillSeed()).appendPacked(nil, &cm); err != nil {
		t.Fatal(err)
	}
	if len(cm.spill) == 0 {
		t.Fatalf("%d suffixes, none spilled", cm.n)
	}
}
