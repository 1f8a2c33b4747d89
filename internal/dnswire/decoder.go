package dnswire

import (
	"encoding/binary"
	"math/bits"
	"net/netip"
)

// decoderSlots is the length of each of a Decoder's three tables. Their
// entries are 16 bytes, so a Decoder is 6 KB whatever it has parsed.
// Across a simulated world's Decoders, 256 slots kept ~120 KB more live
// heap than 128 and saved 4 % of an experiment's allocations.
const (
	slotBits     = 7
	decoderSlots = 1 << slotBits
)

// Decoder parses messages as Parse does — the same checks and the same
// errors — into a caller's Scratch, and keeps the parts of a message that
// nothing can change to hand them out again on a later parse: names,
// keyed by their exact decoded bytes (so case is kept), and boxed A,
// AAAA, CNAME, NS and PTR RDATA. A component that meets the same names
// and addresses over and over (a resolver, an authority, a measuring
// device) gets back what it built before instead of allocating it again.
// TXT, OPT and unknown RDATA carry slices a caller could change, so they
// are always built fresh, as are MX and SOA.
//
// Each table is direct-mapped and fixed in size: a new value takes its
// slot from the old one, so no input can grow a Decoder, and a miss
// decodes as Parse does. The zero value is ready to use. A Decoder is not
// safe for concurrent use.
type Decoder struct {
	names   [decoderSlots]Name
	addrs   [decoderSlots]RData // boxed A and AAAA
	targets [decoderSlots]RData // boxed CNAME, NS and PTR
}

// Scratch is the storage a Decoder parses a message into, reused by every
// parse into it: the Message, its question and one record slab for all
// three sections, which grows to the largest message seen and no
// further. The zero value is ready to use. Any number of Scratches may
// share one Decoder; a component keeps one per role (the query it serves,
// the answer it forwards) so that one message outlives the next parse of
// the other.
type Scratch struct {
	msg  Message
	q    [1]Question
	recs []Record
}

// ParseInto decodes a complete DNS message into s and returns s's
// Message: equal to what Parse returns for msg, or nil and Parse's error.
// The Message, its sections and its records are s's and stay valid only
// until the next parse into s; its names and RDATA are immutable values
// that outlive it. A warm Decoder parses a message of at most one
// question, whose names and RDATA its tables hold, into a Scratch that
// has seen one as large without allocating. Each section's capacity is
// capped at its length, so an append to one section copies it instead of
// writing over the next.
func (d *Decoder) ParseInto(msg []byte, s *Scratch) (*Message, error) {
	p := parser{dec: d, into: s}
	return walk(msg, &p)
}

// reset empties s for a message of qd questions and n records, and
// returns its Message and a slab of n records.
func (s *Scratch) reset(qd, n int) (*Message, []Record) {
	s.msg = Message{}
	if qd == 1 {
		s.msg.Questions = s.q[:0:1]
	}
	if n > cap(s.recs) {
		s.recs = make([]Record, n)
	}
	return &s.msg, s.recs[:n]
}

// name returns b as a Name: the table's, when b's slot holds exactly
// these bytes, else a fresh one that takes the slot. A nil Decoder
// builds every name fresh, as Parse does.
func (d *Decoder) name(b []byte) Name {
	if d == nil {
		return Name(b)
	}
	s, hit := d.nameEntry(b)
	if !hit {
		*s = Name(b)
	}
	return *s
}

// nameEntry returns b's slot and whether it holds b.
//
//lint:hotpath the name-table hit of every name a Decoder decodes
func (d *Decoder) nameEntry(b []byte) (*Name, bool) {
	s := &d.names[nameSlot(b)]
	//lint:ignore hotpath a conversion that is only compared copies nothing
	return s, string(*s) == string(b)
}

// addr returns a boxed A (t is TypeA) or AAAA holding a, from the table
// when it has one. A nil Decoder boxes afresh, as Parse does.
func (d *Decoder) addr(t Type, a netip.Addr) RData {
	if d == nil {
		return boxAddr(t, a)
	}
	s, hit := d.addrEntry(t, a)
	if !hit {
		*s = boxAddr(t, a)
	}
	return *s
}

func boxAddr(t Type, a netip.Addr) RData {
	if t == TypeA {
		return A{Addr: a}
	}
	return AAAA{Addr: a}
}

// addrEntry returns a's slot and whether it holds a as RDATA of type t.
//
//lint:hotpath the address-table hit of every A and AAAA a Decoder decodes
func (d *Decoder) addrEntry(t Type, a netip.Addr) (*RData, bool) {
	s := &d.addrs[addrSlot(a)]
	switch rd := (*s).(type) {
	case A:
		return s, t == TypeA && rd.Addr == a
	case AAAA:
		return s, t == TypeAAAA && rd.Addr == a
	}
	return s, false
}

// target returns a boxed CNAME, NS or PTR (as t says) naming n, from the
// table when it has one. A nil Decoder boxes afresh, as Parse does.
func (d *Decoder) target(t Type, n Name) RData {
	if d == nil {
		return boxTarget(t, n)
	}
	s, hit := d.targetEntry(t, n)
	if !hit {
		*s = boxTarget(t, n)
	}
	return *s
}

func boxTarget(t Type, n Name) RData {
	switch t {
	case TypeCNAME:
		return CNAME{Target: n}
	case TypeNS:
		return NS{Host: n}
	}
	return PTR{Target: n}
}

// targetEntry returns the slot of (t, n) and whether it holds n as RDATA
// of type t.
//
//lint:hotpath the target-table hit of every CNAME, NS and PTR a Decoder decodes
func (d *Decoder) targetEntry(t Type, n Name) (*RData, bool) {
	s := &d.targets[(nameSlot(n)^uint(t))%decoderSlots]
	switch rd := (*s).(type) {
	case CNAME:
		return s, t == TypeCNAME && rd.Target == n
	case NS:
		return s, t == TypeNS && rd.Host == n
	case PTR:
		return s, t == TypePTR && rd.Target == n
	}
	return s, false
}

// nameSlot maps a name to a table slot from its length and its first and
// last eight bytes, which tell apart the names a campaign meets. Names
// that share all three share a slot; a collision costs only a miss.
//
//lint:hotpath hashes every name a Decoder looks up
func nameSlot[T ~string | ~[]byte](s T) uint {
	var head, tail uint64
	for i := range min(len(s), 8) {
		head = head<<8 | uint64(s[i])
		tail = tail<<8 | uint64(s[len(s)-1-i])
	}
	return mixSlot(head ^ bits.RotateLeft64(tail, 32) ^ uint64(len(s)))
}

// addrSlot maps an address to a table slot.
//
//lint:hotpath hashes every address a Decoder looks up
func addrSlot(a netip.Addr) uint {
	b := a.As16()
	return mixSlot(binary.BigEndian.Uint64(b[:8]) ^ bits.RotateLeft64(binary.BigEndian.Uint64(b[8:]), 32))
}

// mixSlot is a multiplicative hash to a slot: its top bits depend on
// every bit of x.
func mixSlot(x uint64) uint { return uint((x * 0x9E3779B97F4A7C15) >> (64 - slotBits)) }
