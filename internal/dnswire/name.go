package dnswire

import (
	"bytes"
	"errors"
	"strings"
)

// Name is a fully-qualified domain name in presentation format without the
// trailing dot ("www.example.com"). The root name is the empty string.
// Names compare case-insensitively per RFC 1035 §2.3.3; use Equal.
type Name string

// Errors returned by name encoding/decoding.
var (
	ErrNameTooLong   = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong  = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel    = errors.New("dnswire: empty label")
	ErrBadPointer    = errors.New("dnswire: bad compression pointer")
	ErrPointerLoop   = errors.New("dnswire: compression pointer loop")
	ErrNameTruncated = errors.New("dnswire: truncated name")
	ErrTooManyLabels = errors.New("dnswire: too many labels")
	// ErrReservedLabel and ErrLabelDot are sentinel (not fmt-built) errors
	// because they are returned from the //lint:hotpath decode path.
	ErrReservedLabel = errors.New("dnswire: reserved label type")
	ErrLabelDot      = errors.New("dnswire: label contains '.'")
)

const (
	maxNameWire  = 255
	maxLabelWire = 63
)

// Parent returns the name with its leftmost label removed ("a.b.c" → "b.c").
// The parent of a single-label name is the root (empty) name.
func (n Name) Parent() Name {
	i := strings.IndexByte(string(n), '.')
	if i < 0 {
		return ""
	}
	return n[i+1:]
}

// HasSuffix reports whether n is equal to, or a subdomain of, suffix.
func (n Name) HasSuffix(suffix Name) bool {
	if suffix == "" {
		return true
	}
	nl, sl := strings.ToLower(string(n)), strings.ToLower(string(suffix))
	if nl == sl {
		return true
	}
	return strings.HasSuffix(nl, "."+sl)
}

// String implements fmt.Stringer, rendering the root as ".".
func (n Name) String() string {
	if n == "" {
		return "."
	}
	return string(n)
}

// validate checks label and total-length constraints.
//
//lint:hotpath called from appendName on every encoded name
func (n Name) validate() error {
	s := trimRoot(n)
	if s == "" {
		return nil
	}
	// Wire length is presentation length + 2 (k length octets plus the
	// root byte, minus the k-1 presentation dots).
	if len(s)+2 > maxNameWire {
		return ErrNameTooLong
	}
	labelLen := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			if labelLen == 0 {
				return ErrEmptyLabel
			}
			labelLen = 0
			continue
		}
		labelLen++
		if labelLen > maxLabelWire {
			return ErrLabelTooLong
		}
	}
	if labelLen == 0 {
		return ErrEmptyLabel
	}
	return nil
}

// trimRoot strips the optional trailing dot; the root name becomes "".
func trimRoot(n Name) string {
	s := string(n)
	if strings.HasSuffix(s, ".") {
		s = s[:len(s)-1]
	}
	return s
}

// lowerASCII returns s with ASCII uppercase letters lowered. It returns s
// itself (no allocation) when s is already lowercase — the common case for
// names flowing through the encoder. DNS case-insensitivity is ASCII-only
// (RFC 4343), so non-ASCII bytes pass through untouched and the result is
// always the same length as s, which keeps suffix offsets aligned.
func lowerASCII(s string) string {
	i := 0
	for ; i < len(s); i++ {
		if c := s[i]; 'A' <= c && c <= 'Z' {
			break
		}
	}
	if i == len(s) {
		return s
	}
	b := []byte(s)
	for ; i < len(b); i++ {
		if c := b[i]; 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// inlineSuffixes is how many suffixes a compressionMap holds before it
// spills to a map. A campaign reply (question, CNAME, a few A records)
// records fewer than ten.
const inlineSuffixes = 32

// compressionMap tracks name suffixes already emitted into a message so
// later occurrences can be replaced with 2-byte pointers (RFC 1035 §4.1.4).
// Keys are lowercased suffixes; with an all-lowercase name they are tail
// slices of the name string and cost no allocation. The first
// inlineSuffixes keys live in a table searched linearly, so a packer that
// keeps the compressionMap on its stack allocates nothing for it; later
// keys go to a map made on first spill. A key is added only after a miss,
// so every key is unique and the two tiers answer exactly as one map would.
// The zero value is empty and ready to use.
type compressionMap struct {
	n      int
	inline [inlineSuffixes]suffixOffset
	spill  map[string]int
}

type suffixOffset struct {
	suffix string
	off    int
}

// lookup returns the message offset at which suffix was first emitted.
//
//lint:hotpath linear search of the inline table on every label
func (cm *compressionMap) lookup(suffix string) (int, bool) {
	for i := range cm.inline[:cm.n] {
		if cm.inline[i].suffix == suffix {
			return cm.inline[i].off, true
		}
	}
	off, ok := cm.spill[suffix]
	return off, ok
}

// add records that suffix was emitted at message offset off. suffix must
// not be present already.
//
//lint:hotpath fills the inline table; spilling is out of line
func (cm *compressionMap) add(suffix string, off int) {
	if cm.n < len(cm.inline) {
		cm.inline[cm.n] = suffixOffset{suffix: suffix, off: off}
		cm.n++
		return
	}
	cm.addSpill(suffix, off)
}

// addSpill records a suffix past the inline table, making the map on the
// first spill.
func (cm *compressionMap) addSpill(suffix string, off int) {
	if cm.spill == nil {
		cm.spill = make(map[string]int)
	}
	cm.spill[suffix] = off
}

// reset empties cm for the next message, keeping the spill map's buckets.
func (cm *compressionMap) reset() {
	clear(cm.inline[:cm.n]) // drop the suffix strings of the last message
	cm.n = 0
	clear(cm.spill)
}

// appendName appends the wire encoding of n to buf, using and updating the
// compression map when cm is non-nil. msgStart is the index in buf where
// the DNS message begins (names in this codec always start at 0, but the
// parameter keeps the helper honest if the buffer carries a prefix).
//
// Labels are emitted in their original case; compression keys are
// lowercased, so a pointer may substitute a differently-cased tail of an
// earlier name — legal under RFC 1035 §2.3.3 case-insensitivity.
//
//lint:hotpath zero allocations with reused buf and cm and a lowercase name
func appendName(buf []byte, n Name, cm *compressionMap, msgStart int) ([]byte, error) {
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
			if off, ok := cm.lookup(suffix); ok && off < 0x3FFF {
				// Emit pointer to prior occurrence and stop.
				buf = append(buf, 0xC0|byte(off>>8), byte(off))
				return buf, nil
			}
			if pos := len(buf) - msgStart; pos < 0x3FFF {
				cm.add(suffix, pos)
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
	buf = append(buf, 0) // root
	return buf, nil
}

// decodeName decodes a possibly-compressed name starting at off within msg,
// appending its presentation form to dst (which may be nil or a reused
// buffer sliced to the caller's current length). It returns the extended
// dst and the offset just past the name's first encoding (i.e. past the
// pointer if the name was compressed). On error the returned dst may hold
// a partial name; callers must treat it as scratch.
//
//lint:hotpath zero allocations once dst has grown to capacity
func decodeName(msg []byte, off int, dst []byte) ([]byte, int, error) {
	base := len(dst)
	ptrBudget := 64 // generous loop guard: real names have far fewer jumps
	end := -1       // offset after the first (non-pointer-target) encoding
	pos := off
	for {
		if pos >= len(msg) {
			return dst, 0, ErrNameTruncated
		}
		b := msg[pos]
		switch {
		case b == 0:
			if end < 0 {
				end = pos + 1
			}
			return dst, end, nil
		case b&0xC0 == 0xC0:
			if pos+1 >= len(msg) {
				return dst, 0, ErrNameTruncated
			}
			target := int(b&0x3F)<<8 | int(msg[pos+1])
			if end < 0 {
				end = pos + 2
			}
			if target >= pos {
				// Pointers must point strictly backwards.
				return dst, 0, ErrBadPointer
			}
			ptrBudget--
			if ptrBudget <= 0 {
				return dst, 0, ErrPointerLoop
			}
			pos = target
		case b&0xC0 != 0:
			return dst, 0, ErrReservedLabel
		default:
			l := int(b)
			if pos+1+l > len(msg) {
				return dst, 0, ErrNameTruncated
			}
			label := msg[pos+1 : pos+1+l]
			// A '.' inside a wire label has no unambiguous presentation
			// form: "a.b" as ONE label would re-encode as two. Reject it
			// so every parsed Name round-trips through appendName.
			if bytes.IndexByte(label, '.') >= 0 {
				return dst, 0, ErrLabelDot
			}
			if len(dst) > base {
				dst = append(dst, '.')
			}
			dst = append(dst, label...)
			// Same wire-length bound as validate: presentation length + 2.
			if len(dst)-base+2 > maxNameWire {
				return dst, 0, ErrNameTooLong
			}
			pos += 1 + l
		}
	}
}

// sharedNames is a parse's record of the labels it has decoded, so a
// later name that is nothing but a pointer to one of them (the owner of
// every record after a CNAME, say) can be a substring of the earlier Name
// instead of a fresh decode and allocation. Each label keeps the pointer
// hops its suffix took, so a shared name is shared only where a fresh
// decode would accept it too. A full table records nothing more and later
// names decode as usual; the zero value is empty and ready to use.
type sharedNames struct {
	n      int
	labels [16]sharedLabel
}

type sharedLabel struct {
	pos    uint16 // wire offset of the label's length octet
	hops   uint8  // pointer jumps taken decoding suffix from pos
	suffix Name   // the name decoded from pos
}

// name decodes the name at off into an immutable Name, sharing it within
// the message through p.shared and across messages through p.dec. Names
// are decoded in wire order, so every recorded label lies before off and
// a pointer to it is one a fresh decode would follow too. A nil parser
// only checks (Check's walk): it decodes into stack scratch and returns
// the root name.
func (p *parser) name(msg []byte, off int) (Name, int, error) {
	if p == nil {
		var scratch [maxNameWire + maxLabelWire]byte
		_, end, err := decodeName(msg, off, scratch[:0])
		return "", end, err
	}
	if n, ok := p.shared.pointee(msg, off); ok {
		return n, off + 2, nil
	}
	// The scratch is sized so that no legal name (and no label that tips
	// one over the limit) outgrows it; the Decoder's table, or the one
	// []byte→string conversion when there is none, is all that allocates.
	var scratch [maxNameWire + maxLabelWire]byte
	b, end, err := decodeName(msg, off, scratch[:0])
	if err != nil {
		return "", 0, err
	}
	n := p.dec.name(b)
	p.shared.record(msg, off, n)
	return n, end, nil
}

// pointee returns the recorded suffix that the name at off points to,
// when that name is nothing but a pointer to a recorded label.
func (t *sharedNames) pointee(msg []byte, off int) (Name, bool) {
	if off+1 < len(msg) && msg[off]&0xC0 == 0xC0 {
		target := int(msg[off]&0x3F)<<8 | int(msg[off+1])
		for _, l := range t.labels[:t.n] {
			// decodeName allows 63 jumps; following this pointer is one.
			if int(l.pos) == target && l.hops < 63 {
				return l.suffix, true
			}
		}
	}
	return "", false
}

// record adds the labels of n that were encoded in place at off, before
// any pointer, and that a pointer can reach. decodeName has already
// validated the bytes it walks, pointer chain included.
func (t *sharedNames) record(msg []byte, off int, n Name) {
	first, hops := t.n, 0
	for pos, i := off, 0; msg[pos] != 0; {
		l := int(msg[pos])
		if l&0xC0 != 0 {
			hops++
			pos = (l&0x3F)<<8 | int(msg[pos+1])
			continue
		}
		if hops == 0 && pos <= 0x3FFF && t.n < len(t.labels) {
			t.labels[t.n] = sharedLabel{pos: uint16(pos), suffix: n[i:]}
			t.n++
		}
		pos += 1 + l
		i += 1 + l
	}
	for k := first; k < t.n; k++ {
		t.labels[k].hops = uint8(hops)
	}
}
