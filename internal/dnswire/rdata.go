package dnswire

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
)

// RData is the type-specific payload of a resource record.
type RData interface {
	// Type returns the RR type this payload belongs to.
	Type() Type
	// appendTo appends the wire encoding of the RDATA (without the length
	// prefix). Names inside RDATA of well-known types may be compressed
	// through cm; appendRecord calls those types directly, not through
	// this interface, so a packer's compressionMap can stay on its stack.
	appendTo(buf []byte, cm *compressionMap) ([]byte, error)
	// String renders the payload in presentation-ish format.
	String() string
}

// A is an IPv4 address record.
type A struct{ Addr netip.Addr }

// Type implements RData.
func (A) Type() Type { return TypeA }

func (a A) appendTo(buf []byte, _ *compressionMap) ([]byte, error) {
	if !a.Addr.Is4() {
		return nil, fmt.Errorf("dnswire: A record with non-IPv4 address %v", a.Addr)
	}
	v4 := a.Addr.As4()
	return append(buf, v4[:]...), nil
}

// String implements RData.
func (a A) String() string { return a.Addr.String() }

// AAAA is an IPv6 address record.
type AAAA struct{ Addr netip.Addr }

// Type implements RData.
func (AAAA) Type() Type { return TypeAAAA }

func (a AAAA) appendTo(buf []byte, _ *compressionMap) ([]byte, error) {
	if !a.Addr.Is6() || a.Addr.Is4In6() {
		return nil, fmt.Errorf("dnswire: AAAA record with non-IPv6 address %v", a.Addr)
	}
	v6 := a.Addr.As16()
	return append(buf, v6[:]...), nil
}

// String implements RData.
func (a AAAA) String() string { return a.Addr.String() }

// CNAME is a canonical-name record.
type CNAME struct{ Target Name }

// Type implements RData.
func (CNAME) Type() Type { return TypeCNAME }

func (c CNAME) appendTo(buf []byte, cm *compressionMap) ([]byte, error) {
	return appendName(buf, c.Target, cm, 0)
}

// String implements RData.
func (c CNAME) String() string { return c.Target.String() }

// NS is a name-server record.
type NS struct{ Host Name }

// Type implements RData.
func (NS) Type() Type { return TypeNS }

func (n NS) appendTo(buf []byte, cm *compressionMap) ([]byte, error) {
	return appendName(buf, n.Host, cm, 0)
}

// String implements RData.
func (n NS) String() string { return n.Host.String() }

// PTR is a pointer record.
type PTR struct{ Target Name }

// Type implements RData.
func (PTR) Type() Type { return TypePTR }

func (p PTR) appendTo(buf []byte, cm *compressionMap) ([]byte, error) {
	return appendName(buf, p.Target, cm, 0)
}

// String implements RData.
func (p PTR) String() string { return p.Target.String() }

// MX is a mail-exchanger record.
type MX struct {
	Preference uint16
	Host       Name
}

// Type implements RData.
func (MX) Type() Type { return TypeMX }

func (m MX) appendTo(buf []byte, cm *compressionMap) ([]byte, error) {
	buf = binary.BigEndian.AppendUint16(buf, m.Preference)
	return appendName(buf, m.Host, cm, 0)
}

// String implements RData.
func (m MX) String() string { return fmt.Sprintf("%d %s", m.Preference, m.Host) }

// SOA is a start-of-authority record.
type SOA struct {
	MName, RName           Name
	Serial, Refresh, Retry uint32
	Expire, Minimum        uint32
}

// Type implements RData.
func (SOA) Type() Type { return TypeSOA }

func (s SOA) appendTo(buf []byte, cm *compressionMap) ([]byte, error) {
	var err error
	if buf, err = appendName(buf, s.MName, cm, 0); err != nil {
		return nil, err
	}
	if buf, err = appendName(buf, s.RName, cm, 0); err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint32(buf, s.Serial)
	buf = binary.BigEndian.AppendUint32(buf, s.Refresh)
	buf = binary.BigEndian.AppendUint32(buf, s.Retry)
	buf = binary.BigEndian.AppendUint32(buf, s.Expire)
	buf = binary.BigEndian.AppendUint32(buf, s.Minimum)
	return buf, nil
}

// String implements RData.
func (s SOA) String() string {
	return fmt.Sprintf("%s %s %d %d %d %d %d",
		s.MName, s.RName, s.Serial, s.Refresh, s.Retry, s.Expire, s.Minimum)
}

// TXT is a text record holding one or more character strings.
type TXT struct{ Strings []string }

// Type implements RData.
func (TXT) Type() Type { return TypeTXT }

func (t TXT) appendTo(buf []byte, _ *compressionMap) ([]byte, error) {
	if len(t.Strings) == 0 {
		// A TXT RR must contain at least one (possibly empty) string.
		return append(buf, 0), nil
	}
	for _, s := range t.Strings {
		if len(s) > 255 {
			return nil, fmt.Errorf("dnswire: TXT string exceeds 255 bytes")
		}
		buf = append(buf, byte(len(s)))
		buf = append(buf, s...)
	}
	return buf, nil
}

// String implements RData.
func (t TXT) String() string {
	quoted := make([]string, len(t.Strings))
	for i, s := range t.Strings {
		quoted[i] = fmt.Sprintf("%q", s)
	}
	return strings.Join(quoted, " ")
}

// OPT is the EDNS0 pseudo-record (RFC 6891). The UDP payload size travels
// in the RR class field and the extended RCODE/flags in the TTL field;
// Record.appendTo and parseRecord handle that mapping.
type OPT struct {
	UDPSize uint16
	Options []EDNSOption
}

// EDNSOption is one EDNS option TLV.
type EDNSOption struct {
	Code uint16
	Data []byte
}

// EDNS option codes.
const (
	// OptionClientSubnet is the EDNS Client Subnet option (RFC 7871),
	// implemented for the what-if localization experiment.
	OptionClientSubnet uint16 = 8
)

// Type implements RData.
func (OPT) Type() Type { return TypeOPT }

func (o OPT) appendTo(buf []byte, _ *compressionMap) ([]byte, error) {
	for _, opt := range o.Options {
		if len(opt.Data) > 0xFFFF {
			return nil, fmt.Errorf("dnswire: EDNS option too long")
		}
		buf = binary.BigEndian.AppendUint16(buf, opt.Code)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(opt.Data)))
		buf = append(buf, opt.Data...)
	}
	return buf, nil
}

// String implements RData.
func (o OPT) String() string {
	return fmt.Sprintf("OPT udp=%d options=%d", o.UDPSize, len(o.Options))
}

// ClientSubnet encodes an RFC 7871 client-subnet payload for an IPv4
// prefix. SourcePrefix is the prefix length the client announces.
func ClientSubnet(prefix netip.Prefix) (EDNSOption, error) {
	addr := prefix.Addr()
	if !addr.Is4() {
		return EDNSOption{}, fmt.Errorf("dnswire: only IPv4 client subnets supported")
	}
	bits := prefix.Bits()
	nBytes := (bits + 7) / 8
	v4 := addr.As4()
	data := make([]byte, 4+nBytes)
	binary.BigEndian.PutUint16(data[0:2], 1) // family: IPv4
	data[2] = byte(bits)                     // source prefix length
	data[3] = 0                              // scope prefix length
	copy(data[4:], v4[:nBytes])
	return EDNSOption{Code: OptionClientSubnet, Data: data}, nil
}

// ParseClientSubnet decodes an RFC 7871 IPv4 client-subnet payload.
func ParseClientSubnet(opt EDNSOption) (netip.Prefix, error) {
	if opt.Code != OptionClientSubnet {
		return netip.Prefix{}, fmt.Errorf("dnswire: option %d is not client-subnet", opt.Code)
	}
	if len(opt.Data) < 4 {
		return netip.Prefix{}, fmt.Errorf("dnswire: client-subnet payload too short")
	}
	if fam := binary.BigEndian.Uint16(opt.Data[0:2]); fam != 1 {
		return netip.Prefix{}, fmt.Errorf("dnswire: unsupported client-subnet family %d", fam)
	}
	bits := int(opt.Data[2])
	if bits > 32 {
		return netip.Prefix{}, fmt.Errorf("dnswire: bad source prefix length %d", bits)
	}
	var v4 [4]byte
	n := copy(v4[:], opt.Data[4:])
	if n < (bits+7)/8 {
		return netip.Prefix{}, fmt.Errorf("dnswire: client-subnet address truncated")
	}
	return netip.PrefixFrom(netip.AddrFrom4(v4), bits).Masked(), nil
}

// RawRData carries the undecoded RDATA of an unsupported type through the
// parser so messages survive a parse/serialize round trip.
type RawRData struct {
	T    Type
	Data []byte
}

// Type implements RData.
func (r RawRData) Type() Type { return r.T }

func (r RawRData) appendTo(buf []byte, _ *compressionMap) ([]byte, error) {
	return append(buf, r.Data...), nil
}

// String implements RData.
func (r RawRData) String() string { return fmt.Sprintf("\\# %d", len(r.Data)) }
