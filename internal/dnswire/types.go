// Package dnswire implements the DNS wire format (RFC 1035 and friends)
// from scratch: message header, domain-name encoding with compression,
// questions, resource records for the types the measurement suite needs
// (A, AAAA, CNAME, NS, PTR, SOA, TXT, MX and OPT/EDNS0), and a
// serializer/parser pair.
//
// Each side has a stateless form and a reusable one. Pack and Append
// allocate their output; an Encoder reuses its buffer and compression
// table. Parse builds a fresh message and every name and RDATA in it; a
// Decoder parses into a reused Scratch and shares the immutable values
// (names and boxed A, AAAA, CNAME, NS and PTR RDATA) across the messages
// it parses. What a reusable form hands back lives until its next use:
// Encoder bytes until the next Encode, a Scratch's message until the next
// parse into it. Neither is safe for concurrent use, so a component that
// serves one message at a time owns one Encoder and one Scratch per role
// and a Decoder.
//
// The codec is shared by the real-socket tools (cmd/dnsprobe, cmd/adnsd)
// and the simulated resolvers: both sides exchange genuine DNS packets.
package dnswire

import "fmt"

// Type is a DNS RR type (RFC 1035 §3.2.2 and successors).
type Type uint16

// Supported RR types.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypePTR   Type = 12
	TypeMX    Type = 15
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeOPT   Type = 41
	TypeANY   Type = 255
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypePTR:
		return "PTR"
	case TypeMX:
		return "MX"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	case TypeOPT:
		return "OPT"
	case TypeANY:
		return "ANY"
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// Class is a DNS class. Only IN is used in practice.
type Class uint16

// DNS classes.
const (
	ClassIN  Class = 1
	ClassANY Class = 255
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassIN:
		return "IN"
	case ClassANY:
		return "ANY"
	}
	return fmt.Sprintf("CLASS%d", uint16(c))
}

// Opcode is the operation code in the message header.
type Opcode uint8

// Opcodes.
const (
	OpcodeQuery  Opcode = 0
	OpcodeStatus Opcode = 2
)

// RCode is a response code.
type RCode uint8

// Response codes (RFC 1035 §4.1.1).
const (
	RCodeSuccess  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

// String implements fmt.Stringer.
func (rc RCode) String() string {
	switch rc {
	case RCodeSuccess:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	}
	return fmt.Sprintf("RCODE%d", uint8(rc))
}

// Header is the fixed 12-byte DNS message header, unpacked.
type Header struct {
	ID                 uint16
	Response           bool
	Opcode             Opcode
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode
}

// Question is a query in the question section.
type Question struct {
	Name  Name
	Type  Type
	Class Class
}

// String implements fmt.Stringer.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", q.Name, q.Class, q.Type)
}
