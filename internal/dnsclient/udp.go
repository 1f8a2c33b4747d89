package dnsclient

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"cellcurtain/internal/dnswire"
)

// UDPTransport exchanges DNS datagrams over real UDP sockets. It is used
// by the standalone measurement tools; the simulation uses a fabric-backed
// transport instead.
type UDPTransport struct {
	// Timeout bounds each exchange (default 2 s).
	Timeout time.Duration
	// Port is the destination port (default 53).
	Port uint16
	// LocalAddr optionally pins the local address.
	LocalAddr *net.UDPAddr
}

// Exchange implements Transport.
func (u *UDPTransport) Exchange(server netip.Addr, payload []byte) ([]byte, time.Duration, error) {
	timeout := u.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	port := u.Port
	if port == 0 {
		port = 53
	}
	raddr := net.UDPAddrFromAddrPort(netip.AddrPortFrom(server, port))
	conn, err := net.DialUDP("udp", u.LocalAddr, raddr)
	if err != nil {
		return nil, 0, fmt.Errorf("dnsclient: dial %s: %w", raddr, err)
	}
	defer conn.Close()

	start := time.Now()
	if err := conn.SetDeadline(start.Add(timeout)); err != nil {
		return nil, time.Since(start), fmt.Errorf("dnsclient: set deadline: %w", err)
	}
	if _, err := conn.Write(payload); err != nil {
		return nil, time.Since(start), fmt.Errorf("dnsclient: send: %w", err)
	}
	// Even on a connected socket, the first datagram back is not
	// necessarily the answer: under load, late responses to earlier
	// exchanges from the same source port (retries, previous attempts)
	// arrive interleaved. Discard anything that does not match this
	// query's ID and question, and keep reading until the deadline.
	buf := readBufs.Get().(*[4096]byte)
	defer readBufs.Put(buf)
	for {
		n, err := conn.Read(buf[:])
		rtt := time.Since(start)
		if err != nil {
			return nil, rtt, fmt.Errorf("dnsclient: recv: %w", err)
		}
		if !responseMatches(payload, buf[:n]) {
			continue
		}
		return bytes.Clone(buf[:n]), rtt, nil
	}
}

// readBufs holds Exchange's receive buffers. A reply is read into one and
// copied out at its own length, so no answer keeps 4 KB alive.
var readBufs = sync.Pool{New: func() any { return new([4096]byte) }}

// responseMatches reports whether resp is a response to the query sent
// as payload: matching ID, QR bit set, a message Parse would accept, and
// (when the query is one well-formed question) the same single question.
// Anything else is a stray datagram to discard. It allocates nothing.
func responseMatches(payload, resp []byte) bool {
	if len(resp) < 12 || len(payload) < 12 {
		return false
	}
	if resp[0] != payload[0] || resp[1] != payload[1] || resp[2]&0x80 == 0 {
		return false
	}
	if dnswire.Check(payload) != nil || binary.BigEndian.Uint16(payload[4:]) != 1 {
		return true // ID-only match is the best an opaque payload allows
	}
	return dnswire.Check(resp) == nil && dnswire.SameQuestion(payload, resp)
}
