package dnsclient

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/netip"
	"time"
)

// TCPTransport exchanges DNS messages over TCP with RFC 1035 §4.2.2
// two-byte length framing. The client uses it automatically when a UDP
// response arrives truncated (TC bit).
type TCPTransport struct {
	// Timeout bounds the whole exchange (default 5 s).
	Timeout time.Duration
	// Port is the destination port (default 53).
	Port uint16
}

// Exchange implements Transport.
func (t *TCPTransport) Exchange(server netip.Addr, payload []byte) ([]byte, time.Duration, error) {
	timeout := t.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	port := t.Port
	if port == 0 {
		port = 53
	}
	if len(payload) > 0xFFFF {
		return nil, 0, fmt.Errorf("dnsclient: message too large for TCP framing")
	}
	start := time.Now()
	conn, err := net.DialTimeout("tcp", netip.AddrPortFrom(server, port).String(), timeout)
	if err != nil {
		// A failed exchange still cost the caller the time it burned: a
		// dial that times out is the most expensive outcome there is.
		return nil, time.Since(start), fmt.Errorf("dnsclient: tcp dial: %w", err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(start.Add(timeout)); err != nil {
		return nil, time.Since(start), fmt.Errorf("dnsclient: set deadline: %w", err)
	}
	framed := make([]byte, 2+len(payload))
	binary.BigEndian.PutUint16(framed, uint16(len(payload)))
	copy(framed[2:], payload)
	if _, err := conn.Write(framed); err != nil {
		return nil, time.Since(start), fmt.Errorf("dnsclient: tcp send: %w", err)
	}
	var lenBuf [2]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		return nil, time.Since(start), fmt.Errorf("dnsclient: tcp recv length: %w", err)
	}
	resp := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
	if _, err := io.ReadFull(conn, resp); err != nil {
		return nil, time.Since(start), fmt.Errorf("dnsclient: tcp recv body: %w", err)
	}
	return resp, time.Since(start), nil
}
