// Package sockopt provides UDP listeners with SO_REUSEPORT, the kernel
// feature behind dnsserver's listener sharding: N sockets bound to the
// same address each get their own receive queue, and the kernel
// load-balances incoming packets across them by flow hash. Each shard
// then runs its own read loop without contending on a shared socket
// lock.
//
// SO_REUSEPORT is Linux-specific here (sockopt_linux.go); on other
// platforms ReusePortAvailable is false and requesting a reuse-port
// listener fails with ErrUnsupported, so callers degrade to a single
// listener (sockopt_portable.go).
package sockopt

import (
	"context"
	"errors"
	"fmt"
	"net"
)

// ErrUnsupported is returned when a reuse-port listener is requested on
// a platform without SO_REUSEPORT support.
var ErrUnsupported = errors.New("sockopt: SO_REUSEPORT is not supported on this platform")

// ListenUDP binds a UDP socket on addr. With reusePort set, the socket
// is created with SO_REUSEPORT so further sockets can bind the same
// address and share the load.
func ListenUDP(addr string, reusePort bool) (*net.UDPConn, error) {
	lc := net.ListenConfig{}
	if reusePort {
		if !ReusePortAvailable {
			return nil, fmt.Errorf("sockopt: listen udp %s: %w", addr, ErrUnsupported)
		}
		lc.Control = reusePortControl
	}
	pc, err := lc.ListenPacket(context.Background(), "udp", addr)
	if err != nil {
		return nil, fmt.Errorf("sockopt: listen udp %s: %w", addr, err)
	}
	uc, ok := pc.(*net.UDPConn)
	if !ok {
		_ = pc.Close() // best-effort: the listener is unusable either way
		return nil, fmt.Errorf("sockopt: listen udp %s: unexpected conn type %T", addr, pc)
	}
	return uc, nil
}
