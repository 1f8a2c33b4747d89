//go:build !linux

package sockopt

import "syscall"

// ReusePortAvailable reports whether this platform supports
// SO_REUSEPORT listener sharding.
const ReusePortAvailable = false

// reusePortControl is never reached on non-Linux platforms: ListenUDP
// fails with ErrUnsupported before consulting it.
func reusePortControl(network, address string, c syscall.RawConn) error {
	return ErrUnsupported
}
