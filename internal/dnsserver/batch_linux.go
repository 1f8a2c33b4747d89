//go:build linux && (amd64 || arm64)

package dnsserver

// Batched UDP I/O via the raw recvmmsg/sendmmsg syscalls. golang.org/x/net
// is deliberately not used — the repo is stdlib-only — so the mmsghdr
// layout and the syscall numbers come straight from the frozen syscall
// package (both syscalls predate its freeze on amd64 and arm64; other
// GOARCHes take the portable single-packet path in batch_portable.go).
//
// One recvmmsg call moves up to Batch packets off the socket and one
// sendmmsg call pushes up to Batch responses back, cutting the dominant
// per-query cost — syscall entry/exit — by the batch factor under load.
// The ring of buffers, iovecs and sockaddrs is allocated once per Serve,
// and the steady-state read path performs zero allocations per packet
// (TestHotPathAllocsBatchRead).

import (
	"net"
	"net/netip"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// batchIOAvailable gates the recvmmsg/sendmmsg loops in Serve.
const batchIOAvailable = true

// defaultBatch is the Batch value used when the Server leaves it zero.
const defaultBatch = 32

// mmsghdr mirrors struct mmsghdr: one msghdr plus the kernel-filled
// datagram length. Go's natural trailing padding matches the C layout on
// both 64-bit architectures built here.
type mmsghdr struct {
	hdr    syscall.Msghdr
	msgLen uint32
}

// batcher owns the recvmmsg/sendmmsg ring for one socket direction:
// parallel slices of headers, iovecs, sockaddr slots and pooled packet
// buffers, plus the closures handed to RawConn so the syscall sites
// allocate nothing per call.
type batcher struct {
	rc    syscall.RawConn
	size  int
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6 // large enough for both address families
	bufs  []*[]byte                  // read ring only; nil entries on the write side
	pkts  []packet                   // write staging only

	// Syscall results communicated out of the RawConn closures.
	n     int
	errno syscall.Errno

	readFn  func(uintptr) bool
	writeFn func(uintptr) bool
	off     int // first staged packet not yet sent (write side)
}

// newReadBatcher builds the receive ring: every slot gets a pooled
// buffer whose base pointer is registered in the slot's iovec.
func newReadBatcher(conn *net.UDPConn, size int, bufs *sync.Pool) (*batcher, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	b := &batcher{
		rc:    rc,
		size:  size,
		hdrs:  make([]mmsghdr, size),
		iovs:  make([]syscall.Iovec, size),
		names: make([]syscall.RawSockaddrInet6, size),
		bufs:  make([]*[]byte, size),
	}
	for i := 0; i < size; i++ {
		bp := bufs.Get().(*[]byte)
		b.bufs[i] = bp
		b.iovs[i].Base = &(*bp)[0]
		b.iovs[i].SetLen(len(*bp))
		b.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&b.names[i]))
		b.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(b.names[i]))
		b.hdrs[i].hdr.Iov = &b.iovs[i]
		b.hdrs[i].hdr.Iovlen = 1
	}
	b.readFn = func(fd uintptr) bool {
		n, _, errno := syscall.Syscall6(sysRECVMMSG, fd,
			uintptr(unsafe.Pointer(&b.hdrs[0])), uintptr(b.size), 0, 0, 0)
		if errno == syscall.EAGAIN {
			return false // not readable yet; let the poller wait
		}
		b.n, b.errno = int(n), errno
		return true
	}
	return b, nil
}

// read fills the ring with one recvmmsg call, blocking via the runtime
// poller until the socket is readable (read deadlines apply, which is
// how Drain unblocks this loop). It returns the number of datagrams
// received.
//
//lint:hotpath one recvmmsg syscall per up-to-Batch received packets
func (b *batcher) read() (int, error) {
	for i := 0; i < b.size; i++ {
		b.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(b.names[0]))
		b.hdrs[i].msgLen = 0
	}
	b.n, b.errno = 0, 0
	if err := b.rc.Read(b.readFn); err != nil {
		return 0, err
	}
	if b.errno != 0 {
		return 0, b.errno
	}
	return b.n, nil
}

// take hands slot i's packet out of the ring, swapping a fresh pooled
// buffer into the slot so the next recvmmsg has somewhere to land. The
// returned packet owns the old buffer.
//
//lint:hotpath per-packet handoff from the recvmmsg ring
func (b *batcher) take(i int, bufs *sync.Pool) (packet, bool) {
	n := int(b.hdrs[i].msgLen)
	addr, ok := sockaddrToAddrPort(&b.names[i])
	if n == 0 || !ok {
		return packet{}, false // keep the buffer in the ring
	}
	bp := b.bufs[i]
	fresh := bufs.Get().(*[]byte)
	b.bufs[i] = fresh
	b.iovs[i].Base = &(*fresh)[0]
	b.iovs[i].SetLen(len(*fresh))
	return packet{buf: bp, n: n, raddr: addr}, true
}

// release returns the ring's buffers to the pool when a loop exits.
func (b *batcher) release(bufs *sync.Pool) {
	for i, bp := range b.bufs {
		if bp != nil {
			bufs.Put(bp)
			b.bufs[i] = nil
		}
	}
}

// sockaddrToAddrPort decodes a kernel-written sockaddr. IPv4-mapped IPv6
// addresses are kept in 4-in-6 form, matching net.UDPConn's own
// ReadFromUDPAddrPort behavior on dual-stack sockets.
//
//lint:hotpath sockaddr decode on every received packet
func sockaddrToAddrPort(rsa *syscall.RawSockaddrInet6) (netip.AddrPort, bool) {
	switch rsa.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(p[0])<<8|uint16(p[1])), true
	case syscall.AF_INET6:
		p := (*[2]byte)(unsafe.Pointer(&rsa.Port))
		return netip.AddrPortFrom(netip.AddrFrom16(rsa.Addr), uint16(p[0])<<8|uint16(p[1])), true
	}
	return netip.AddrPort{}, false
}

// putSockaddr encodes ap into dst, returning the sockaddr length for the
// msghdr. The address family follows the address: responses go back
// exactly as they arrived, so the family always matches the socket's.
//
//lint:hotpath sockaddr encode on every sent response
func putSockaddr(dst *syscall.RawSockaddrInet6, ap netip.AddrPort) uint32 {
	port := ap.Port()
	if ap.Addr().Is4() {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(dst))
		sa.Family = syscall.AF_INET
		sa.Addr = ap.Addr().As4()
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		p[0], p[1] = byte(port>>8), byte(port)
		return syscall.SizeofSockaddrInet4
	}
	dst.Family = syscall.AF_INET6
	dst.Addr = ap.Addr().As16()
	dst.Flowinfo = 0
	dst.Scope_id = 0
	p := (*[2]byte)(unsafe.Pointer(&dst.Port))
	p[0], p[1] = byte(port>>8), byte(port)
	return syscall.SizeofSockaddrInet6
}

// serveBatch is the Linux read loop: one recvmmsg per up-to-Batch
// packets, then per-packet dispatch into the worker pool. Setup cost
// (the ring) is paid once; the loop body allocates nothing per packet.
//
//lint:hotpath batched read loop of every served query (ROADMAP item 2)
func (s *Server) serveBatch(conn *net.UDPConn, bufs *sync.Pool, jobs, writeq chan<- packet, batch int) error {
	b, err := newReadBatcher(conn, batch, bufs)
	if err != nil {
		// recvmmsg ring setup failed; serve single-packet rather than not at all.
		s.logf("dnsserver: batch setup: %v; falling back to single-packet loop", err)
		return s.serveSingle(conn, bufs, jobs, writeq)
	}
	for {
		n, err := b.read()
		if err != nil {
			b.release(bufs)
			return err
		}
		for i := 0; i < n; i++ {
			if p, ok := b.take(i, bufs); ok {
				s.dispatch(bufs, jobs, writeq, p)
			}
		}
	}
}

// newWriteBatcher builds the send ring; buffers are attached per flush
// from the packets being sent, so slots start empty.
func newWriteBatcher(conn *net.UDPConn, size int) (*batcher, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	b := &batcher{
		rc:    rc,
		size:  size,
		hdrs:  make([]mmsghdr, size),
		iovs:  make([]syscall.Iovec, size),
		names: make([]syscall.RawSockaddrInet6, size),
		pkts:  make([]packet, 0, size),
	}
	for i := 0; i < size; i++ {
		b.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&b.names[i]))
		b.hdrs[i].hdr.Iov = &b.iovs[i]
		b.hdrs[i].hdr.Iovlen = 1
	}
	b.writeFn = func(fd uintptr) bool {
		n, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&b.hdrs[b.off])), uintptr(len(b.pkts)-b.off), 0, 0, 0)
		if errno == syscall.EAGAIN {
			return false // socket buffer full; let the poller wait
		}
		b.n, b.errno = int(n), errno
		return true
	}
	return b, nil
}

// stage queues one response into the send ring. The caller flushes
// before staging more than size packets.
//
//lint:hotpath per-response staging into the sendmmsg ring
func (b *batcher) stage(p packet) {
	i := len(b.pkts)
	b.pkts = append(b.pkts, p)
	b.iovs[i].Base = &(*p.buf)[0]
	b.iovs[i].SetLen(p.n)
	b.hdrs[i].hdr.Namelen = putSockaddr(&b.names[i], p.raddr)
	b.hdrs[i].msgLen = 0
}

// flush sends every staged response with as few sendmmsg calls as the
// kernel allows, returning buffers to the pool as it goes. Per-datagram
// errors skip that datagram (counted by the server) instead of stalling
// the queue.
//
//lint:hotpath one sendmmsg syscall per up-to-Batch responses
func (b *batcher) flush(s *Server, bufs *sync.Pool) {
	for b.off = 0; b.off < len(b.pkts); {
		b.n, b.errno = 0, 0
		err := b.rc.Write(b.writeFn)
		if err == nil && b.errno != 0 {
			err = b.errno
		}
		if err != nil {
			// The datagram at the head of the unsent window is the one the
			// kernel rejected (or the deadline expired): drop it and move on.
			s.drops.Add(1)
			s.logf("dnsserver: batch send: %v", err)
			b.off++
			continue
		}
		if b.n <= 0 {
			s.drops.Add(1)
			b.off++
			continue
		}
		b.off += b.n
	}
	for i := range b.pkts {
		bufs.Put(b.pkts[i].buf)
		b.pkts[i].buf = nil
	}
	b.pkts = b.pkts[:0]
}

// writeBatchLoop drains writeq with sendmmsg: block for one response,
// opportunistically gather up to Batch, flush in one syscall. It reports
// false if ring setup failed so the caller can fall back to the portable
// writer.
func (s *Server) writeBatchLoop(conn *net.UDPConn, writeq <-chan packet, batch int) bool {
	b, err := newWriteBatcher(conn, batch)
	if err != nil {
		s.logf("dnsserver: sendmmsg setup: %v; falling back to single-packet writes", err)
		return false
	}
	for p := range writeq {
		b.stage(p)
	gather:
		for len(b.pkts) < b.size {
			select {
			case p2, ok := <-writeq:
				if !ok {
					break gather
				}
				b.stage(p2)
			default:
				break gather
			}
		}
		if err := conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
			s.logf("dnsserver: set write deadline: %v", err)
		}
		b.flush(s, s.bufs)
	}
	return true
}
