// Package dnsserver is a minimal authoritative/recursive DNS server
// framework over real UDP sockets. The whoami server (cmd/adnsd) and test
// fixtures are built on it; simulated resolvers speak the same dnswire
// bytes through vnet handlers instead.
//
// The UDP serving path is a three-stage pipeline sized for high QPS
// (ROADMAP item 2): a read loop moves packets off the socket (batched
// with recvmmsg on Linux, one at a time elsewhere), a bounded worker
// pool parses and answers them, and a write loop pushes responses back
// out (batched with sendmmsg on Linux). Overload is explicit: when the
// pool's queue is full the read loop answers SERVFAIL in place instead
// of spawning goroutines, so a flood can never explode the scheduler.
// See DESIGN.md §12.
package dnsserver

import (
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cellcurtain/internal/dnswire"
)

// Handler answers one DNS query. remote is the client (or forwarding
// resolver) address as seen by the server — the whoami trick depends on it.
type Handler interface {
	ServeDNS(remote netip.AddrPort, query *dnswire.Message) *dnswire.Message
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(remote netip.AddrPort, query *dnswire.Message) *dnswire.Message

// ServeDNS implements Handler.
func (f HandlerFunc) ServeDNS(remote netip.AddrPort, q *dnswire.Message) *dnswire.Message {
	return f(remote, q)
}

// Drop is a sentinel a Handler returns to discard the query without any
// reply at all — the client sees silence and times out, exactly like a
// packet lost on the network. A plain nil return answers REFUSED
// instead (a server that is up but unwilling), so outage fixtures such
// as flakydns need Drop to simulate a dead upstream rather than a
// misconfigured one.
var Drop = &dnswire.Message{}

// packet is one datagram moving through the serving pipeline. buf is a
// pooled buffer owning the payload (request on the way in, response on
// the way out); n is the payload length.
type packet struct {
	buf   *[]byte
	n     int
	raddr netip.AddrPort
}

// bufSize is the pooled packet buffer size: the largest UDP payload the
// server accepts or emits (TruncateForUDP caps responses well below it).
const bufSize = 4096

// Server serves DNS over UDP.
type Server struct {
	Handler Handler
	// Logf, when set, receives per-query diagnostics.
	Logf func(format string, args ...any)
	// Workers bounds the number of concurrent handler goroutines
	// (default 2×GOMAXPROCS). The pool is fixed for the lifetime of one
	// Serve call: a packet burst queues up to Queue packets and then
	// degrades to SERVFAIL instead of spawning per-packet goroutines.
	Workers int
	// Queue is the depth of the pending-packet and pending-response
	// queues (default 1024). A full pending queue triggers the overload
	// path: the query is answered SERVFAIL without touching the Handler.
	Queue int
	// Batch is the number of packets moved per syscall where recvmmsg/
	// sendmmsg are available (Linux; default 32, capped at 256). Batch 1
	// selects the portable single-packet loop on every platform.
	Batch int

	mu   sync.Mutex
	conn *net.UDPConn
	done chan struct{}
	bufs *sync.Pool

	// overloads counts queries answered SERVFAIL because the worker pool
	// queue was full; drops counts packets discarded entirely (overload
	// with an unparseable or non-query packet, or a full write queue).
	overloads atomic.Uint64
	drops     atomic.Uint64
	// served counts queries that went through the Handler, whatever the
	// outcome (answered, or deliberately dropped via Drop).
	served atomic.Uint64
}

// Served reports how many queries reached the Handler.
func (s *Server) Served() uint64 { return s.served.Load() }

// OverloadStats reports how many queries were answered SERVFAIL because
// the worker pool was saturated, and how many packets were dropped
// outright (unparseable under overload, or the write queue was full too).
func (s *Server) OverloadStats() (servfails, drops uint64) {
	return s.overloads.Load(), s.drops.Load()
}

// ListenAndServe binds addr (e.g. "127.0.0.1:5353") and serves until
// Shutdown. It returns once the listener is closed.
func (s *Server) ListenAndServe(addr string) error {
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("dnsserver: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		return fmt.Errorf("dnsserver: listen %s: %w", addr, err)
	}
	return s.Serve(conn)
}

// workers returns the effective pool size.
func (s *Server) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return 2 * runtime.GOMAXPROCS(0)
}

// queueDepth returns the effective queue depth.
func (s *Server) queueDepth() int {
	if s.Queue > 0 {
		return s.Queue
	}
	return 1024
}

// batchSize returns the effective syscall batch size. 1 selects the
// portable single-packet loop even on Linux.
func (s *Server) batchSize() int {
	b := s.Batch
	if b == 0 {
		b = defaultBatch
	}
	if b < 1 {
		b = 1
	}
	if b > 256 {
		b = 256
	}
	return b
}

// Serve runs the serving pipeline on an existing connection: the read
// loop (batched on Linux), the bounded worker pool, and the write loop.
// The caller owns the connection until Serve is called; Shutdown closes
// it. Serve returns only after the pipeline has fully drained: every
// packet accepted before the read loop stopped has been answered (or
// deliberately dropped) and the write loop has flushed. Drain relies on
// this ordering.
func (s *Server) Serve(conn *net.UDPConn) error {
	s.mu.Lock()
	s.conn = conn
	s.done = make(chan struct{})
	if s.bufs == nil {
		s.bufs = &sync.Pool{New: func() any { b := make([]byte, bufSize); return &b }}
	}
	done := s.done
	bufs := s.bufs
	s.mu.Unlock()
	defer close(done)

	depth := s.queueDepth()
	batch := s.batchSize()
	jobs := make(chan packet, depth)
	writeq := make(chan packet, depth)

	var workers sync.WaitGroup
	for i := 0; i < s.workers(); i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			s.worker(jobs, writeq)
		}()
	}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.writeLoop(conn, writeq, batch)
	}()

	var err error
	if batch > 1 && batchIOAvailable {
		err = s.serveBatch(conn, bufs, jobs, writeq, batch)
	} else {
		err = s.serveSingle(conn, bufs, jobs, writeq)
	}
	// Unwind in pipeline order so every accepted packet is answered:
	// no new jobs after the read loop exits, workers finish the queue,
	// then the writer flushes the remaining responses.
	close(jobs)
	workers.Wait()
	close(writeq)
	<-writerDone
	return err
}

// serveSingle is the portable read loop: one ReadFromUDPAddrPort syscall
// per packet, one pooled buffer per packet, dispatch into the pool. It
// also serves Batch=1 on Linux. The pooled Get and the struct-valued
// channel send stay allocation-free in steady state.
//
//lint:hotpath portable read loop of every served query (ROADMAP item 2)
func (s *Server) serveSingle(conn *net.UDPConn, bufs *sync.Pool, jobs, writeq chan<- packet) error {
	for {
		bp := bufs.Get().(*[]byte)
		//lint:ignore netdeadline the accept-style read loop blocks by design; Shutdown closes the socket and Drain sets a past deadline to unblock it
		n, raddr, err := conn.ReadFromUDPAddrPort(*bp)
		if err != nil {
			bufs.Put(bp)
			return err
		}
		s.dispatch(bufs, jobs, writeq, packet{buf: bp, n: n, raddr: raddr})
	}
}

// dispatch hands one received packet to the worker pool. When the pool
// queue is full it degrades in place: the query buffer is rewritten into
// a minimal SERVFAIL response and pushed to the write loop, so overload
// is visible to clients instead of silently growing goroutines or heap.
//
//lint:hotpath per-packet dispatch including the overload path
func (s *Server) dispatch(bufs *sync.Pool, jobs, writeq chan<- packet, p packet) {
	select {
	case jobs <- p:
		return
	default:
	}
	s.overloads.Add(1)
	if n, ok := servfailInPlace((*p.buf)[:p.n]); ok {
		p.n = n
		select {
		case writeq <- p:
			return
		default:
		}
	}
	s.drops.Add(1)
	bufs.Put(p.buf)
}

// servfailInPlace rewrites a raw query packet into a minimal SERVFAIL
// response in the same buffer: QR set, RCODE=SERVFAIL, answer sections
// zeroed, packet truncated right after the question. It refuses
// non-queries and anything whose question section cannot be skipped, and
// never allocates — it runs on the read loop under overload.
//
//lint:hotpath overload degradation on the read loop
func servfailInPlace(pkt []byte) (int, bool) {
	if len(pkt) < 12 || pkt[2]&0x80 != 0 {
		return 0, false // short or already a response
	}
	if pkt[4] != 0 || pkt[5] != 1 {
		return 0, false // exactly one question expected
	}
	// Skip the question name: length-prefixed labels ending in a zero
	// octet or a compression pointer.
	off := 12
	for {
		if off >= len(pkt) {
			return 0, false
		}
		l := int(pkt[off])
		if l == 0 {
			off++
			break
		}
		if l >= 0xC0 {
			off += 2
			break
		}
		if l > 63 {
			return 0, false
		}
		off += 1 + l
	}
	off += 4 // QTYPE + QCLASS
	if off > len(pkt) {
		return 0, false
	}
	pkt[2] = pkt[2]&^0x06 | 0x80                                        // QR on, AA/TC off, opcode+RD kept
	pkt[3] = 0x02                                                       // RA/Z clear, RCODE=SERVFAIL
	pkt[6], pkt[7], pkt[8], pkt[9], pkt[10], pkt[11] = 0, 0, 0, 0, 0, 0 // AN/NS/AR
	return off, true
}

// worker is one slot of the bounded handler pool: it parses, answers and
// encodes queries pulled from jobs, writing each response back over the
// request's own buffer before passing it to the write loop. The send to
// writeq blocks when the writer falls behind — backpressure lands here,
// in the pool, never as unbounded goroutines.
func (s *Server) worker(jobs <-chan packet, writeq chan<- packet) {
	var enc dnswire.Encoder // worker-owned: steady-state encoding never allocates
	for p := range jobs {
		if n, ok := s.answer(&enc, p); ok {
			p.n = n
			writeq <- p
		} else {
			s.bufs.Put(p.buf)
		}
	}
}

// answer runs one query through the Handler and serializes the response
// into p's buffer (the request bytes are dead once parsed: dnswire.Parse
// copies everything it retains). It reports the response length, or
// ok=false when the packet warrants no reply.
func (s *Server) answer(enc *dnswire.Encoder, p packet) (int, bool) {
	logf := s.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	pkt := (*p.buf)[:p.n]
	query, err := dnswire.Parse(pkt)
	if err != nil {
		logf("dnsserver: %s: unparseable query: %v", p.raddr, err)
		return 0, false
	}
	if query.Header.Response {
		return 0, false // ignore stray responses
	}
	resp := s.Handler.ServeDNS(p.raddr, query)
	s.served.Add(1)
	if resp == Drop {
		return 0, false // handler asked for silence
	}
	if resp == nil {
		resp = query.Reply()
		resp.Header.RCode = dnswire.RCodeRefused
	}
	out, err := enc.Encode(resp)
	if err != nil {
		logf("dnsserver: %s: pack response: %v", p.raddr, err)
		resp = query.Reply()
		resp.Header.RCode = dnswire.RCodeServFail
		if out, err = enc.Encode(resp); err != nil {
			return 0, false
		}
	}
	if out, err = TruncateForUDP(query, resp, out); err != nil {
		logf("dnsserver: %s: truncate: %v", p.raddr, err)
		return 0, false
	}
	if len(out) > len(*p.buf) {
		logf("dnsserver: %s: response of %d bytes exceeds buffer", p.raddr, len(out))
		return 0, false
	}
	return copy(*p.buf, out), true
}

// writeLoop drains the response queue onto the socket: sendmmsg batches
// on Linux when batch > 1, one WriteToUDPAddrPort per response otherwise.
// It never returns before writeq is closed, so workers can always make
// progress; individual send failures are logged and counted, not fatal.
func (s *Server) writeLoop(conn *net.UDPConn, writeq <-chan packet, batch int) {
	if batch > 1 && batchIOAvailable {
		if s.writeBatchLoop(conn, writeq, batch) {
			return
		}
		// Batch setup failed; fall through to the portable writer.
	}
	for p := range writeq {
		if err := conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
			s.logf("dnsserver: %s: set write deadline: %v", p.raddr, err)
		} else if _, err := conn.WriteToUDPAddrPort((*p.buf)[:p.n], p.raddr); err != nil {
			s.logf("dnsserver: %s: send: %v", p.raddr, err)
		}
		s.bufs.Put(p.buf)
	}
}

// writeTimeout bounds each response send so a full socket buffer cannot
// wedge the write loop forever.
const writeTimeout = 5 * time.Second

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Addr returns the bound address, or the zero AddrPort before Serve.
func (s *Server) Addr() netip.AddrPort {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn == nil {
		return netip.AddrPort{}
	}
	return s.conn.LocalAddr().(*net.UDPAddr).AddrPort()
}

// Shutdown closes the listener, unblocking Serve. In-flight handlers are
// abandoned; use Drain for a graceful stop.
func (s *Server) Shutdown() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn != nil {
		_ = s.conn.Close() // best-effort: Shutdown's purpose is unblocking Serve
	}
}

// Drain gracefully stops the server: it stops reading new queries, waits
// up to timeout for every accepted query to finish writing its response,
// then closes the socket. The socket must stay open during the wait —
// responses leave through the same UDP socket queries arrive on. It
// reports whether the drain completed; on false, the pipeline was still
// busy at the deadline (each send is individually bounded by
// writeTimeout, so the writer cannot leak forever) and the socket is
// closed under it.
func (s *Server) Drain(timeout time.Duration) bool {
	s.mu.Lock()
	conn := s.conn
	done := s.done
	s.mu.Unlock()
	if conn == nil {
		return true // never served
	}
	defer s.Shutdown()
	// A read deadline in the past unblocks the read loop without closing
	// the socket, so queued and in-flight queries can still answer.
	_ = conn.SetReadDeadline(time.Unix(0, 1)) // best-effort; a failure only delays the drain
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	// Serve returns (closing done) only after the read loop stopped, the
	// workers drained the job queue and the writer flushed every
	// response — exactly the drain guarantee.
	select {
	case <-done:
		return true
	case <-deadline.C:
		return false
	}
}
