package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// window is how many queries each socket keeps outstanding. Measured on
// the 2-core host: closed-loop saturation at window 64 repeats within
// 1.5 %, window-1 ping-pong is bimodal.
const window = 64

// query is one pre-packed query of a workload's mix and what a correct
// answer to it holds.
type query struct {
	wire    []byte // packed query; bytes 0-1 (the ID) are rewritten per send
	answers int    // expected ANCOUNT
	cname   bool   // a CNAME record is expected among the answers
	addrs   [][4]byte
	txt     string // expected single-string TXT rdata ("" = none)
}

// checkResponse reports whether resp is the correct answer to q: a
// NOERROR, untruncated response echoing the question, whose answer
// records carry exactly the expected rdata. The caller has matched the
// ID. It allocates nothing.
func checkResponse(resp []byte, q *query) bool {
	if len(resp) < 12 || resp[2]&0x80 == 0 || resp[2]&0x02 != 0 || resp[3]&0x0F != 0 {
		return false
	}
	if binary.BigEndian.Uint16(resp[4:]) != 1 || int(binary.BigEndian.Uint16(resp[6:])) != q.answers {
		return false
	}
	question := q.wire[12:]
	off := 12 + len(question)
	if len(resp) < off || !bytes.Equal(resp[12:off], question) {
		return false
	}
	nA, sawCNAME := 0, false
	for i := 0; i < q.answers; i++ {
		if off = skipName(resp, off); off < 0 || off+10 > len(resp) {
			return false
		}
		typ := binary.BigEndian.Uint16(resp[off:])
		rdlen := int(binary.BigEndian.Uint16(resp[off+8:]))
		off += 10
		if off+rdlen > len(resp) {
			return false
		}
		rdata := resp[off : off+rdlen]
		off += rdlen
		switch typ {
		case 1: // A
			if nA >= len(q.addrs) || !bytes.Equal(rdata, q.addrs[nA][:]) {
				return false
			}
			nA++
		case 5: // CNAME
			sawCNAME = true
		case 16: // TXT
			if q.txt == "" || len(rdata) != 1+len(q.txt) || string(rdata[1:]) != q.txt {
				return false
			}
		default:
			return false
		}
	}
	return nA == len(q.addrs) && sawCNAME == q.cname
}

// skipName returns the offset just past the (possibly compressed) name
// at off, or -1 if it runs off the message.
func skipName(msg []byte, off int) int {
	for off < len(msg) {
		b := int(msg[off])
		switch {
		case b == 0:
			return off + 1
		case b&0xC0 == 0xC0:
			return off + 2
		default:
			off += 1 + b
		}
	}
	return -1
}

// acceptAny is the check used against a bare echo socket: the ID match
// the caller did is all an echo can promise.
func acceptAny([]byte, *query) bool { return true }

// loadResult counts what one generator run saw.
type loadResult struct {
	sent, ok, bad int64
	// strays are datagrams whose ID was not outstanding (duplicates,
	// late answers to queries already written off); timeouts are reads
	// that hit the deadline, each writing off the whole window.
	strays, timeouts int64
	respBytes        int64
}

func (r *loadResult) add(o loadResult) {
	r.sent += o.sent
	r.ok += o.ok
	r.bad += o.bad
	r.strays += o.strays
	r.timeouts += o.timeouts
	r.respBytes += o.respBytes
}

func (r loadResult) failed() int64 { return r.sent - r.ok }

// loadConn is one client socket. Responses are matched to queries
// through a 64k ring indexed by DNS ID, as `curtain loadgen` does: the
// sender stamps the slot, the receiver swaps the stamp out, so a
// duplicate or stray response never counts twice.
type loadConn struct {
	conn    *net.UDPConn
	queries []query
	// order is one pass's query sequence, as indexes into queries; every
	// pass replays it, so passes are identical work.
	order   []uint32
	check   func(resp []byte, q *query) bool
	timeout time.Duration

	stamps [1 << 16]atomic.Int64 // send (or due) time in ns since epoch; 0 = not outstanding
	slot   [1 << 16]uint32       // which query went out under this ID
	next   uint16
	buf    []byte
	epoch  time.Time
	rtts   []float64 // ns, appended to while a pass records
}

func newLoadConn(target netip.AddrPort, queries []query, order []uint32, check func([]byte, *query) bool) (*loadConn, error) {
	conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(target))
	if err != nil {
		return nil, fmt.Errorf("bench: dial %s: %w", target, err)
	}
	return &loadConn{
		conn: conn, queries: queries, order: order, check: check,
		timeout: 2 * time.Second, buf: make([]byte, 4096), epoch: time.Now(),
	}, nil
}

// send writes query qi under the next ID and stamps its slot.
func (lc *loadConn) send(qi uint32, stamp int64) error {
	id := lc.next
	lc.next++
	wire := lc.queries[qi].wire
	wire[0], wire[1] = byte(id>>8), byte(id)
	lc.slot[id] = qi
	lc.stamps[id].Store(stamp)
	if _, err := lc.conn.Write(wire); err != nil {
		lc.stamps[id].Store(0)
		return err
	}
	return nil
}

// receive reads one datagram and matches it. matched is false for a
// stray; stamp is the matched slot's stamp.
func (lc *loadConn) receive(res *loadResult) (matched bool, stamp int64, err error) {
	n, err := lc.conn.Read(lc.buf)
	if err != nil {
		return false, 0, err
	}
	if n < 12 {
		res.strays++
		return false, 0, nil
	}
	id := uint16(lc.buf[0])<<8 | uint16(lc.buf[1])
	stamp = lc.stamps[id].Swap(0)
	if stamp == 0 {
		res.strays++
		return false, 0, nil
	}
	res.respBytes += int64(n)
	if lc.check(lc.buf[:n], &lc.queries[lc.slot[id]]) {
		res.ok++
	} else {
		res.bad++
	}
	return true, stamp, nil
}

// closedLoop sends one pass (len(order) queries), keeping window of them
// outstanding: the next query goes out only when a response frees a
// slot, so a slow server receives less load. With record set each RTT is
// appended to lc.rtts.
func (lc *loadConn) closedLoop(record bool) (loadResult, error) {
	var res loadResult
	n := len(lc.order)
	sent, done, outstanding := 0, 0, 0
	// The deadlines only exist to turn a lost datagram into a counted
	// failure instead of a hang, so they are refreshed once per window
	// of progress, not per packet.
	sinceDeadline := window
	for done < n {
		if sinceDeadline >= window {
			if err := lc.conn.SetDeadline(time.Now().Add(lc.timeout)); err != nil {
				return res, fmt.Errorf("bench: set deadline: %w", err)
			}
			sinceDeadline = 0
		}
		for outstanding < window && sent < n {
			stamp := int64(1)
			if record {
				stamp = int64(time.Since(lc.epoch))
			}
			if err := lc.send(lc.order[sent], stamp); err != nil {
				return res, fmt.Errorf("bench: send: %w", err)
			}
			res.sent++
			sent++
			outstanding++
		}
		matched, stamp, err := lc.receive(&res)
		if err != nil {
			if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
				return res, fmt.Errorf("bench: receive: %w", err)
			}
			// Nothing came back for a whole timeout: write the window
			// off as failed and move on.
			res.timeouts++
			for i := range lc.stamps {
				lc.stamps[i].Store(0)
			}
			done += outstanding
			outstanding = 0
			sinceDeadline = window
			continue
		}
		if !matched {
			continue
		}
		if record {
			lc.rtts = append(lc.rtts, float64(int64(time.Since(lc.epoch))-stamp))
		}
		outstanding--
		done++
		sinceDeadline++
	}
	return res, nil
}

// openResult is what one open-loop step saw.
type openResult struct {
	loadResult
	latency []float64 // ns from each query's due time to its response
	late    []float64 // ns from each query's due time to its actual send
}

// openLoop sends on a fixed schedule for dur at rate queries/s whatever
// the server does, timing each query from when it was due: a stall
// delays later sends, and that wait is counted. One sender (the caller)
// and one receiver goroutine share the socket.
func (lc *loadConn) openLoop(rate float64, dur time.Duration) (openResult, error) {
	var out openResult
	total := int(rate * dur.Seconds())
	out.late = make([]float64, 0, total)
	latency := make([]float64, 0, total)

	var recv loadResult
	var received atomic.Int64
	var recvErr error
	done := make(chan struct{})
	if err := lc.conn.SetDeadline(time.Now().Add(dur + 2*lc.timeout)); err != nil {
		return out, fmt.Errorf("bench: set deadline: %w", err)
	}
	go func() {
		defer close(done)
		for {
			matched, stamp, err := lc.receive(&recv)
			if err != nil {
				if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
					recvErr = err
				}
				return
			}
			if matched {
				latency = append(latency, float64(int64(time.Since(lc.epoch))-stamp))
				received.Add(1)
			}
		}
	}()

	start := time.Since(lc.epoch)
	interval := float64(time.Second) / rate
	var sendErr error
	for i := 0; i < total && sendErr == nil; {
		now := time.Since(lc.epoch)
		due := start + time.Duration(float64(i)*interval)
		if now < due {
			// Sleep at most 200 µs at a time so a step never sends in
			// bursts coarser than that.
			time.Sleep(min(due-now, 200*time.Microsecond))
			continue
		}
		if err := lc.send(lc.order[i%len(lc.order)], int64(due)); err != nil {
			sendErr = fmt.Errorf("bench: send: %w", err)
		}
		out.late = append(out.late, float64(now-due))
		out.sent++
		i++
	}
	// Drain: give in-flight responses up to a second, then unblock the
	// receiver with a deadline in the past.
	drain := time.Now().Add(time.Second)
	for received.Load() < out.sent && time.Now().Before(drain) {
		time.Sleep(time.Millisecond)
	}
	if err := lc.conn.SetReadDeadline(time.Unix(0, 1)); err != nil && sendErr == nil {
		sendErr = fmt.Errorf("bench: set deadline: %w", err)
	}
	<-done
	for i := range lc.stamps {
		lc.stamps[i].Store(0)
	}
	sent := out.sent
	out.loadResult = recv
	out.sent = sent
	out.latency = latency
	if sendErr != nil {
		//lint:ignore errwrap sendErr was wrapped where it was set
		return out, sendErr
	}
	if recvErr != nil {
		return out, fmt.Errorf("bench: receive: %w", recvErr)
	}
	return out, nil
}

// loadgen is the closed-loop generator: one socket and one goroutine
// per CPU, never more, so the generator cannot oversubscribe the host it
// shares with the server under test.
type loadgen struct {
	conns []*loadConn
}

// newLoadgen dials nconns sockets to target; mix builds socket w's
// query set and pass order.
func newLoadgen(target netip.AddrPort, nconns int, check func([]byte, *query) bool,
	mix func(w int) ([]query, []uint32, error)) (*loadgen, error) {
	g := &loadgen{}
	for w := 0; w < nconns; w++ {
		queries, order, err := mix(w)
		if err != nil {
			g.close()
			return nil, err
		}
		lc, err := newLoadConn(target, queries, order, check)
		if err != nil {
			g.close()
			return nil, err
		}
		g.conns = append(g.conns, lc)
	}
	return g, nil
}

// pass runs one closed-loop pass on every socket at once and returns
// the summed counts and the time until the last socket finished.
func (g *loadgen) pass(record bool) (loadResult, time.Duration, error) {
	results := make([]loadResult, len(g.conns))
	errs := make([]error, len(g.conns))
	var wg sync.WaitGroup
	start := time.Now()
	for i, lc := range g.conns {
		wg.Add(1)
		go func(i int, lc *loadConn) {
			defer wg.Done()
			results[i], errs[i] = lc.closedLoop(record)
		}(i, lc)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var total loadResult
	for i := range results {
		total.add(results[i])
		if errs[i] != nil {
			return total, elapsed, errs[i]
		}
	}
	return total, elapsed, nil
}

// rtts returns and clears the RTTs recorded so far, in ns.
func (g *loadgen) rtts() []float64 {
	var out []float64
	for _, lc := range g.conns {
		out = append(out, lc.rtts...)
		lc.rtts = lc.rtts[:0]
	}
	return out
}

func (g *loadgen) close() {
	for _, lc := range g.conns {
		_ = lc.conn.Close()
	}
}

// qps runs passes closed-loop passes and returns the median throughput:
// the rung measurement behind the *_qps per-layer metrics.
func (g *loadgen) qps(passes int) (float64, error) {
	var rates []float64
	for i := 0; i <= passes; i++ {
		res, elapsed, err := g.pass(false)
		if err != nil {
			return 0, err
		}
		if res.failed() != 0 {
			return 0, fmt.Errorf("bench: %d of %d rung queries failed", res.failed(), res.sent)
		}
		if i > 0 { // pass 0 warms up
			rates = append(rates, float64(res.sent)/elapsed.Seconds())
		}
	}
	return median(rates), nil
}
