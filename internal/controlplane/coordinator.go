package controlplane

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"cellcurtain/internal/dataset"
	"cellcurtain/internal/stats"
)

// ErrInterrupted reports the coordinator was stopped before the campaign
// completed. Every merged experiment is durable in the checkpoint; a new
// coordinator started with the same config and -resume continues from
// exactly that point.
var ErrInterrupted = errors.New("controlplane: coordinator interrupted")

// CoordinatorConfig parameterizes a campaign coordinator. Zero values
// select the documented defaults.
type CoordinatorConfig struct {
	// Seed, ConfigHash and Total identify the campaign: the seed and
	// trace.Config fingerprint are verified against worker claims and the
	// checkpoint manifest, Total is the experiment count.
	Seed       uint64
	ConfigHash string
	Total      int
	// Wire is the campaign configuration pushed to workers at handshake.
	Wire WireConfig
	// LeaseSize is the number of experiments per leased range (default 64).
	// Smaller leases bound the re-run window after a worker crash at the
	// cost of more round trips.
	LeaseSize int
	// LeaseTimeout expires a lease whose worker has not heartbeaten for
	// this long (default 10s); the range is reassigned to the next healthy
	// worker that asks. Measured on the injectable clock.
	LeaseTimeout time.Duration
	// RetryAfter is how long a lease request is held before a wait reply
	// (default 250ms, at most 30s). A request that finds every range
	// leased out parks until a range returns to the pool, the campaign
	// completes or Interrupt fires; if none of that happens within
	// RetryAfter it is answered wait{retry_millis: 0}, and the worker asks
	// again at once, which is when expired leases are looked for.
	RetryAfter time.Duration
	// DrainTimeout bounds how long Wait lingers after completion for
	// workers to take their done reply and leave before connections are
	// force closed (default 3s).
	DrainTimeout time.Duration
	// Checkpoint, when non-nil, receives every first-seen experiment —
	// the durable merge segment — as the sealed segment its worker sent,
	// once every record in it has been decoded and checked. Duplicates
	// from reassigned ranges are filtered before they reach it.
	Checkpoint *dataset.Checkpoint
	// Prior seeds the merge with already-durable experiments keyed by
	// seq (coordinator resume); their ranges are never leased.
	Prior map[int]*dataset.Experiment
	// Now is the injectable clock driving lease expiry (default wall
	// clock, same seam as internal/upstream).
	Now func() time.Time
	// Logf, when non-nil, receives the campaign's events: workers joining,
	// rejected or leaving, leases expiring and duplicates dropped.
	// Progress is Status's, read on request.
	Logf func(format string, args ...any)
}

func (c CoordinatorConfig) leaseSize() int {
	if c.LeaseSize > 0 {
		return c.LeaseSize
	}
	return 64
}

func (c CoordinatorConfig) leaseTimeout() time.Duration {
	if c.LeaseTimeout > 0 {
		return c.LeaseTimeout
	}
	return 10 * time.Second
}

// retryAfter is capped at half of ioTimeout: a parked worker waits for
// the reply in a read under that deadline.
func (c CoordinatorConfig) retryAfter() time.Duration {
	if c.RetryAfter > 0 {
		return min(c.RetryAfter, ioTimeout/2)
	}
	return 250 * time.Millisecond
}

func (c CoordinatorConfig) drainTimeout() time.Duration {
	if c.DrainTimeout > 0 {
		return c.DrainTimeout
	}
	return 3 * time.Second
}

// ioTimeout is the per-message socket deadline, coordinator and worker
// side. A conn silent past it is treated as dead — strictly later than
// any lease expiry, which is the intended liveness signal.
const ioTimeout = time.Minute

// Status reports how a coordinated campaign went.
type Status struct {
	// Total / Completed / Reused mirror trace.RunStatus: campaign size,
	// durable experiments, and how many were already durable at start.
	Total     int `json:"total"`
	Completed int `json:"completed"`
	Reused    int `json:"reused"`
	// WorkersSeen counts accepted handshakes; Rejected counts workers
	// refused for fingerprint or protocol mismatch.
	WorkersSeen int `json:"workers"`
	Rejected    int `json:"rejected"`
	// Granted / Reassigned / Released count lease grants, expiry-driven
	// reassignments, and leases returned by disconnecting workers.
	Granted    int `json:"leases_granted"`
	Reassigned int `json:"leases_reassigned"`
	Released   int `json:"leases_released"`
	// LeasesServed counts ranges merged end to end; DupSeqs counts
	// experiments dropped by the exactly-once merge — results for
	// sequence numbers that were already durable.
	LeasesServed int `json:"leases_served"`
	DupSeqs      int `json:"dup_seqs"`
	// LeaseP50Secs and LeaseP95Secs are the grant-to-merge latency
	// quantiles in seconds.
	LeaseP50Secs float64 `json:"lease_p50_secs"`
	LeaseP95Secs float64 `json:"lease_p95_secs"`
	// Interrupted reports the run stopped on Interrupt before completing.
	Interrupted bool `json:"interrupted"`
}

// seqRange is one leased unit: canonical sequence numbers from..to
// inclusive.
type seqRange struct {
	from, to int
}

// lease is one granted range with its liveness state.
type lease struct {
	id        int
	r         seqRange
	sess      *session
	grantedAt time.Time
	lastBeat  time.Time
}

// session is one connected worker.
type session struct {
	worker string
	leases map[int]bool
}

// Coordinator owns a campaign's execution: it leases seq ranges to
// connected workers, expires leases whose heartbeats stop, reassigns
// abandoned ranges, and merges returned segments exactly once (seq-keyed
// dedup) into the checkpoint. All exported methods are safe for
// concurrent use.
type Coordinator struct {
	cfg CoordinatorConfig
	ln  net.Listener

	mu        sync.Mutex
	free      []seqRange
	leases    map[int]*lease
	nextLease int
	exps      map[int]*dataset.Experiment
	doneCount int
	status    Status
	fatalErr  error
	conns     map[net.Conn]bool
	leaseSecs stats.Sample
	// freed is closed, and replaced, whenever ranges return to the free
	// pool: it wakes every parked lease request to look again.
	freed chan struct{}

	wg            sync.WaitGroup
	completeCh    chan struct{}
	completeOnce  sync.Once
	interruptCh   chan struct{}
	interruptOnce sync.Once
}

// NewCoordinator builds a coordinator over the unfinished portion of the
// campaign: sequence numbers present in cfg.Prior are merged as already
// durable and never leased.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	c := &Coordinator{
		cfg:         cfg,
		leases:      map[int]*lease{},
		exps:        make(map[int]*dataset.Experiment, cfg.Total),
		conns:       map[net.Conn]bool{},
		freed:       make(chan struct{}),
		completeCh:  make(chan struct{}),
		interruptCh: make(chan struct{}),
	}
	for seq, e := range cfg.Prior {
		if seq >= 1 && seq <= cfg.Total && e != nil {
			c.exps[seq] = e
		}
	}
	c.doneCount = len(c.exps)
	c.status.Reused = len(c.exps)
	// Carve the missing sequence space into lease-sized ranges; runs of
	// already-durable seqs (a resumed checkpoint) are skipped entirely.
	size := cfg.leaseSize()
	start := 0
	for seq := 1; seq <= cfg.Total+1; seq++ {
		missing := seq <= cfg.Total && c.exps[seq] == nil
		if missing && start == 0 {
			start = seq
		}
		if !missing && start != 0 {
			for f := start; f < seq; f += size {
				to := f + size - 1
				if to >= seq {
					to = seq - 1
				}
				c.free = append(c.free, seqRange{f, to})
			}
			start = 0
		}
	}
	if c.doneCount >= cfg.Total {
		c.completeOnce.Do(func() { close(c.completeCh) })
	}
	return c
}

func (c *Coordinator) now() time.Time {
	if c.cfg.Now != nil {
		return c.cfg.Now()
	}
	//lint:ignore determinism injectable clock seam (internal/upstream pattern); production default is wall clock
	return time.Now()
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Start begins accepting workers on ln. The listener is owned by the
// coordinator from here on: Wait closes it.
func (c *Coordinator) Start(ln net.Listener) {
	c.ln = ln
	c.wg.Add(1)
	go c.acceptLoop()
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed by Wait
		}
		c.mu.Lock()
		c.conns[conn] = true
		c.mu.Unlock()
		c.wg.Add(1)
		go c.serveConn(conn)
	}
}

// Interrupt requests a stop: Wait returns ErrInterrupted with the
// checkpoint flushed. Safe to call more than once.
func (c *Coordinator) Interrupt() {
	c.interruptOnce.Do(func() { close(c.interruptCh) })
}

// serveConn drives one worker session: handshake, then a strict
// request/response loop (heartbeats are the one fire-and-forget). Any
// read or write failure ends the session, returning its leases to the
// free pool — a SIGKILLed worker's ranges are back in circulation as
// soon as the kernel closes its socket.
func (c *Coordinator) serveConn(conn net.Conn) {
	defer c.wg.Done()
	defer c.dropConn(conn)
	hello, err := readMsg(conn, ioTimeout)
	if err != nil || hello.Type != MsgHello {
		return
	}
	if reason := c.admit(hello); reason != "" {
		_ = writeMsg(conn, ioTimeout, &Message{Type: MsgReject, Reason: reason})
		return
	}
	sess := &session{worker: hello.Worker, leases: map[int]bool{}}
	defer c.releaseSession(sess)
	c.logf("controlplane: worker %s joined", sess.worker)
	push := &Message{Type: MsgConfig, Config: &c.cfg.Wire, ConfigHash: c.cfg.ConfigHash, Total: c.cfg.Total}
	if err := writeMsg(conn, ioTimeout, push); err != nil {
		return
	}
	for {
		m, err := readMsg(conn, ioTimeout)
		if err != nil {
			return
		}
		var reply *Message
		switch m.Type {
		case MsgLease:
			if reply = c.grant(sess); reply == nil {
				return // interrupted while parked: Wait is cutting sessions
			}
		case MsgHeartbeat:
			c.beat(sess, m)
		case MsgSegment:
			reply = c.ingest(sess, m)
		case MsgBye:
			return
		default:
			return
		}
		if reply != nil {
			if err := writeMsg(conn, ioTimeout, reply); err != nil {
				return
			}
		}
	}
}

// admit validates a hello, returning a rejection reason or "". A worker
// that claims a config fingerprint must claim ours: executing a range
// under a different config would splice two datasets together.
func (c *Coordinator) admit(hello *Message) string {
	if hello.Proto != ProtoVersion {
		c.mu.Lock()
		c.status.Rejected++
		c.mu.Unlock()
		return fmt.Sprintf("protocol version %d, coordinator speaks %d", hello.Proto, ProtoVersion)
	}
	if hello.ConfigHash != "" && hello.ConfigHash != c.cfg.ConfigHash {
		c.mu.Lock()
		c.status.Rejected++
		c.mu.Unlock()
		c.logf("controlplane: rejecting worker %s: config fingerprint %s, campaign runs %s",
			hello.Worker, hello.ConfigHash, c.cfg.ConfigHash)
		return fmt.Sprintf("config fingerprint mismatch: campaign hash %s, worker configured %s — start the worker with the coordinator's campaign flags, or with none to adopt the pushed config",
			c.cfg.ConfigHash, hello.ConfigHash)
	}
	c.mu.Lock()
	c.status.WorkersSeen++
	c.mu.Unlock()
	return ""
}

// grant hands the requesting session a range: a free one first, then an
// expired lease's (reassignment), or done once every experiment is
// durable. When there is none of these it parks the request until a range
// is freed (looking again), the campaign completes (done), Interrupt fires
// (nil: the session ends) or RetryAfter passes (wait with no delay, so the
// worker's next request re-checks lease expiry on the injectable clock).
func (c *Coordinator) grant(sess *session) *Message {
	var timer *time.Timer // made only when the request first parks
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		c.mu.Lock()
		now := c.now()
		if c.doneCount >= c.cfg.Total {
			c.mu.Unlock()
			return &Message{Type: MsgDone}
		}
		r, ok := c.popFreeLocked()
		if !ok {
			r, ok = c.expireLocked(now)
		}
		if ok {
			c.nextLease++
			id := c.nextLease
			c.leases[id] = &lease{id: id, r: r, sess: sess, grantedAt: now, lastBeat: now}
			sess.leases[id] = true
			c.status.Granted++
			c.mu.Unlock()
			return &Message{Type: MsgRange, Lease: id, From: r.from, To: r.to}
		}
		freed := c.freed
		c.mu.Unlock()
		if timer == nil {
			//lint:ignore determinism the park bound is real time like the wait hint it replaces; lease expiry stays on the injectable clock
			timer = time.NewTimer(c.cfg.retryAfter())
		}
		select {
		case <-freed:
		case <-c.completeCh:
		case <-c.interruptCh:
			return nil
		case <-timer.C:
			return &Message{Type: MsgWait}
		}
	}
}

// popFreeLocked removes and returns the free range with the lowest
// starting seq, keeping grant order deterministic.
func (c *Coordinator) popFreeLocked() (seqRange, bool) {
	if len(c.free) == 0 {
		return seqRange{}, false
	}
	best := 0
	for i := 1; i < len(c.free); i++ {
		if c.free[i].from < c.free[best].from {
			best = i
		}
	}
	r := c.free[best]
	c.free[best] = c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	return r, true
}

// expireLocked finds the expired lease with the lowest starting seq,
// revokes it and returns its range for reassignment. The revoked
// worker's late segment-done, if it ever arrives, is neutralized by the
// seq-keyed merge.
func (c *Coordinator) expireLocked(now time.Time) (seqRange, bool) {
	timeout := c.cfg.leaseTimeout()
	bestID := 0
	for id, l := range c.leases {
		if now.Sub(l.lastBeat) <= timeout {
			continue
		}
		if bestID == 0 || l.r.from < c.leases[bestID].r.from {
			bestID = id
		}
	}
	if bestID == 0 {
		return seqRange{}, false
	}
	l := c.leases[bestID]
	delete(c.leases, bestID)
	delete(l.sess.leases, bestID)
	c.status.Reassigned++
	c.logf("controlplane: lease %d (seq %d-%d) of worker %s expired after %s silence; reassigning",
		l.id, l.r.from, l.r.to, l.sess.worker, now.Sub(l.lastBeat).Round(time.Millisecond))
	return l.r, true
}

// beat refreshes a lease's liveness. A heartbeat for a lease this
// session no longer owns (already expired and reassigned) is ignored.
func (c *Coordinator) beat(sess *session, m *Message) {
	c.mu.Lock()
	if l := c.leases[m.Lease]; l != nil && l.sess == sess {
		l.lastBeat = c.now()
	}
	c.mu.Unlock()
}

// ingest merges a completed segment exactly once, as a verified
// pass-through. Before the lock, every record is decoded and every seq
// range-checked; one bad byte or seq refuses the whole segment, so nothing
// of it reaches the checkpoint (and the campaign stops: a worker that
// computes a different dataset has no business in it). Under the lock,
// records whose seq is already durable — prior checkpoint contents, a
// faster replacement worker's results, or a repeat inside this segment —
// are counted and dropped, and the rest become durable through the one
// append there is: the worker's sealed bytes as they arrived, or, when
// some records were dropped (a zombie's or a misbehaving worker's
// segment), the survivors re-sealed into a stream of their own. This is
// where at-least-once execution becomes an exactly-once dataset.
func (c *Coordinator) ingest(sess *session, m *Message) *Message {
	exps, err := dataset.UnmarshalExperiments(m.Records)
	for _, e := range exps {
		if e.Seq < 1 || e.Seq > c.cfg.Total {
			err = fmt.Errorf("experiment seq %d outside 1..%d", e.Seq, c.cfg.Total)
			break
		}
	}
	if err != nil {
		exps = nil
		err = fmt.Errorf("controlplane: worker %s segment refused: %w", sess.worker, err)
	}

	c.mu.Lock()
	fresh := exps[:0]
	for _, e := range exps {
		if c.exps[e.Seq] == nil {
			c.exps[e.Seq] = e
			fresh = append(fresh, e)
		}
	}
	dups := len(exps) - len(fresh)
	if c.cfg.Checkpoint != nil && len(fresh) > 0 {
		sealed := m.Records
		if dups > 0 {
			sealed, err = dataset.MarshalExperiments(fresh)
		}
		if err == nil {
			err = c.cfg.Checkpoint.AppendSegment(sealed, len(fresh))
		}
		if err != nil {
			for _, e := range fresh {
				delete(c.exps, e.Seq)
			}
			fresh = nil
		}
	}
	c.doneCount += len(fresh)
	if l := c.leases[m.Lease]; l != nil && l.sess == sess {
		delete(c.leases, m.Lease)
		delete(sess.leases, m.Lease)
		c.leaseSecs.Add(c.now().Sub(l.grantedAt).Seconds())
	}
	c.status.DupSeqs += dups
	if err != nil && c.fatalErr == nil {
		c.fatalErr = err
	}
	complete := c.doneCount >= c.cfg.Total
	c.mu.Unlock()
	if dups > 0 {
		c.logf("controlplane: dropped %d duplicate experiment(s) from worker %s (range already merged)", dups, sess.worker)
	}
	if err != nil {
		c.Interrupt() // refused segment or checkpoint failure: stop leasing, surface via Wait
		return &Message{Type: MsgAck, Dups: dups}
	}
	if complete {
		c.completeOnce.Do(func() { close(c.completeCh) })
	}
	return &Message{Type: MsgAck, Dups: dups}
}

// releaseSession returns a departing session's unfinished leases to the
// free pool: a crashed worker's ranges are reassignable the moment its
// socket dies, without waiting out the lease timeout, and go at once to
// any lease request parked in grant.
func (c *Coordinator) releaseSession(sess *session) {
	c.mu.Lock()
	var ids []int
	for id := range sess.leases {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	released := 0
	for _, id := range ids {
		l := c.leases[id]
		if l == nil || l.sess != sess {
			continue
		}
		delete(c.leases, id)
		c.free = append(c.free, l.r)
		c.status.Released++
		released++
	}
	if released > 0 {
		close(c.freed) // wake parked lease requests
		c.freed = make(chan struct{})
	}
	c.mu.Unlock()
	if released > 0 {
		c.logf("controlplane: worker %s left; returned %d unfinished lease(s) to the pool", sess.worker, released)
	}
}

func (c *Coordinator) dropConn(conn net.Conn) {
	c.mu.Lock()
	delete(c.conns, conn)
	c.mu.Unlock()
	_ = conn.Close()
}

// closeConns force-closes every live session socket.
func (c *Coordinator) closeConns() {
	c.mu.Lock()
	conns := make([]net.Conn, 0, len(c.conns))
	for conn := range c.conns {
		//lint:ignore determinism force-close order is unobservable: no output depends on which socket dies first
		conns = append(conns, conn)
	}
	c.mu.Unlock()
	for _, conn := range conns {
		_ = conn.Close()
	}
}

// Status snapshots the campaign's counters. It may be called at any
// time; once Wait has returned it is what Wait returned.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.status
	st.Total = c.cfg.Total
	st.Completed = c.doneCount
	if n := c.leaseSecs.Len(); n > 0 {
		st.LeasesServed = n
		st.LeaseP50Secs = c.leaseSecs.Percentile(50)
		st.LeaseP95Secs = c.leaseSecs.Percentile(95)
	}
	return st
}

// Wait blocks until the campaign completes or Interrupt fires, shuts the
// listener and sessions down, flushes the checkpoint, and returns the
// merged dataset in canonical seq order — byte-identical to a serial
// run. On interrupt it returns ErrInterrupted; the durable state lives
// in the checkpoint.
func (c *Coordinator) Wait() (*dataset.Dataset, Status, error) {
	interrupted := false
	select {
	case <-c.completeCh:
	case <-c.interruptCh:
		interrupted = true
	}
	if c.ln != nil {
		_ = c.ln.Close()
	}
	if interrupted {
		// Cut sessions immediately: leases die with their conns and the
		// durable state is the checkpoint, not anything in flight.
		c.closeConns()
	} else {
		// Parked lease requests were answered done as the campaign
		// completed; linger briefly so those workers, and any between
		// requests, say bye and exit cleanly — then force the stragglers.
		drained := make(chan struct{})
		go func() {
			c.wg.Wait()
			close(drained)
		}()
		//lint:ignore determinism the drain linger bounds real worker departures; tests shrink DrainTimeout instead of injecting
		timer := time.NewTimer(c.cfg.drainTimeout())
		select {
		case <-drained:
		case <-timer.C:
			c.closeConns()
		}
		timer.Stop()
	}
	c.wg.Wait()

	var flushErr error
	if c.cfg.Checkpoint != nil {
		flushErr = c.cfg.Checkpoint.Flush()
	}
	c.mu.Lock()
	c.status.Interrupted = interrupted
	err := c.fatalErr
	c.mu.Unlock()
	st := c.Status()
	if err != nil {
		//lint:ignore errwrap the fatal ingest error already names the worker and failing seq
		return nil, st, err
	}
	if flushErr != nil {
		//lint:ignore errwrap Checkpoint.Flush errors already name the checkpoint and phase
		return nil, st, flushErr
	}
	if interrupted {
		return nil, st, fmt.Errorf("%w: %d/%d experiments durable", ErrInterrupted, st.Completed, st.Total)
	}
	ds := &dataset.Dataset{}
	for seq := 1; seq <= c.cfg.Total; seq++ {
		e := c.exps[seq]
		if e == nil {
			return nil, st, fmt.Errorf("controlplane: complete campaign is missing seq %d (merge bug)", seq)
		}
		ds.Add(e)
	}
	return ds, st, nil
}
