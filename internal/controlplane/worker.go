package controlplane

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"cellcurtain/internal/dataset"
)

// ErrRejected reports the coordinator refused the worker's handshake
// (protocol or config-fingerprint mismatch). Retrying without changing
// the configuration will not help.
var ErrRejected = errors.New("controlplane: handshake rejected")

// RunRange executes canonical sequence numbers from..to inclusive in
// order, calling emit for each completed experiment. A non-nil emit
// error aborts the range.
type RunRange func(from, to int, emit func(*dataset.Experiment) error) error

// WorkerConfig parameterizes one worker process. Zero values select the
// documented defaults.
type WorkerConfig struct {
	// ID names the worker in coordinator logs (default "worker").
	ID string
	// Addr is the coordinator address: host:port for TCP, or a
	// filesystem path (contains "/") for a unix socket.
	Addr string
	// ConfigHash, when non-empty, is the worker's claimed campaign
	// fingerprint, sent in hello; the coordinator rejects a claim that
	// differs from its own. Empty claims nothing — the worker adopts
	// whatever config the coordinator pushes.
	ConfigHash string
	// Build compiles the pushed campaign config into a range runner —
	// typically by building a fresh sim world and trace.Campaign. It runs
	// once per connection, after the handshake.
	Build func(wc WireConfig, total int) (RunRange, error)
	// HeartbeatEvery paces liveness reports while a range runs (default
	// 2s); it must be comfortably under the coordinator's LeaseTimeout.
	HeartbeatEvery time.Duration
	// Interrupt, when non-nil and closed, drains the worker: it finishes
	// and delivers the range it is running, then says bye instead of
	// leasing another.
	Interrupt <-chan struct{}
	// Now and Sleep are the injectable clock seams (defaults: wall clock,
	// time.Sleep).
	Now   func() time.Time
	Sleep func(time.Duration)
	// Dial overrides how the coordinator is reached (tests use net.Pipe
	// or an in-process listener).
	Dial func() (net.Conn, error)
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (c WorkerConfig) id() string {
	if c.ID != "" {
		return c.ID
	}
	return "worker"
}

func (c WorkerConfig) heartbeatEvery() time.Duration {
	if c.HeartbeatEvery > 0 {
		return c.HeartbeatEvery
	}
	return 2 * time.Second
}

// WorkerStats reports what one worker session accomplished.
type WorkerStats struct {
	// Ranges and Experiments count completed leases and the experiments
	// run inside them.
	Ranges      int `json:"ranges"`
	Experiments int `json:"experiments"`
	// Dups is how many of this worker's results the coordinator dropped
	// as already durable (it lost a race with a reassigned twin).
	Dups int `json:"dups"`
	// Waits counts wait replies (every range was leased out).
	Waits int `json:"waits"`
	// Drained reports the worker left on Interrupt rather than campaign
	// completion.
	Drained bool `json:"drained"`
}

// worker is one live session's state.
type worker struct {
	cfg  WorkerConfig
	conn net.Conn
	st   WorkerStats
}

// RunWorker connects to the coordinator, adopts the pushed campaign
// config, and leases ranges until the campaign completes, Interrupt
// fires, or the connection dies. It returns what it accomplished; a
// worker that errors out mid-range loses nothing durable — the
// coordinator reassigns the lease.
func RunWorker(cfg WorkerConfig) (WorkerStats, error) {
	if cfg.Build == nil {
		return WorkerStats{}, fmt.Errorf("controlplane: WorkerConfig.Build is required")
	}
	conn, err := dial(cfg)
	if err != nil {
		return WorkerStats{}, fmt.Errorf("controlplane: dial coordinator: %w", err)
	}
	w := &worker{cfg: cfg, conn: conn}
	defer conn.Close()
	//lint:ignore errwrap run errors are already controlplane-prefixed; ErrRejected must stay matchable as-is
	return w.st, w.run()
}

func dial(cfg WorkerConfig) (net.Conn, error) {
	if cfg.Dial != nil {
		return cfg.Dial()
	}
	network := "tcp"
	if strings.Contains(cfg.Addr, "/") {
		network = "unix"
	}
	return net.Dial(network, cfg.Addr)
}

func (w *worker) now() time.Time {
	if w.cfg.Now != nil {
		return w.cfg.Now()
	}
	//lint:ignore determinism injectable clock seam (internal/upstream pattern); production default is wall clock
	return time.Now()
}

func (w *worker) sleep(d time.Duration) {
	if w.cfg.Sleep != nil {
		w.cfg.Sleep(d)
		return
	}
	//lint:ignore determinism injectable sleep seam; the wait-retry delay is coordinator-suggested real time
	time.Sleep(d)
}

func (w *worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

func (w *worker) interrupted() bool {
	if w.cfg.Interrupt == nil {
		return false
	}
	select {
	case <-w.cfg.Interrupt:
		return true
	default:
		return false
	}
}

func (w *worker) run() error {
	hello := &Message{Type: MsgHello, Proto: ProtoVersion, Worker: w.cfg.id(), ConfigHash: w.cfg.ConfigHash}
	if err := writeMsg(w.conn, ioTimeout, hello); err != nil {
		//lint:ignore errwrap writeMsg errors already say which frame failed and why
		return err
	}
	reply, err := readMsg(w.conn, ioTimeout)
	if err != nil {
		//lint:ignore errwrap readMsg errors already carry the frame context
		return err
	}
	switch reply.Type {
	case MsgReject:
		return fmt.Errorf("%w: %s", ErrRejected, reply.Reason)
	case MsgConfig:
	default:
		return fmt.Errorf("controlplane: handshake reply %q, want config", reply.Type)
	}
	if reply.Config == nil || reply.Total <= 0 {
		return fmt.Errorf("controlplane: config push missing campaign (total=%d)", reply.Total)
	}
	// Wire-drift guard: the config as decoded here must hash to what the
	// coordinator claims. It fails for a coordinator from a build whose
	// trace.Spec has a field this one lacks (the JSON decode drops it
	// silently) and for one handed a hash that was never its config's —
	// either way this worker would compute a different dataset.
	if got := reply.Config.Hash(); got != reply.ConfigHash {
		return fmt.Errorf("controlplane: pushed config hashes to %s but coordinator claims %s (wire schema drift)", got, reply.ConfigHash)
	}
	run, err := w.cfg.Build(*reply.Config, reply.Total)
	if err != nil {
		return fmt.Errorf("controlplane: build campaign: %w", err)
	}
	w.logf("controlplane: %s joined campaign hash=%s total=%d", w.cfg.id(), reply.ConfigHash, reply.Total)

	for {
		if w.interrupted() {
			w.st.Drained = true
			return w.bye()
		}
		if err := writeMsg(w.conn, ioTimeout, &Message{Type: MsgLease}); err != nil {
			//lint:ignore errwrap writeMsg errors already say which frame failed and why
			return err
		}
		m, err := readMsg(w.conn, ioTimeout)
		if err != nil {
			//lint:ignore errwrap readMsg errors already carry the frame context
			return err
		}
		switch m.Type {
		case MsgDone:
			return w.bye()
		case MsgWait:
			w.st.Waits++
			w.sleep(time.Duration(m.RetryMillis) * time.Millisecond)
		case MsgRange:
			if err := w.runRange(run, m); err != nil {
				//lint:ignore errwrap runRange wraps its own errors with the range bounds
				return err
			}
		default:
			return fmt.Errorf("controlplane: lease reply %q, want range/wait/done", m.Type)
		}
	}
}

// runRange executes one leased range, heartbeating inline from the emit
// path, then delivers the segment and waits for the merge ack. The
// heartbeat is fire-and-forget by protocol, so it can be written while
// the coordinator sits in its read loop.
func (w *worker) runRange(run RunRange, m *Message) error {
	buf := make([]*dataset.Experiment, 0, m.To-m.From+1)
	lastBeat := w.now()
	emit := func(e *dataset.Experiment) error {
		buf = append(buf, e)
		now := w.now()
		if now.Sub(lastBeat) < w.cfg.heartbeatEvery() {
			return nil
		}
		lastBeat = now
		return writeMsg(w.conn, ioTimeout, &Message{Type: MsgHeartbeat, Lease: m.Lease, Done: len(buf)})
	}
	if err := run(m.From, m.To, emit); err != nil {
		return fmt.Errorf("controlplane: range %d-%d: %w", m.From, m.To, err)
	}
	// Sealed once, here: the coordinator checks these bytes and appends
	// them to its checkpoint as they are.
	records, err := dataset.MarshalExperiments(buf)
	if err != nil {
		return fmt.Errorf("controlplane: range %d-%d: encode segment: %w", m.From, m.To, err)
	}
	seg := &Message{Type: MsgSegment, Lease: m.Lease, Records: records}
	if err := writeMsg(w.conn, ioTimeout, seg); err != nil {
		//lint:ignore errwrap writeMsg errors already say which frame failed and why
		return err
	}
	ack, err := readMsg(w.conn, ioTimeout)
	if err != nil {
		//lint:ignore errwrap readMsg errors already carry the frame context
		return err
	}
	if ack.Type != MsgAck {
		return fmt.Errorf("controlplane: segment reply %q, want ack", ack.Type)
	}
	w.st.Ranges++
	w.st.Experiments += len(buf)
	w.st.Dups += ack.Dups
	w.logf("controlplane: %s delivered seq %d-%d (%d dup)", w.cfg.id(), m.From, m.To, ack.Dups)
	return nil
}

// bye announces a voluntary departure so the coordinator logs a drain
// rather than a crash. Write errors are irrelevant — the conn is closing
// either way.
func (w *worker) bye() error {
	_ = writeMsg(w.conn, ioTimeout, &Message{Type: MsgBye})
	return nil
}

// CampaignRunner adapts a trace-style per-seq executor into a RunRange.
// runSeq is trace.(*Campaign).RunSeq or a test double.
func CampaignRunner(runSeq func(seq int) (*dataset.Experiment, error)) RunRange {
	return func(from, to int, emit func(*dataset.Experiment) error) error {
		for seq := from; seq <= to; seq++ {
			e, err := runSeq(seq)
			if err != nil {
				return err
			}
			if err := emit(e); err != nil {
				return err
			}
		}
		return nil
	}
}
