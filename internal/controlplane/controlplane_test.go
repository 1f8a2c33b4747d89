package controlplane

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cellcurtain/internal/dataset"
	"cellcurtain/internal/trace"
)

// fakeClock is a mutex-protected manual clock injected into both sides
// so lease expiry is deterministic in tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testExp builds a deterministic experiment for seq; tests that bypass
// the real campaign runner use it on both the worker and serial side.
func testExp(seq int) *dataset.Experiment {
	return &dataset.Experiment{Seq: seq, ClientID: fmt.Sprintf("client-%04d", seq), Carrier: "TestNet"}
}

func testRunSeq(seq int) (*dataset.Experiment, error) { return testExp(seq), nil }

// startCoordinator builds a coordinator over total fake experiments on a
// loopback listener, returning it with its address.
func startCoordinator(t *testing.T, clk *fakeClock, cfg CoordinatorConfig) (*Coordinator, string) {
	t.Helper()
	if cfg.ConfigHash == "" {
		// The pushed config's true fingerprint: RunWorker re-verifies the
		// wire round-trip, so a made-up hash would turn every worker away.
		cfg.ConfigHash = cfg.Wire.Hash()
	}
	if cfg.Now == nil && clk != nil {
		cfg.Now = clk.Now
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 100 * time.Millisecond
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = 5 * time.Millisecond
	}
	cfg.Logf = t.Logf
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	c := NewCoordinator(cfg)
	c.Start(ln)
	return c, ln.Addr().String()
}

// testWorker returns a WorkerConfig wired at addr running the fake
// per-seq executor.
func testWorker(id, addr string) WorkerConfig {
	return WorkerConfig{
		ID: id, Addr: addr,
		HeartbeatEvery: time.Hour, // tests heartbeat explicitly where it matters
		Build: func(WireConfig, int) (RunRange, error) {
			return CampaignRunner(testRunSeq), nil
		},
	}
}

// rawClient speaks the wire protocol directly so tests can misbehave in
// ways RunWorker never would.
type rawClient struct {
	t    *testing.T
	conn net.Conn
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawClient{t: t, conn: conn}
}

func (r *rawClient) send(m *Message) {
	r.t.Helper()
	if err := writeMsg(r.conn, time.Minute, m); err != nil {
		r.t.Fatalf("send %s: %v", m.Type, err)
	}
}

func (r *rawClient) recv() *Message {
	r.t.Helper()
	m, err := readMsg(r.conn, time.Minute)
	if err != nil {
		r.t.Fatalf("recv: %v", err)
	}
	return m
}

// handshake joins as a well-configured worker and returns the config
// push.
func (r *rawClient) handshake(id string) *Message {
	r.t.Helper()
	r.send(&Message{Type: MsgHello, Proto: ProtoVersion, Worker: id})
	m := r.recv()
	if m.Type != MsgConfig {
		r.t.Fatalf("handshake reply %q, want config", m.Type)
	}
	return m
}

// lease requests a range and requires one to be granted.
func (r *rawClient) lease() *Message {
	r.t.Helper()
	r.send(&Message{Type: MsgLease})
	m := r.recv()
	if m.Type != MsgRange {
		r.t.Fatalf("lease reply %q, want range", m.Type)
	}
	return m
}

func segmentFor(m *Message) *Message {
	var seqs []int
	for seq := m.From; seq <= m.To; seq++ {
		seqs = append(seqs, seq)
	}
	return segmentOf(m.Lease, seqs...)
}

// segmentOf hand-builds a segment frame for a lease out of any seqs, in
// any order — what a zombie or a misbehaving worker might send.
func segmentOf(lease int, seqs ...int) *Message {
	var exps []*dataset.Experiment
	for _, seq := range seqs {
		exps = append(exps, testExp(seq))
	}
	records, err := dataset.MarshalExperiments(exps)
	if err != nil {
		panic(err)
	}
	return &Message{Type: MsgSegment, Lease: lease, Records: records}
}

// testCheckpoint creates a real checkpoint that syncs on every append, so
// the segment file's size is meaningful after each ack.
func testCheckpoint(t *testing.T, total int) *dataset.Checkpoint {
	t.Helper()
	ck, err := dataset.CreateCheckpoint(t.TempDir(), dataset.Manifest{Seed: 11, ConfigHash: "feedfacefeedface", Total: total}, 1)
	if err != nil {
		t.Fatalf("create checkpoint: %v", err)
	}
	return ck
}

// checkpointJSONL scans a checkpoint directory and renders what it holds in
// seq order — every stored copy, so a seq held twice shows up as a
// divergence from the serial bytes.
func checkpointJSONL(t *testing.T, dir string) []byte {
	t.Helper()
	ds := &dataset.Dataset{}
	if torn, err := dataset.ScanCheckpoint(dir, func(e *dataset.Experiment) error {
		ds.Add(e)
		return nil
	}); err != nil || torn != 0 {
		t.Fatalf("scan checkpoint: %v (%d torn bytes)", err, torn)
	}
	sort.SliceStable(ds.Experiments, func(i, j int) bool { return ds.Experiments[i].Seq < ds.Experiments[j].Seq })
	return jsonl(t, ds)
}

func jsonl(t *testing.T, ds *dataset.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteJSONL(&buf); err != nil {
		t.Fatalf("jsonl: %v", err)
	}
	return buf.Bytes()
}

func serialJSONL(t *testing.T, total int) []byte {
	t.Helper()
	ds := &dataset.Dataset{}
	for seq := 1; seq <= total; seq++ {
		ds.Add(testExp(seq))
	}
	return jsonl(t, ds)
}

// TestCoordinatedMatchesSerial runs three concurrent workers and
// requires the merged dataset byte-identical to the serial one.
func TestCoordinatedMatchesSerial(t *testing.T) {
	const total = 100
	clk := newFakeClock()
	c, addr := startCoordinator(t, clk, CoordinatorConfig{Total: total, LeaseSize: 7})
	// No worker leases before all three have joined: a hundred fake
	// experiments are quick enough for the first to finish the campaign —
	// and the coordinator to stop listening — while the others still dial.
	var wg, joined sync.WaitGroup
	joined.Add(3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := testWorker(fmt.Sprintf("w%d", i), addr)
			w.Build = func(WireConfig, int) (RunRange, error) {
				joined.Done()
				joined.Wait()
				return CampaignRunner(testRunSeq), nil
			}
			if _, err := RunWorker(w); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	ds, st, err := c.Wait()
	wg.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.Completed != total || st.DupSeqs != 0 {
		t.Fatalf("status = %+v, want %d completed, 0 dups", st, total)
	}
	if got, want := jsonl(t, ds), serialJSONL(t, total); !bytes.Equal(got, want) {
		t.Fatalf("merged dataset diverges from serial (%d vs %d bytes)", len(got), len(want))
	}
}

// TestStatusDuringIngest reads Status while two workers deliver
// segments (run it under -race): every live reading is in range and
// Completed never goes back, and once Wait returns Status is what Wait
// returned.
func TestStatusDuringIngest(t *testing.T) {
	const total = 200
	c, addr := startCoordinator(t, newFakeClock(), CoordinatorConfig{Total: total, LeaseSize: 3})
	stop := make(chan struct{})
	polled := make(chan int)
	go func() {
		reads, last := 0, 0
		for {
			select {
			case <-stop:
				polled <- reads
				return
			default:
			}
			st := c.Status()
			if st.Total != total || st.Completed < last || st.Completed > st.Total {
				t.Errorf("live status %+v after completed=%d, want 0 ≤ completed ≤ %d and monotone", st, last, total)
			}
			last = st.Completed
			reads++
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := RunWorker(testWorker(fmt.Sprintf("w%d", i), addr)); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	_, st, err := c.Wait()
	wg.Wait()
	close(stop)
	if n := <-polled; n == 0 {
		t.Fatal("Status was never read during the campaign")
	}
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := c.Status(); got != st {
		t.Fatalf("Status() after Wait = %+v, Wait returned %+v", got, st)
	}
	if st.Completed != total || st.LeasesServed == 0 || st.Interrupted {
		t.Fatalf("final status %+v, want %d completed over served leases, not interrupted", st, total)
	}
}

// TestWorkerKilledMidRange crashes a raw client while it holds a lease
// (conn dies, as after SIGKILL): the coordinator must return the range
// to the pool immediately and a healthy worker must finish the campaign.
func TestWorkerKilledMidRange(t *testing.T) {
	const total = 40
	clk := newFakeClock()
	c, addr := startCoordinator(t, clk, CoordinatorConfig{Total: total, LeaseSize: 8})

	victim := dialRaw(t, addr)
	victim.handshake("victim")
	granted := victim.lease()
	victim.conn.Close() // SIGKILL: the socket dies with the process

	if _, err := RunWorker(testWorker("steady", addr)); err != nil {
		t.Fatalf("steady worker: %v", err)
	}
	ds, st, err := c.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.Released != 1 {
		t.Fatalf("Released = %d, want 1 (victim's lease %d-%d back in the pool)", st.Released, granted.From, granted.To)
	}
	if got, want := jsonl(t, ds), serialJSONL(t, total); !bytes.Equal(got, want) {
		t.Fatal("dataset diverges from serial after mid-range worker death")
	}
}

// TestHungWorkerLeaseExpires keeps a lease-holding conn open but silent:
// once the injected clock passes LeaseTimeout, the next lease request
// must be served by reassigning the hung worker's range.
func TestHungWorkerLeaseExpires(t *testing.T) {
	const total = 8
	clk := newFakeClock()
	c, addr := startCoordinator(t, clk, CoordinatorConfig{
		Total: total, LeaseSize: 8, LeaseTimeout: 10 * time.Second,
	})

	hung := dialRaw(t, addr)
	hung.handshake("hung")
	granted := hung.lease() // the only range; hung never heartbeats again

	// Heartbeats inside the window keep the lease alive.
	clk.Advance(6 * time.Second)
	hung.send(&Message{Type: MsgHeartbeat, Lease: granted.Lease, Done: 1})

	rescue := dialRaw(t, addr)
	rescue.handshake("rescue")
	rescue.send(&Message{Type: MsgLease})
	if m := rescue.recv(); m.Type != MsgWait {
		t.Fatalf("lease while hung worker is live = %q, want wait", m.Type)
	}

	// Silence past the timeout: the range must be reassigned.
	clk.Advance(11 * time.Second)
	re := rescue.lease()
	if re.From != granted.From || re.To != granted.To {
		t.Fatalf("reassigned range %d-%d, want the hung worker's %d-%d", re.From, re.To, granted.From, granted.To)
	}
	rescue.send(segmentFor(re))
	if ack := rescue.recv(); ack.Type != MsgAck || ack.Dups != 0 {
		t.Fatalf("ack = %+v, want clean ack", ack)
	}
	ds, st, err := c.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.Reassigned != 1 {
		t.Fatalf("Reassigned = %d, want 1", st.Reassigned)
	}
	if got, want := jsonl(t, ds), serialJSONL(t, total); !bytes.Equal(got, want) {
		t.Fatal("dataset diverges from serial after hung-worker reassignment")
	}
}

// TestLateDuplicateSegment delivers the same range twice: once from the
// worker that finished after losing its lease, once from the
// reassignment. The second copy must be dropped seq-by-seq — the merge
// stays exactly-once no matter how late a zombie reports.
func TestLateDuplicateSegment(t *testing.T) {
	const total = 6
	clk := newFakeClock()
	c, addr := startCoordinator(t, clk, CoordinatorConfig{
		Total: total, LeaseSize: 6, LeaseTimeout: 10 * time.Second,
	})

	zombie := dialRaw(t, addr)
	zombie.handshake("zombie")
	granted := zombie.lease()

	clk.Advance(11 * time.Second) // zombie's lease expires
	fresh := dialRaw(t, addr)
	fresh.handshake("fresh")
	re := fresh.lease()
	fresh.send(segmentFor(re))
	if ack := fresh.recv(); ack.Dups != 0 {
		t.Fatalf("fresh ack dups = %d, want 0", ack.Dups)
	}

	// The zombie wakes up and delivers the same range late.
	zombie.send(segmentFor(granted))
	ack := zombie.recv()
	if ack.Type != MsgAck || ack.Dups != total {
		t.Fatalf("late duplicate ack = %+v, want %d dups", ack, total)
	}

	ds, st, err := c.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.DupSeqs != total || st.Completed != total {
		t.Fatalf("status = %+v, want %d dup seqs and %d completed", st, total, total)
	}
	if got, want := jsonl(t, ds), serialJSONL(t, total); !bytes.Equal(got, want) {
		t.Fatal("dataset diverges from serial after duplicate delivery")
	}
}

// TestPartialDuplicateSegment delivers a segment that straddles merged
// seqs — three already durable, three fresh. The coordinator cannot append
// those bytes as they are: it must count the three, re-seal the other
// three, and leave a checkpoint that holds every seq exactly once.
func TestPartialDuplicateSegment(t *testing.T) {
	const total = 9
	ck := testCheckpoint(t, total)
	c, addr := startCoordinator(t, newFakeClock(), CoordinatorConfig{Total: total, LeaseSize: 3, Checkpoint: ck})

	w := dialRaw(t, addr)
	w.handshake("straddler")
	w.send(segmentFor(w.lease())) // seq 1-3, verbatim
	if ack := w.recv(); ack.Dups != 0 {
		t.Fatalf("first ack dups = %d, want 0", ack.Dups)
	}
	second := w.lease() // seq 4-6
	w.send(segmentOf(second.Lease, 2, 4, 1, 5, 3, 6))
	if ack := w.recv(); ack.Type != MsgAck || ack.Dups != 3 {
		t.Fatalf("straddling ack = %+v, want 3 dups", ack)
	}
	w.send(segmentFor(w.lease())) // seq 7-9
	w.recv()

	_, st, err := c.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if err := ck.Close(); err != nil {
		t.Fatalf("close checkpoint: %v", err)
	}
	if st.DupSeqs != 3 || st.Completed != total {
		t.Fatalf("status = %+v, want 3 dup seqs and %d completed", st, total)
	}
	if got := ck.Manifest().Completed; got != total {
		t.Fatalf("manifest completed = %d, want %d", got, total)
	}
	if !bytes.Equal(checkpointJSONL(t, ck.Dir()), serialJSONL(t, total)) {
		t.Fatal("checkpoint does not hold each seq exactly once after a straddling segment")
	}
}

// TestRepeatedSeqInsideSegment: a segment that carries one seq twice is a
// duplicate against itself. One copy is stored, one is counted.
func TestRepeatedSeqInsideSegment(t *testing.T) {
	const total = 4
	ck := testCheckpoint(t, total)
	c, addr := startCoordinator(t, newFakeClock(), CoordinatorConfig{Total: total, LeaseSize: 4, Checkpoint: ck})

	w := dialRaw(t, addr)
	w.handshake("stutterer")
	w.send(segmentOf(w.lease().Lease, 1, 2, 2, 3, 4))
	if ack := w.recv(); ack.Type != MsgAck || ack.Dups != 1 {
		t.Fatalf("ack = %+v, want 1 dup", ack)
	}
	ds, st, err := c.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if err := ck.Close(); err != nil {
		t.Fatalf("close checkpoint: %v", err)
	}
	if st.DupSeqs != 1 || st.Completed != total {
		t.Fatalf("status = %+v, want 1 dup seq and %d completed", st, total)
	}
	want := serialJSONL(t, total)
	if !bytes.Equal(jsonl(t, ds), want) || !bytes.Equal(checkpointJSONL(t, ck.Dir()), want) {
		t.Fatal("a seq repeated inside one segment was stored twice (or not at all)")
	}
}

// TestRefusedSegmentIsAllOrNothing: a segment the coordinator refuses —
// one seq out of range behind good ones, a corrupt payload, bytes after the
// stream, a stream cut short — must leave the checkpoint exactly as the
// last good segment left it. Merging record by record used to make the
// in-range head of such a segment durable before the bad seq stopped it.
func TestRefusedSegmentIsAllOrNothing(t *testing.T) {
	const total = 8
	good := segmentOf(0, 5, 6, 7, 8).Records
	corrupt := bytes.Clone(good)
	corrupt[len(corrupt)-5] ^= 0xFF
	for name, records := range map[string][]byte{
		"seq out of range":  segmentOf(0, 5, 6, total+1, 8).Records,
		"corrupt payload":   corrupt,
		"trailing bytes":    append(bytes.Clone(good), "junk"...),
		"truncated stream":  good[:len(good)-1],
		"not a curtainbin":  []byte(`{"seq":5}` + "\n"),
		"no records at all": nil,
	} {
		t.Run(name, func(t *testing.T) {
			ck := testCheckpoint(t, total)
			c, addr := startCoordinator(t, newFakeClock(), CoordinatorConfig{Total: total, LeaseSize: 4, Checkpoint: ck})
			w := dialRaw(t, addr)
			w.handshake("hostile")
			w.send(segmentFor(w.lease())) // seq 1-4: good, durable
			w.recv()
			seg := filepath.Join(ck.Dir(), "experiments.bin")
			before, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}

			w.send(&Message{Type: MsgSegment, Lease: w.lease().Lease, Records: records})
			w.recv()
			if _, st, err := c.Wait(); err == nil || !strings.Contains(err.Error(), "refused") || st.Completed != 4 {
				t.Fatalf("Wait = (%+v, %v), want a refusal with 4 completed", st, err)
			}
			if err := ck.Close(); err != nil {
				t.Fatalf("close checkpoint: %v", err)
			}
			after, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if after.Size() != before.Size() {
				t.Fatalf("refused segment grew the checkpoint from %d to %d bytes", before.Size(), after.Size())
			}
			if !bytes.Equal(checkpointJSONL(t, ck.Dir()), serialJSONL(t, 4)) {
				t.Fatal("checkpoint no longer holds exactly seq 1-4")
			}
		})
	}
}

// TestFingerprintMismatchRejected refuses a worker configured for a
// different campaign at handshake, naming both hashes.
func TestFingerprintMismatchRejected(t *testing.T) {
	realHash := WireConfig{}.Hash()
	clk := newFakeClock()
	c, addr := startCoordinator(t, clk, CoordinatorConfig{Total: 4})

	w := testWorker("misconfigured", addr)
	w.ConfigHash = "bbbb999988887777"
	_, err := RunWorker(w)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("misconfigured worker error = %v, want ErrRejected", err)
	}
	for _, hash := range []string{realHash, "bbbb999988887777"} {
		if !strings.Contains(err.Error(), hash) {
			t.Fatalf("rejection %q does not name hash %s", err, hash)
		}
	}

	// A matching claim is accepted and the campaign completes.
	ok := testWorker("matching", addr)
	ok.ConfigHash = realHash
	if _, err := RunWorker(ok); err != nil {
		t.Fatalf("matching worker: %v", err)
	}
	_, st, err := c.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.Rejected != 1 || st.WorkersSeen != 1 {
		t.Fatalf("status = %+v, want 1 rejected, 1 seen", st)
	}
}

// TestProtocolVersionRejected refuses a peer speaking a different
// protocol version before any work is leased — one from the future, and
// version 2, whose segments carry their records base64'd inside the JSON
// body where this coordinator would not find them.
func TestProtocolVersionRejected(t *testing.T) {
	clk := newFakeClock()
	c, addr := startCoordinator(t, clk, CoordinatorConfig{Total: 2})
	for _, proto := range []int{ProtoVersion + 1, 2} {
		raw := dialRaw(t, addr)
		raw.send(&Message{Type: MsgHello, Proto: proto, Worker: "other-build"})
		if m := raw.recv(); m.Type != MsgReject || !strings.Contains(m.Reason, fmt.Sprintf("protocol version %d,", proto)) {
			t.Fatalf("hello proto %d: reply = %+v, want a reject naming the version", proto, m)
		}
	}
	c.Interrupt()
	if _, st, err := c.Wait(); !errors.Is(err, ErrInterrupted) || st.Rejected != 2 {
		t.Fatalf("Wait = (%+v, %v), want ErrInterrupted with 2 rejected", st, err)
	}
}

// TestCoordinatorResume interrupts a coordinated campaign, then resumes
// it from the checkpoint: only missing seqs are leased, reused ones are
// merged as-is, and the final dataset is byte-identical to serial.
func TestCoordinatorResume(t *testing.T) {
	const total = 30
	dir := t.TempDir()
	manifest := dataset.Manifest{Seed: 11, ConfigHash: "feedfacefeedface", Total: total}
	ck, err := dataset.CreateCheckpoint(dir, manifest, 1)
	if err != nil {
		t.Fatalf("create checkpoint: %v", err)
	}

	clk := newFakeClock()
	c, addr := startCoordinator(t, clk, CoordinatorConfig{Total: total, LeaseSize: 5, Checkpoint: ck})
	first := dialRaw(t, addr)
	first.handshake("first")
	granted := first.lease()
	first.send(segmentFor(granted))
	first.recv()
	c.Interrupt()
	if _, st, err := c.Wait(); !errors.Is(err, ErrInterrupted) || st.Completed != 5 {
		t.Fatalf("interrupted Wait = (%+v, %v), want ErrInterrupted with 5 durable", st, err)
	}
	if err := ck.Close(); err != nil {
		t.Fatalf("close checkpoint: %v", err)
	}

	prior := map[int]*dataset.Experiment{}
	reopened, _, err := dataset.OpenCheckpoint(dir, 0, func(e *dataset.Experiment) error {
		prior[e.Seq] = e
		return nil
	})
	if err != nil {
		t.Fatalf("reopen checkpoint: %v", err)
	}
	if len(prior) != 5 {
		t.Fatalf("prior has %d experiments, want 5", len(prior))
	}
	c2, addr2 := startCoordinator(t, clk, CoordinatorConfig{
		Total: total, LeaseSize: 5, Checkpoint: reopened, Prior: prior,
	})
	if _, err := RunWorker(testWorker("resumer", addr2)); err != nil {
		t.Fatalf("resume worker: %v", err)
	}
	ds, st, err := c2.Wait()
	if err != nil {
		t.Fatalf("resumed Wait: %v", err)
	}
	if err := reopened.Close(); err != nil {
		t.Fatalf("close reopened: %v", err)
	}
	if st.Reused != 5 || st.Completed != total {
		t.Fatalf("resumed status = %+v, want 5 reused, %d completed", st, total)
	}
	if got, want := jsonl(t, ds), serialJSONL(t, total); !bytes.Equal(got, want) {
		t.Fatal("resumed dataset diverges from serial")
	}
}

// TestWorkerDrainOnInterrupt closes the worker's interrupt mid-campaign:
// it must finish and deliver the range it holds, then leave with
// Drained set while the coordinator keeps the campaign open.
func TestWorkerDrainOnInterrupt(t *testing.T) {
	const total = 20
	clk := newFakeClock()
	c, addr := startCoordinator(t, clk, CoordinatorConfig{Total: total, LeaseSize: 5})

	interrupt := make(chan struct{})
	w := testWorker("drainer", addr)
	w.Interrupt = interrupt
	w.Build = func(WireConfig, int) (RunRange, error) {
		return func(from, to int, emit func(*dataset.Experiment) error) error {
			close(interrupt) // interrupt fires while the range runs
			for seq := from; seq <= to; seq++ {
				if err := emit(testExp(seq)); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}
	st, err := RunWorker(w)
	if err != nil {
		t.Fatalf("draining worker: %v", err)
	}
	if !st.Drained || st.Ranges != 1 || st.Experiments != 5 {
		t.Fatalf("drain stats = %+v, want Drained with exactly one delivered range", st)
	}

	if _, err := RunWorker(testWorker("finisher", addr)); err != nil {
		t.Fatalf("finisher: %v", err)
	}
	ds, _, err := c.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got, want := jsonl(t, ds), serialJSONL(t, total); !bytes.Equal(got, want) {
		t.Fatal("dataset diverges from serial after worker drain")
	}
}

// TestWireConfigRoundTrip guards against wire schema drift. The config
// push is pinned byte for byte — these are ProtoVersion 2's field names,
// recorded before WireConfig became trace.Spec, so renaming a Spec field
// or its tag fails here instead of silently speaking a new protocol under
// the old version number — and the decoded push must rebuild the exact
// fingerprint of the original.
func TestWireConfigRoundTrip(t *testing.T) {
	cfg := trace.DefaultConfig(77)
	cfg.End = cfg.Start.Add(48 * time.Hour)
	cfg.ClientScale = 0.25
	cfg.Faults = "resolver-outage"
	wc := WireFromConfig(cfg)
	push, err := json.Marshal(&Message{Type: MsgConfig, Config: &wc, ConfigHash: cfg.Hash(), Total: 16})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"type":"config","config_hash":"c88704dea3a5fa17","config":{"seed":77,"start":"2014-03-01T00:00:00Z","end":"2014-03-03T00:00:00Z","interval":43200000000000,"lte_share":0.72,"travel_prob":0.06,"client_scale":0.25,"traceroute_every":1,"faults":"resolver-outage"},"total":16}`
	if string(push) != want {
		t.Fatalf("config push moved (ProtoVersion is still %d):\n got %s\nwant %s", ProtoVersion, push, want)
	}
	var back Message
	if err := json.Unmarshal(push, &back); err != nil {
		t.Fatal(err)
	}
	if got := back.Config.Hash(); got != cfg.Hash() {
		t.Fatalf("round-tripped hash %s != original %s (WireConfig lost a field?)", got, cfg.Hash())
	}
}

// frameRecords is a records trailer holding the separator byte, JSON and
// bytes that are not UTF-8: a trailer must arrive as it was, whatever it
// holds.
var frameRecords = []byte("CURTBIN\x01\n{\"not\":\"json\"}\n\x00\xff")

// frameMessages are the messages TestSegmentFrame sends: a segment
// carrying frameRecords, then a heartbeat.
func frameMessages() []*Message {
	return []*Message{
		{Type: MsgSegment, Lease: 7, Records: frameRecords},
		{Type: MsgHeartbeat, Lease: 7, Done: 3},
	}
}

// TestSegmentFrame pins the version-3 frame: length, JSON header, and for
// a segment one separator byte and the records as they are — whatever
// bytes they hold, the separator's own value included. Every other message
// is framed as it always was.
func TestSegmentFrame(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	records, sent := frameRecords, frameMessages()
	go func() {
		for _, m := range sent {
			if err := writeMsg(a, time.Minute, m); err != nil {
				t.Errorf("write %s: %v", m.Type, err)
			}
		}
	}()
	var prefix [4]byte
	if _, err := io.ReadFull(b, prefix[:]); err != nil {
		t.Fatal(err)
	}
	body := make([]byte, binary.BigEndian.Uint32(prefix[:]))
	if _, err := io.ReadFull(b, body); err != nil {
		t.Fatal(err)
	}
	if want := `{"type":"segment","lease":7}` + "\n" + string(records); string(body) != want {
		t.Fatalf("segment frame body = %q, want %q", body, want)
	}
	m, err := readMsg(b, time.Minute)
	if err != nil || m.Type != MsgHeartbeat || m.Lease != 7 || m.Done != 3 || m.Records != nil {
		t.Fatalf("heartbeat after a segment read back as %+v, %v", m, err)
	}

	go func() {
		if err := writeMsg(a, time.Minute, sent[0]); err != nil {
			t.Errorf("write: %v", err)
		}
	}()
	if m, err := readMsg(b, time.Minute); err != nil || m.Lease != 7 || !bytes.Equal(m.Records, records) {
		t.Fatalf("segment read back as %+v, %v", m, err)
	}
}

// TestReadMsgAllocatesWhatArrives: the length prefix is four bytes from a
// peer that has proven nothing yet. One that declares the largest legal
// frame, sends ten bytes and goes away must cost the reader the ten bytes'
// worth of buffer growth, not the 64 MB it announced.
func TestReadMsgAllocatesWhatArrives(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	go func() {
		var prefix [4]byte
		binary.BigEndian.PutUint32(prefix[:], maxMessage)
		_, _ = a.Write(prefix[:])
		_, _ = a.Write([]byte("0123456789"))
		_ = a.Close()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readMsg(b, time.Minute)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a frame cut after ten bytes was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("reading ten bytes behind a %d-byte length prefix allocated %d bytes", maxMessage, got)
	}

	// A frame longer than the first step still arrives whole.
	big := bytes.Repeat([]byte("segment!"), 3*readStep/8)
	a, b = net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		if err := writeMsg(a, time.Minute, &Message{Type: MsgSegment, Records: big}); err != nil {
			t.Errorf("write: %v", err)
		}
	}()
	if m, err := readMsg(b, time.Minute); err != nil || !bytes.Equal(m.Records, big) {
		t.Fatalf("a %d-byte frame did not survive stepwise growth: %v", len(big), err)
	}
}

// recvWithin reads one reply and requires it within d.
func (r *rawClient) recvWithin(d time.Duration) *Message {
	r.t.Helper()
	m, err := readMsg(r.conn, d)
	if err != nil {
		r.t.Fatalf("no reply within %v: %v", d, err)
	}
	return m
}

// expectParked requires the coordinator to be holding r's request: no reply
// arrives for a while.
func (r *rawClient) expectParked() {
	r.t.Helper()
	if err := r.conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond)); err != nil {
		r.t.Fatal(err)
	}
	var b [1]byte
	if _, err := r.conn.Read(b[:]); !errors.Is(err, os.ErrDeadlineExceeded) {
		r.t.Fatalf("lease request answered at once (err %v), want it parked", err)
	}
}

// TestParkedLeaseDoneOnCompletion: a lease request that finds every range
// leased out is held, not answered with a wait hint, and the holder's ack
// that completes the campaign answers it done — no poll interval later.
func TestParkedLeaseDoneOnCompletion(t *testing.T) {
	const total = 4
	c, addr := startCoordinator(t, newFakeClock(), CoordinatorConfig{Total: total, LeaseSize: total, RetryAfter: time.Hour})
	holder := dialRaw(t, addr)
	holder.handshake("holder")
	granted := holder.lease()
	idle := dialRaw(t, addr)
	idle.handshake("idle")
	idle.send(&Message{Type: MsgLease})
	idle.expectParked()

	holder.send(segmentFor(granted))
	holder.recv()
	if m := idle.recvWithin(2 * time.Second); m.Type != MsgDone {
		t.Fatalf("parked request answered %+v, want done", m)
	}
	holder.send(&Message{Type: MsgBye})
	idle.send(&Message{Type: MsgBye})
	ds, st, err := c.Wait()
	if err != nil || st.Completed != total {
		t.Fatalf("Wait = (%+v, %v), want %d completed", st, err, total)
	}
	if !bytes.Equal(jsonl(t, ds), serialJSONL(t, total)) {
		t.Fatal("dataset diverges from serial")
	}
}

// TestParkedLeaseTakesReleasedRange: the range of a worker whose socket
// dies goes straight to one of the requests parked behind it; the other
// parks again and is answered done when the campaign completes.
func TestParkedLeaseTakesReleasedRange(t *testing.T) {
	const total = 8
	c, addr := startCoordinator(t, newFakeClock(), CoordinatorConfig{Total: total, LeaseSize: total, RetryAfter: time.Hour})
	victim := dialRaw(t, addr)
	victim.handshake("victim")
	granted := victim.lease()
	rescues := []*rawClient{dialRaw(t, addr), dialRaw(t, addr)}
	for i, r := range rescues {
		r.handshake(fmt.Sprintf("rescue%d", i))
		r.send(&Message{Type: MsgLease})
		r.expectParked()
	}

	type reply struct {
		from int
		m    *Message
		err  error
	}
	replies := make(chan reply, len(rescues))
	for i, r := range rescues {
		go func(i int, r *rawClient) {
			m, err := readMsg(r.conn, 10*time.Second)
			replies <- reply{i, m, err}
		}(i, r)
	}
	victim.conn.Close() // SIGKILL
	var re reply
	select {
	case re = <-replies:
	case <-time.After(2 * time.Second):
		t.Fatal("no parked request took the released range within 2s")
	}
	if re.err != nil || re.m.Type != MsgRange || re.m.From != granted.From || re.m.To != granted.To {
		t.Fatalf("parked request answered %+v (%v), want the victim's range %d-%d", re.m, re.err, granted.From, granted.To)
	}
	taker := rescues[re.from]
	taker.send(segmentFor(re.m))
	taker.recv()
	if other := <-replies; other.err != nil || other.m.Type != MsgDone {
		t.Fatalf("the other parked request answered %+v (%v), want done", other.m, other.err)
	}
	for _, r := range rescues {
		r.send(&Message{Type: MsgBye})
	}
	ds, st, err := c.Wait()
	if err != nil || st.Released != 1 || st.Granted != 2 {
		t.Fatalf("Wait = (%+v, %v), want the victim's lease released once and granted twice", st, err)
	}
	if !bytes.Equal(jsonl(t, ds), serialJSONL(t, total)) {
		t.Fatal("dataset diverges from serial")
	}
}

// TestParkedLeaseWokenByInterrupt: Interrupt ends a parked request's
// session at once, so Wait does not sit out RetryAfter.
func TestParkedLeaseWokenByInterrupt(t *testing.T) {
	c, addr := startCoordinator(t, newFakeClock(), CoordinatorConfig{Total: 4, LeaseSize: 4, RetryAfter: time.Hour})
	holder := dialRaw(t, addr)
	holder.handshake("holder")
	holder.lease()
	idle := dialRaw(t, addr)
	idle.handshake("idle")
	idle.send(&Message{Type: MsgLease})
	idle.expectParked()

	start := time.Now()
	c.Interrupt()
	if _, _, err := c.Wait(); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Wait = %v, want ErrInterrupted", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("Wait took %v with a parked request", took)
	}
	if m, err := readMsg(idle.conn, 2*time.Second); err == nil {
		t.Fatalf("parked request answered %+v after Interrupt, want its session closed", m)
	}
}

// TestParkedLeaseTimesOutToRetry: a request parked for RetryAfter with
// nothing freed is answered wait with no delay, so the worker's next
// request is what looks for expired leases.
func TestParkedLeaseTimesOutToRetry(t *testing.T) {
	const retry = 50 * time.Millisecond
	c, addr := startCoordinator(t, newFakeClock(), CoordinatorConfig{Total: 4, LeaseSize: 4, RetryAfter: retry})
	holder := dialRaw(t, addr)
	holder.handshake("holder")
	holder.lease()
	idle := dialRaw(t, addr)
	idle.handshake("idle")
	start := time.Now()
	idle.send(&Message{Type: MsgLease})
	m := idle.recvWithin(2 * time.Second)
	if took := time.Since(start); m.Type != MsgWait || m.RetryMillis != 0 || took < retry {
		t.Fatalf("reply %+v after %v, want wait with no delay after at least %v", m, took, retry)
	}
	c.Interrupt()
	if _, _, err := c.Wait(); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Wait = %v, want ErrInterrupted", err)
	}
}
