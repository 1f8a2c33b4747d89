package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cellcurtain/internal/controlplane"
	"cellcurtain/internal/dataset"
	"cellcurtain/internal/sim"
	"cellcurtain/internal/trace"
)

// replayTotal is the size of the coordinated campaign: the 1,264 base
// experiments replayed under fresh sequence numbers.
const replayTotal = 10000

// coordReplay is workload 3: a coordinator and nproc workers on
// loopback TCP, with generation replaced by a replay stub so leases,
// frames, segment (un)marshalling, the exactly-once merge and checkpoint
// append do all the work.
type coordReplay struct {
	cfg config
	tr  *tracer

	tc    trace.Config
	base  []*dataset.Experiment
	total int
	// wantSum is the sha256 of Dataset.Write of the replay source.
	wantSum string

	replayL *layer
	wire    atomic.Int64 // bytes both ways over the workers' conns, traced passes only
	passes  int

	// last* describe the pass that just ran, for verify.
	lastDS     *dataset.Dataset
	lastStatus controlplane.Status
	lastErr    error
	// wrongSeq, when non-zero, makes the replay stub answer that seq with
	// its neighbour's measurements (tests prove the byte check trips).
	wrongSeq int

	status []controlplane.Status // traced passes
	linger []float64             // ms, traced passes
}

func newCoordReplay(cfg config, tr *tracer) *coordReplay {
	return &coordReplay{cfg: cfg, tr: tr, replayL: tr.layer("controlplane.replay", 64)}
}

func (c *coordReplay) setup() error {
	w, err := sim.New(sim.Config{Seed: c.cfg.seed})
	if err != nil {
		return fmt.Errorf("bench: build world: %w", err)
	}
	c.tc = paperConfig(c.cfg)
	camp, err := trace.NewCampaign(w, c.tc)
	if err != nil {
		return fmt.Errorf("bench: prepare campaign: %w", err)
	}
	camp.Run(func(e *dataset.Experiment) { c.base = append(c.base, e) })
	if len(c.base) == 0 {
		return fmt.Errorf("bench: empty base campaign")
	}
	c.total = c.cfg.scaled(replayTotal)

	src := &dataset.Dataset{}
	for seq := 1; seq <= c.total; seq++ {
		src.Add(c.replay(seq))
	}
	cw := newCountWriter()
	if err := src.Write(cw, dataset.FormatBinary); err != nil {
		return fmt.Errorf("bench: encode replay source: %w", err)
	}
	c.wantSum = cw.sum()
	return nil
}

// replay is the workers' generation stub: experiment seq of the
// coordinated campaign is base experiment (seq-1) mod len(base),
// renumbered.
func (c *coordReplay) replay(seq int) *dataset.Experiment {
	e := *c.base[(seq-1)%len(c.base)]
	e.Seq = seq
	return &e
}

// countingConn counts the bytes a worker's connection moves.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *coordReplay) warmups() int { return 1 }

func (c *coordReplay) pass() (passResult, error) {
	c.passes++
	dir := filepath.Join(c.cfg.tmpdir, fmt.Sprintf("coord-%d", c.passes))
	defer os.RemoveAll(dir)
	traced := c.tr.on.Load()
	root := c.tr.root.Load()

	start := time.Now()
	hash := c.tc.Hash()
	ck, err := dataset.CreateCheckpoint(dir, dataset.Manifest{
		Format: dataset.FormatBinary, Seed: c.tc.Seed, ConfigHash: hash, Total: c.total,
	}, 0)
	if err != nil {
		return passResult{}, fmt.Errorf("bench: %w", err)
	}
	coord := controlplane.NewCoordinator(controlplane.CoordinatorConfig{
		Seed: c.tc.Seed, ConfigHash: hash, Total: c.total,
		Wire: controlplane.WireFromConfig(c.tc), Checkpoint: ck,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = ck.Close()
		return passResult{}, fmt.Errorf("bench: %w", err)
	}
	addr := ln.Addr().String()
	coord.Start(ln)

	// lastEmit is when the last experiment left a worker's stub; what
	// remains of the pass after it is merge tail and drain linger.
	var lastEmit atomic.Int64
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wc := controlplane.WorkerConfig{
				ID: fmt.Sprintf("bench-%d", i), Addr: addr,
				Build: func(controlplane.WireConfig, int) (controlplane.RunRange, error) {
					return controlplane.CampaignRunner(func(seq int) (*dataset.Experiment, error) {
						tk := c.replayL.begin()
						e := c.replay(seq)
						if seq == c.wrongSeq {
							e = c.replay(seq + 1)
							e.Seq = seq
						}
						c.replayL.end(tk, root, uint64(seq))
						if traced {
							lastEmit.Store(int64(time.Since(start)))
						}
						return e, nil
					}), nil
				},
			}
			if traced {
				wc.Dial = func() (net.Conn, error) {
					conn, err := net.Dial("tcp", addr)
					if err != nil {
						return nil, err
					}
					return countingConn{Conn: conn, n: &c.wire}, nil
				}
			}
			_, errs[i] = controlplane.RunWorker(wc)
		}(i)
	}
	c.lastDS, c.lastStatus, c.lastErr = coord.Wait()
	wall := time.Since(start)
	wg.Wait()
	if err := ck.Close(); err != nil && c.lastErr == nil {
		c.lastErr = err
	}
	// The pass's output is what the coordinator left on disk: the
	// checkpoint's segment and manifest.
	written, err := dirBytes(dir)
	if err != nil && c.lastErr == nil {
		c.lastErr = err
	}
	for _, err := range errs {
		if err != nil && c.lastErr == nil {
			c.lastErr = err
		}
	}
	if traced {
		c.status = append(c.status, c.lastStatus)
		c.linger = append(c.linger, float64(wall-time.Duration(lastEmit.Load()))/1e6)
	}
	return passResult{ops: int64(c.total), outBytes: written, wall: wall}, nil
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("bench: %w", err)
	}
	var n int64
	for _, de := range entries {
		fi, err := de.Info()
		if err != nil {
			return 0, fmt.Errorf("bench: %w", err)
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n, nil
}

func (c *coordReplay) verify() error {
	ds, st := c.lastDS, c.lastStatus
	c.lastDS = nil
	if c.lastErr != nil {
		return fmt.Errorf("coord-replay: %w", c.lastErr)
	}
	if ds.Len() != c.total {
		return fmt.Errorf("coord-replay: merged %d experiments, want %d", ds.Len(), c.total)
	}
	for i, e := range ds.Experiments {
		if e.Seq != i+1 {
			return fmt.Errorf("coord-replay: merged position %d holds seq %d", i, e.Seq)
		}
	}
	if st.DupSeqs != 0 {
		return fmt.Errorf("coord-replay: merge dropped %d duplicate seqs with no worker lost", st.DupSeqs)
	}
	cw := newCountWriter()
	if err := ds.Write(cw, dataset.FormatBinary); err != nil {
		return fmt.Errorf("coord-replay: encode merged dataset: %w", err)
	}
	if got := cw.sum(); got != c.wantSum {
		return fmt.Errorf("coord-replay: merged dataset sha256 %s, replay source %s", got, c.wantSum)
	}
	return nil
}

func (c *coordReplay) info() map[string]string {
	return map[string]string{"merged_sha256": c.wantSum}
}

func (c *coordReplay) layers(lr *layerRun) error {
	m, n := lr.m, lr.tracedOps
	if n == 0 {
		return nil
	}
	var granted, reassigned, dups int
	var p50, p95 []float64
	for _, st := range c.status {
		granted += st.Granted
		reassigned += st.Reassigned
		dups += st.DupSeqs
		p50 = append(p50, st.LeaseP50Secs*1e3)
		p95 = append(p95, st.LeaseP95Secs*1e3)
	}
	passes := float64(len(c.status))
	m["controlplane.leases_granted"] = float64(granted) / passes
	m["controlplane.leases_reassigned"] = float64(reassigned) / passes
	m["controlplane.dup_seqs"] = float64(dups) / passes
	m["controlplane.lease_p50_ms"] = median(p50)
	m["controlplane.lease_p95_ms"] = median(p95)
	m["controlplane.drain_linger_ms"] = median(c.linger)
	m["controlplane.wire_bytes_per_exp"] = float64(c.wire.Load()) / float64(n)

	replay := c.replayL.usPer(n)
	marshal, unmarshal, err := segmentRung(c.base)
	if err != nil {
		return err
	}
	appendUS, err := c.checkpointRung()
	if err != nil {
		return err
	}
	m["controlplane.replay_us_per_exp"] = replay
	m["dataset.marshal_us_per_exp"] = marshal
	m["dataset.unmarshal_us_per_exp"] = unmarshal
	m["dataset.checkpoint_append_us_per_exp"] = appendUS
	m["controlplane.self_us_per_exp"] = 1e6/lr.opsPerS - replay - marshal - unmarshal - appendUS
	return nil
}

func (c *coordReplay) close() error { return nil }

// segmentRung times MarshalExperiments and UnmarshalExperiments over
// lease-sized (64-record) batches, in µs per experiment.
func segmentRung(base []*dataset.Experiment) (marshalUS, unmarshalUS float64, err error) {
	const lease, rounds = 64, 5
	var mar, unmar time.Duration
	n := 0
	for r := 0; r < rounds; r++ {
		for from := 0; from < len(base); from += lease {
			batch := base[from:min(from+lease, len(base))]
			t0 := time.Now()
			payload, err := dataset.MarshalExperiments(batch)
			mar += time.Since(t0)
			if err != nil {
				return 0, 0, fmt.Errorf("bench: segment rung: %w", err)
			}
			t0 = time.Now()
			back, err := dataset.UnmarshalExperiments(payload)
			unmar += time.Since(t0)
			if err != nil {
				return 0, 0, fmt.Errorf("bench: segment rung: %w", err)
			}
			if len(back) != len(batch) {
				return 0, 0, fmt.Errorf("bench: segment rung: decoded %d of %d records", len(back), len(batch))
			}
			n += len(batch)
		}
	}
	return float64(mar) / 1e3 / float64(n), float64(unmar) / 1e3 / float64(n), nil
}

// checkpointRung times Checkpoint.Append of the whole replay at the
// default fsync cadence, in µs per experiment.
func (c *coordReplay) checkpointRung() (float64, error) {
	dir := filepath.Join(c.cfg.tmpdir, "coord-rung")
	defer os.RemoveAll(dir)
	ck, err := dataset.CreateCheckpoint(dir, dataset.Manifest{
		Format: dataset.FormatBinary, Seed: c.tc.Seed, ConfigHash: c.tc.Hash(), Total: c.total,
	}, 0)
	if err != nil {
		return 0, fmt.Errorf("bench: checkpoint rung: %w", err)
	}
	t0 := time.Now()
	for seq := 1; seq <= c.total; seq++ {
		if err := ck.Append(c.replay(seq)); err != nil {
			_ = ck.Close()
			return 0, fmt.Errorf("bench: checkpoint rung: %w", err)
		}
	}
	if err := ck.Close(); err != nil {
		return 0, fmt.Errorf("bench: checkpoint rung: %w", err)
	}
	return float64(time.Since(t0)) / 1e3 / float64(c.total), nil
}
