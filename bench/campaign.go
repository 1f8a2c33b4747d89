package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"net/netip"
	"time"

	"cellcurtain/internal/dataset"
	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/measure"
	"cellcurtain/internal/radio"
	"cellcurtain/internal/sim"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/trace"
	"cellcurtain/internal/vnet"
)

// paperConfig is the campaign the paper ran, cut to two days at a 6 h
// period: 158 clients × 8 steps = 1,264 experiments.
func paperConfig(cfg config) trace.Config {
	tc := trace.DefaultConfig(cfg.seed)
	tc.End = tc.Start.AddDate(0, 0, 2)
	tc.Interval = 6 * time.Hour
	tc.ClientScale = cfg.scale
	tc.Workers = 1
	return tc
}

// countWriter counts and hashes what the codec writes, so a pass keeps
// no output in memory.
type countWriter struct {
	h hash.Hash
	n int64
}

func newCountWriter() *countWriter { return &countWriter{h: sha256.New()} }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return c.h.Write(p)
}

func (c *countWriter) sum() string { return hex.EncodeToString(c.h.Sum(nil)) }

// campaignPaper is workload 1: generate the paper's population and
// stream it through the binary codec. Generation is ~97 % of the work.
type campaignPaper struct {
	cfg config
	tr  *tracer

	world *sim.World
	camp  *trace.Campaign
	// worldBuildS and prepareS split setup_s.
	worldBuildS, prepareS float64

	runL, encodeL *layer

	// first is the warm-up pass's output: every later pass must hash to
	// firstSum.
	first    *bytes.Buffer
	firstSum string
	// last* describe the pass that just ran, for verify.
	lastSum             string
	lastCount, lastFail int
	lastErr             error
	// resolutions and probes are counted from the warm-up records.
	resolutions, probes int
	// mutate, when set, edits each record before it is encoded (tests
	// prove the output checks trip).
	mutate func(pass int, e *dataset.Experiment)
	passes int
}

func newCampaignPaper(cfg config, tr *tracer) *campaignPaper {
	return &campaignPaper{
		cfg: cfg, tr: tr,
		runL: tr.layer("trace.run", 1), encodeL: tr.layer("dataset.encode", 1),
	}
}

func (c *campaignPaper) setup() error {
	t0 := time.Now()
	w, err := sim.New(sim.Config{Seed: c.cfg.seed})
	if err != nil {
		return fmt.Errorf("bench: build world: %w", err)
	}
	c.worldBuildS = time.Since(t0).Seconds()
	t1 := time.Now()
	camp, err := trace.NewCampaign(w, paperConfig(c.cfg))
	if err != nil {
		return fmt.Errorf("bench: prepare campaign: %w", err)
	}
	c.prepareS = time.Since(t1).Seconds()
	c.world, c.camp = w, camp
	return nil
}

func (c *campaignPaper) warmups() int { return 1 }

func (c *campaignPaper) pass() (passResult, error) {
	cw := newCountWriter()
	var sink io.Writer = cw
	keep := c.firstSum == ""
	if keep {
		c.first = &bytes.Buffer{}
		sink = io.MultiWriter(cw, c.first)
	}
	bw := dataset.NewBinaryWriter(sink)
	c.lastCount, c.lastFail, c.lastErr = 0, 0, nil

	c.passes++
	start := time.Now()
	run := c.runL.begin()
	c.camp.Run(func(e *dataset.Experiment) {
		if c.mutate != nil {
			c.mutate(c.passes, e)
		}
		c.lastCount++
		if e.Failed {
			c.lastFail++
		}
		if keep {
			c.resolutions += len(e.Resolutions)
			c.probes += len(e.ResolverProbes) + len(e.ReplicaProbes)
		}
		enc := c.encodeL.begin()
		if err := bw.Append(e); err != nil && c.lastErr == nil {
			c.lastErr = err
		}
		c.encodeL.end(enc, run.id, uint64(e.Seq))
	})
	enc := c.encodeL.begin()
	if err := bw.Flush(); err != nil && c.lastErr == nil {
		c.lastErr = err
	}
	c.encodeL.end(enc, run.id, 0)
	c.runL.end(run, c.tr.root.Load(), 0)
	wall := time.Since(start)

	c.lastSum = cw.sum()
	if keep {
		c.firstSum = c.lastSum
	}
	return passResult{
		ops: int64(c.lastCount), failed: int64(c.lastFail),
		outBytes: cw.n, wall: wall,
	}, nil
}

func (c *campaignPaper) verify() error {
	if c.lastErr != nil {
		return fmt.Errorf("campaign-paper: encode: %w", c.lastErr)
	}
	if want := c.camp.Total(); c.lastCount != want {
		return fmt.Errorf("campaign-paper: pass recorded %d experiments, campaign has %d", c.lastCount, want)
	}
	if c.lastFail != 0 {
		return fmt.Errorf("campaign-paper: %d experiments carry the Failed marker", c.lastFail)
	}
	if c.lastSum != c.firstSum {
		return fmt.Errorf("campaign-paper: pass output sha256 %s differs from the first pass's %s", c.lastSum, c.firstSum)
	}
	if c.first != nil {
		// Once, on the warm-up output: the bytes must decode back to the
		// same number of records.
		n := 0
		err := dataset.Scan(bytes.NewReader(c.first.Bytes()), func(*dataset.Experiment) error { n++; return nil })
		c.first = nil
		if err != nil {
			return fmt.Errorf("campaign-paper: output does not re-scan: %w", err)
		}
		if n != c.lastCount {
			return fmt.Errorf("campaign-paper: output re-scans to %d records, wrote %d", n, c.lastCount)
		}
	}
	return nil
}

func (c *campaignPaper) info() map[string]string {
	return map[string]string{"output_sha256": c.firstSum}
}

func (c *campaignPaper) layers(lr *layerRun) error {
	m, total := lr.m, float64(c.camp.Total())
	m["sim.world_build_s"] = c.worldBuildS
	m["trace.prepare_s"] = c.prepareS
	m["trace.run_us_per_exp"] = c.runL.usPer(lr.tracedOps)
	m["dataset.encode_us_per_exp"] = c.encodeL.usPer(lr.tracedOps)
	m["measure.resolutions_per_exp"] = float64(c.resolutions) / total
	m["measure.probes_per_exp"] = float64(c.probes) / total
	m["measure.failed_exps"] = float64(c.lastFail)

	us, err := measureRung(c.world, c.camp, c.cfg.seed)
	if err != nil {
		return err
	}
	m["measure.run_us_per_exp"] = us
	m["trace.self_us_per_exp"] = m["trace.run_us_per_exp"] - m["dataset.encode_us_per_exp"] - us

	if m["vnet.resolve_roundtrip_us"], err = fabricRung(c.world); err != nil {
		return err
	}
	m["dnswire.pack_ns"], m["dnswire.parse_ns"], err = wireRung(chainReply())
	return err
}

func (c *campaignPaper) close() error { return nil }

// measureRung times the measurement script alone: measure.Runner.RunAt
// over up to 200 sampled devices per carrier at every campaign step, at
// the instants and on the per-experiment streams the campaign derives,
// without trace's scheduling around it.
func measureRung(w *sim.World, camp *trace.Campaign, seed uint64) (float64, error) {
	runner := measure.NewRunner(w)
	tc := camp.Config
	n := 0
	var spent time.Duration
	for step := 0; step < camp.Steps(); step++ {
		base := tc.Start.Add(time.Duration(step) * tc.Interval)
		for _, cn := range w.Carriers {
			clients, release := camp.SampleClients(cn, 200)
			legacy := cn.RadioFamily()[1:]
			for j, cl := range clients {
				// One device in four measures on the carrier's first legacy
				// technology, near the campaign's 72 % LTE share.
				cl.Loc, cl.Tech = cl.Home, radio.LTE
				if j%4 == 3 && len(legacy) > 0 {
					cl.Tech = legacy[0]
				}
				// Devices are spread inside the round as the campaign
				// spreads them.
				now := base.Add(time.Duration(cl.Key%uint64(tc.Interval/time.Minute)) * time.Minute)
				n++
				t0 := time.Now()
				e := runner.RunAt(cl, now, n, stats.Stream(seed, cl.Key, uint64(n)))
				spent += time.Since(t0)
				if e.Failed || len(e.Resolutions) == 0 {
					release()
					return 0, fmt.Errorf("bench: measure rung: empty or failed experiment for %s", cl.ID)
				}
			}
			release()
		}
	}
	if n == 0 {
		return 0, errors.New("bench: measure rung: no clients sampled")
	}
	return float64(spent) / 1e3 / float64(n), nil
}

// fabricRung times one local-resolver query through the virtual fabric
// (root BenchmarkFabricResolution), in µs per round trip.
func fabricRung(w *sim.World) (float64, error) {
	cn := w.Carriers[0]
	cl := cn.NewClient("bench-fabric", cn.Egresses[0].City.Loc)
	cl.Tech = radio.LTE
	payload, err := dnswire.NewQuery(9, "m.yelp.com", dnswire.TypeA).Pack()
	if err != nil {
		return 0, fmt.Errorf("bench: fabric rung: %w", err)
	}
	const iters = 2000
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		w.Fabric.SetNow(w.Fabric.Now().Add(time.Minute))
		_, _, err := w.Fabric.RoundTrip(cl.Addr, cl.ConfiguredResolver(), 53, payload)
		// The radio link models ~0.4 % loss per round trip; a timeout is
		// a round trip all the same.
		if err != nil && !errors.Is(err, vnet.ErrTimeout) {
			return 0, fmt.Errorf("bench: fabric rung: %w", err)
		}
	}
	return float64(time.Since(t0)) / 1e3 / iters, nil
}

// chainReply is the CNAME + 2×A answer of the root micro-benchmarks.
func chainReply() *dnswire.Message {
	r := dnswire.NewQuery(1, "edge.cdn.example.net", dnswire.TypeA).Reply()
	r.Answers = []dnswire.Record{
		{Name: "edge.cdn.example.net", Class: dnswire.ClassIN, TTL: 30,
			Data: dnswire.CNAME{Target: "pop7.cdn.example.net"}},
		{Name: "pop7.cdn.example.net", Class: dnswire.ClassIN, TTL: 30,
			Data: dnswire.A{Addr: netip.MustParseAddr("23.0.7.1")}},
		{Name: "pop7.cdn.example.net", Class: dnswire.ClassIN, TTL: 30,
			Data: dnswire.A{Addr: netip.MustParseAddr("23.0.7.2")}},
	}
	return r
}

// wireRung times dnswire Pack and Parse of the given messages, in ns
// per message.
func wireRung(msgs ...*dnswire.Message) (packNS, parseNS float64, err error) {
	// About 200k messages each way, however many the set holds.
	rounds := 200000/len(msgs) + 1
	wires := make([][]byte, len(msgs))
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for j, m := range msgs {
			if wires[j], err = m.Pack(); err != nil {
				return 0, 0, fmt.Errorf("bench: wire rung: %w", err)
			}
		}
	}
	packNS = float64(time.Since(t0)) / float64(rounds*len(msgs))
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		for _, wire := range wires {
			if _, err = dnswire.Parse(wire); err != nil {
				return 0, 0, fmt.Errorf("bench: wire rung: %w", err)
			}
		}
	}
	parseNS = float64(time.Since(t0)) / float64(rounds*len(msgs))
	return packNS, parseNS, nil
}
