// Package trace generates the measurement campaign: the client population
// of Table 1 (33/9/31/64 US + 17/4 SK devices), their home locations,
// mobility, radio-technology mix and the periodic experiment schedule over
// the paper's five-month window (2014-03-01 .. 2014-08-01).
package trace

import (
	"errors"
	"fmt"
	"net/netip"
	"strconv"
	"sync"
	"time"

	"cellcurtain/internal/carrier"
	"cellcurtain/internal/dataset"
	"cellcurtain/internal/fault"
	"cellcurtain/internal/geo"
	"cellcurtain/internal/measure"
	"cellcurtain/internal/radio"
	"cellcurtain/internal/sim"
	"cellcurtain/internal/stats"
)

// worldBook adapts a world's FaultTargets to the fault.AddressBook shape.
func worldBook(w *sim.World) fault.AddressBook {
	return func(class fault.TargetClass) ([]netip.Addr, bool) {
		return w.FaultTargets(string(class))
	}
}

// Spec is a campaign's identity: the fields that determine every byte of
// its dataset, and nothing about how a run executes. It is the one
// definition of that list — Config embeds it, Hash fingerprints it, the
// campaign's world derives from it (worldConfig), and the control plane
// pushes it to workers verbatim (its JSON form is the wire schema,
// controlplane.ProtoVersion 2), so a field added here is hashed, pushed
// and adopted without a second edit.
type Spec struct {
	// Seed drives population and schedule randomness.
	Seed uint64 `json:"seed"`
	// Start and End bound the campaign window. Zero values default to the
	// paper's five months.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Interval is the experiment period per device. The paper ran
	// hourly; the default here is 12h to keep the full-window campaign
	// tractable — the longitudinal shapes are interval-invariant.
	Interval time.Duration `json:"interval"`
	// LTEShare is the fraction of experiments on LTE (the paper's focus);
	// the remainder exercises the carrier's 2G/3G family for Fig 3.
	LTEShare float64 `json:"lte_share"`
	// TravelProb is the per-experiment probability a client measures away
	// from home (mobility).
	TravelProb float64 `json:"travel_prob"`
	// ClientScale scales the Table 1 population (1.0 = the paper's 158
	// clients; smaller values for quick runs, at least 1 per carrier).
	ClientScale float64 `json:"client_scale"`
	// TracerouteEvery thins replica traceroutes (1 = every experiment).
	TracerouteEvery int `json:"traceroute_every"`
	// Faults, when non-empty, is a fault scenario — a preset name or
	// internal/fault DSL text — compiled against each shard's world and
	// installed on its fabric. Injections draw from the per-experiment
	// stream, so a fault campaign stays worker-count invariant.
	Faults string `json:"faults,omitempty"`
	// Substrate selects a counterfactual world (the ablations'); its zero
	// value is the paper's world and adds nothing to the JSON or the hash.
	sim.Substrate
}

// Hash fingerprints the spec. Everything outside it — Config's worker,
// checkpoint and interrupt fields — shapes how a run executes but never
// what it produces, so it stays out of the fingerprint. A resume refuses
// a checkpoint whose recorded hash differs: continuing it would splice
// two different datasets together.
//
// Substrate parts are appended only when set, so every paper-world hash
// is the one recorded before the substrate joined the Spec.
func (s Spec) Hash() string {
	s = s.withDefaults()
	parts := []string{
		strconv.FormatUint(s.Seed, 10),
		s.Start.UTC().Format(time.RFC3339Nano),
		s.End.UTC().Format(time.RFC3339Nano),
		s.Interval.String(),
		strconv.FormatFloat(s.LTEShare, 'g', -1, 64),
		strconv.FormatFloat(s.TravelProb, 'g', -1, 64),
		strconv.FormatFloat(s.ClientScale, 'g', -1, 64),
		strconv.Itoa(s.TracerouteEvery),
		s.Faults,
	}
	if s.CDNMapBits != 0 {
		parts = append(parts, "cdn_map_bits="+strconv.Itoa(s.CDNMapBits))
	}
	if s.StablePairing {
		parts = append(parts, "stable_pairing")
	}
	return fmt.Sprintf("%016x", stats.Fingerprint(parts...))
}

func (s Spec) withDefaults() Spec {
	d := DefaultConfig(s.Seed).Spec
	if s.Start.IsZero() {
		s.Start = d.Start
	}
	if s.End.IsZero() {
		s.End = d.End
	}
	if s.Interval <= 0 {
		s.Interval = d.Interval
	}
	if s.LTEShare <= 0 {
		s.LTEShare = d.LTEShare
	}
	if s.TravelProb < 0 {
		s.TravelProb = d.TravelProb
	}
	if s.ClientScale <= 0 {
		s.ClientScale = d.ClientScale
	}
	if s.TracerouteEvery <= 0 {
		s.TracerouteEvery = d.TracerouteEvery
	}
	if s.CDNMapBits == 24 {
		s.CDNMapBits = 0 // the default spelled out: one world, one identity
	}
	return s
}

// worldConfig is the one derivation of a campaign's world from its Spec:
// every world a campaign runs on — primary or worker replica, local or
// pushed to a coordinated worker — is sim.New of exactly this.
func worldConfig(s Spec) sim.Config {
	s = s.withDefaults()
	return sim.Config{Seed: s.Seed, Substrate: s.Substrate}
}

// newWorld builds the world a Spec derives.
func newWorld(s Spec) (*sim.World, error) {
	w, err := sim.New(worldConfig(s))
	if err != nil {
		return nil, fmt.Errorf("trace: build world: %w", err)
	}
	return w, nil
}

// Config parameterizes a campaign: the Spec that identifies its dataset
// plus how this process executes it.
type Config struct {
	Spec
	// Workers is the number of parallel execution shards (<= 1 = serial).
	// Experiments are independent — each runs on a per-experiment random
	// stream derived from (Seed, client, seq) — so the collected dataset
	// is byte-identical for any worker count at a fixed seed.
	Workers int
	// WorldFactory, when set, builds the replica worlds of the workers
	// beyond the first instead of deriving them from the Spec; each replica
	// must report the Spec's world config like the primary. Only the bench
	// module's cohort workload sets it; nothing else needs to.
	WorldFactory func() (*sim.World, error)
	// CheckpointDir, when non-empty, makes Run append every completed
	// experiment to a fsync'd curtainbin segment under this directory, with
	// a manifest recording the campaign's identity. A run killed at any
	// point resumes from the durable prefix.
	CheckpointDir string
	// CheckpointEvery is the fsync cadence in experiments (0 = the
	// dataset package default). Smaller values bound the re-run window
	// after a hard kill at the cost of more fsyncs.
	CheckpointEvery int
	// Resume makes Run load the checkpoint in CheckpointDir, verify its
	// seed/config hash, skip every durable experiment and run only the
	// remainder. Per-experiment RNG streams keyed by
	// (Seed, client, seq) make the continuation byte-identical to an
	// uninterrupted run, for any worker count and under faults.
	Resume bool
	// Interrupt, when non-nil, requests a graceful stop once closed:
	// workers finish their in-flight experiment (drain), the checkpoint
	// (if any) is flushed, and Run returns ErrInterrupted.
	Interrupt <-chan struct{}
}

// DefaultConfig returns the paper-shaped campaign configuration.
func DefaultConfig(seed uint64) Config {
	return Config{Spec: Spec{
		Seed:            seed,
		Start:           time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC),
		End:             time.Date(2014, 8, 1, 0, 0, 0, 0, time.UTC),
		Interval:        12 * time.Hour,
		LTEShare:        0.72,
		TravelProb:      0.06,
		ClientScale:     1.0,
		TracerouteEvery: 1,
	}}
}

func (c Config) withDefaults() Config {
	c.Spec = c.Spec.withDefaults()
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return c
}

// Campaign is a scheduled measurement study over one world.
//
// The client population is never materialized: the campaign records only
// per-carrier counts and derives each device — identity, home, egress
// ranking — on demand from a pure random stream keyed by (seed, carrier,
// index), leasing one pooled Client struct per carrier per shard for the
// duration of an experiment. Generator memory is therefore O(workers),
// not O(clients), which is what lets million-client campaigns run in a
// bounded footprint.
type Campaign struct {
	World  *sim.World
	Config Config

	runner *measure.Runner
	// counts and cities are per-carrier, aligned with World.Carriers;
	// total is the full population size.
	counts []int
	cities [][]geo.City
	total  int
	// scratch holds one pooled Client per carrier, re-filled for each of
	// this shard's experiments (shards never run two experiments at once).
	scratch []*carrier.Client
	// replicas are the worker shards beyond the first: identical
	// campaigns over independently built worlds. Worker w handles
	// clients w, w+Workers, w+2*Workers, ... on its own replica.
	replicas []*Campaign
	// afterExperiment, when set (tests), observes each newly completed
	// experiment with the total completed count, including experiments
	// reused from a checkpoint. Workers may invoke it concurrently.
	afterExperiment func(completed int)
}

// clientSalt separates the population stream from every other campaign
// stream; prepareSalt does the same for per-experiment mobility/radio.
const (
	clientSalt  = 0x51AA7
	prepareSalt = 0x93E1
)

// New builds the world cfg's Spec derives and the campaign over it — what
// simulate, coordinate, worker and the reproduction each need before they
// can size or run anything.
func New(cfg Config) (*Campaign, error) {
	w, err := newWorld(cfg.Spec)
	if err != nil {
		return nil, err
	}
	return NewCampaign(w, cfg)
}

// NewCampaign sizes the client population and prepares the runner over
// w, which must be the world cfg's Spec derives: a world built from
// another seed or substrate is refused, naming both. Worker shards beyond
// the first run on replica worlds derived from the same Spec.
func NewCampaign(w *sim.World, cfg Config) (*Campaign, error) {
	cfg = cfg.withDefaults()
	if got, want := w.Config(), worldConfig(cfg.Spec); got != want {
		return nil, fmt.Errorf("trace: world built from %+v, but the campaign's Spec derives %+v", got, want)
	}
	c := &Campaign{
		World:  w,
		Config: cfg,
		runner: measure.NewRunner(w),
	}
	c.runner.TracerouteEvery = cfg.TracerouteEvery
	for _, cn := range w.Carriers {
		count := int(float64(cn.ClientCount)*cfg.ClientScale + 0.5)
		if count < 1 {
			count = 1
		}
		cities := geo.CitiesIn(cn.Country)
		if len(cities) == 0 {
			return nil, fmt.Errorf("trace: no cities for %s", cn.Country)
		}
		c.counts = append(c.counts, count)
		c.cities = append(c.cities, cities)
		c.total += count
	}
	c.scratch = make([]*carrier.Client, len(w.Carriers))
	if cfg.Faults != "" {
		// Each shard gets its own Schedule instance: the schedule holds a
		// per-experiment stream, which must not be shared across workers.
		sched, err := fault.Compile(cfg.Faults, worldBook(w), cfg.Start, cfg.End)
		if err != nil {
			return nil, fmt.Errorf("trace: fault scenario: %w", err)
		}
		w.Fabric.SetInjector(sched)
	}
	replicaWorld := cfg.WorldFactory
	if replicaWorld == nil {
		replicaWorld = func() (*sim.World, error) { return newWorld(cfg.Spec) }
	}
	for i := 1; i < cfg.Workers; i++ {
		rw, err := replicaWorld()
		if err != nil {
			return nil, fmt.Errorf("trace: building world replica %d: %w", i, err)
		}
		repCfg := cfg
		repCfg.Workers = 1
		repCfg.WorldFactory = nil
		// Durability is coordinated by the root campaign; shards only
		// run experiments.
		repCfg.CheckpointDir, repCfg.Resume = "", false
		rep, err := NewCampaign(rw, repCfg)
		if err != nil {
			return nil, fmt.Errorf("trace: campaign replica %d: %w", i, err)
		}
		c.replicas = append(c.replicas, rep)
	}
	return c, nil
}

// jitter displaces a point by up to r degrees in each axis.
func jitter(p geo.Point, rng *stats.RNG, r float64) geo.Point {
	return geo.Point{
		Lat: p.Lat + (rng.Float64()*2-1)*r,
		Lon: p.Lon + (rng.Float64()*2-1)*r,
	}
}

// materializeClient derives device j of carrier ci purely from the
// campaign seed — identity, home city, metro jitter — and fills dst with
// it. Deriving instead of storing is what keeps the population lazy: any
// device can be rebuilt at any time from O(1) state.
func (c *Campaign) materializeClient(ci, j int, dst *carrier.Client) {
	cn := c.World.Carriers[ci]
	r := stats.Stream(c.Config.Seed^clientSalt, stats.Fingerprint(cn.Name), uint64(j))
	cities := c.cities[ci]
	home := jitter(cities[r.Intn(len(cities))].Loc, r, 0.08) // ~ within metro area
	cn.FillClientAt(dst, fmt.Sprintf("%s-%03d", cn.Name, j), home, j)
}

// leaseClient materializes device j of carrier ci into the shard's
// pooled scratch Client and subscribes it to its carrier for the
// experiment about to run. The caller must Unsubscribe when done.
func (c *Campaign) leaseClient(ci, j int) *carrier.Client {
	dst := c.scratch[ci]
	if dst == nil {
		dst = new(carrier.Client)
		c.scratch[ci] = dst
	}
	c.materializeClient(ci, j, dst)
	c.World.Carriers[ci].Subscribe(dst)
	return dst
}

// locate maps a global client index to (carrier index, within-carrier
// index).
func (c *Campaign) locate(clientIdx int) (ci, j int) {
	for ci, n := range c.counts {
		if clientIdx < n {
			return ci, clientIdx
		}
		clientIdx -= n
	}
	panic("trace: client index out of range")
}

// ClientCount returns the campaign's population size.
func (c *Campaign) ClientCount() int { return c.total }

// CarrierClientCount returns one carrier's population size by name.
func (c *Campaign) CarrierClientCount(name string) int {
	for ci, cn := range c.World.Carriers {
		if cn.Name == name {
			return c.counts[ci]
		}
	}
	return 0
}

// SampleClients materializes and subscribes up to max devices of a
// carrier, for post-campaign analyses that probe from client addresses.
// The returned release func unsubscribes them; the clients are valid
// only until release is called.
func (c *Campaign) SampleClients(cn *carrier.Network, max int) ([]*carrier.Client, func()) {
	ci := -1
	for i, other := range c.World.Carriers {
		if other == cn {
			ci = i
			break
		}
	}
	if ci < 0 {
		return nil, func() {}
	}
	n := c.counts[ci]
	if n > max {
		n = max
	}
	out := make([]*carrier.Client, n)
	for j := 0; j < n; j++ {
		dst := new(carrier.Client)
		c.materializeClient(ci, j, dst)
		cn.Subscribe(dst)
		out[j] = dst
	}
	return out, func() {
		for _, cl := range out {
			cn.Unsubscribe(cl)
		}
	}
}

// prepare sets a client's location and radio technology for one
// experiment, deterministically from (client, time).
func (c *Campaign) prepare(client *carrier.Client, ci int, now time.Time) {
	cn := c.World.Carriers[ci]
	r := stats.Stream(c.Config.Seed, prepareSalt, client.Key^uint64(now.UnixNano()))
	// Mobility: mostly tiny jitter around home (within the paper's 1 km
	// static-location filter), occasionally a trip to another city.
	if r.Float64() < c.Config.TravelProb {
		cities := c.cities[ci]
		client.Loc = jitter(cities[r.Intn(len(cities))].Loc, r, 0.05)
	} else {
		client.Loc = jitter(client.Home, r, 0.004) // ≤ ~500 m
	}
	// Radio technology: LTE-dominated with the carrier's legacy family in
	// the tail.
	if r.Float64() < c.Config.LTEShare {
		client.Tech = radio.LTE
	} else {
		fam := cn.RadioFamily()[1:] // exclude LTE
		client.Tech = fam[r.Intn(len(fam))]
	}
}

// Steps returns the number of experiment rounds in the window.
func (c *Campaign) Steps() int {
	return int(c.Config.End.Sub(c.Config.Start) / c.Config.Interval)
}

// postCampaignLabel derives the stream that rebases every shard's fabric
// after the campaign, so post-campaign probing (table/figure analyses)
// sees identical fabric state regardless of worker count.
const postCampaignLabel = 0x90D7

// ErrInterrupted reports a campaign stopped early on Config.Interrupt.
// With a checkpoint, every completed experiment is durable in it and a
// later run with Config.Resume continues from exactly that point.
var ErrInterrupted = errors.New("trace: campaign interrupted")

// RunStatus reports how a campaign run ended.
type RunStatus struct {
	// Total is the number of experiments in the full campaign.
	Total int
	// Completed is how many experiments are durable, counting both
	// checkpoint-reused and newly run ones.
	Completed int
	// Reused is how many experiments were loaded from the checkpoint
	// instead of re-run.
	Reused int
	// DiscardedBytes is the size of the torn segment tail dropped on
	// resume (nonzero only after a hard kill mid-append).
	DiscardedBytes int
	// Interrupted reports the run drained and stopped on Config.Interrupt
	// before completing.
	Interrupted bool
}

// Run executes the full campaign — the single run entry — invoking record
// for every experiment in canonical (time, client, seq) order. Each
// experiment runs on its own random stream derived from (Seed, client,
// seq), so the recorded dataset is byte-identical whether the campaign
// runs serially or sharded across workers.
//
// record is invoked while the campaign is still running, as soon as the
// canonical prefix up to an experiment is complete — so results can
// stream straight into an analysis suite (record = suite.Observe)
// without ever materializing the dataset. On a fresh run, memory is
// bounded by the workers' out-of-order window, not the campaign size.
//
// The run is durable exactly when Config.CheckpointDir is set: completed
// experiments are appended to the checkpoint segment as they finish, and
// with Config.Resume the durable prefix of a previous run is adopted (see
// AdoptCheckpoint), reused, and only the remainder executes. Without a
// checkpoint the only error is ErrInterrupted. On interrupt the
// checkpoint is flushed first; record has then seen only a canonical
// prefix, which the caller must discard.
func (c *Campaign) Run(record func(*dataset.Experiment)) (RunStatus, error) {
	var (
		ck        *dataset.Checkpoint
		prior     map[int]*dataset.Experiment
		discarded int
	)
	if c.Config.CheckpointDir != "" {
		var err error
		if ck, prior, discarded, err = c.AdoptCheckpoint(); err != nil {
			//lint:ignore errwrap AdoptCheckpoint errors name the checkpoint, and ConfigMismatchError must stay errors.As-matchable
			return RunStatus{}, err
		}
	}
	st, err := c.run(prior, ck, record)
	st.DiscardedBytes = discarded
	if ck != nil {
		if cerr := ck.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		//lint:ignore errwrap checkpoint Append/Close errors already name the checkpoint
		return st, err
	}
	if st.Interrupted {
		if ck == nil {
			return st, fmt.Errorf("%w: %d/%d experiments completed", ErrInterrupted, st.Completed, st.Total)
		}
		return st, fmt.Errorf("%w: %d/%d experiments durable in %s",
			ErrInterrupted, st.Completed, st.Total, c.Config.CheckpointDir)
	}
	return st, nil
}

// run is the shared execution engine: worker w of W handles clients
// w, w+W, w+2W, ... for every step on its own world replica, results
// stream to record in canonical index order as soon as the contiguous
// prefix is complete. Experiments present in prior (keyed by seq) are
// reused instead of re-run; newly completed ones are appended to ck when
// it is non-nil. A panicking experiment is recovered inside
// runExperiment, so a worker can never die and strand its shard. When
// Config.Interrupt closes (or the checkpoint errors), each worker
// finishes its in-flight experiment and stops; record has then seen only
// a canonical prefix, which the caller must discard — the durable state
// lives in the checkpoint, not in whatever record accumulated.
func (c *Campaign) run(prior map[int]*dataset.Experiment, ck *dataset.Checkpoint, record func(*dataset.Experiment)) (RunStatus, error) {
	steps, clients := c.Steps(), c.total
	total := steps * clients
	st := RunStatus{Total: total, Reused: len(prior)}
	shards := append([]*Campaign{c}, c.replicas...)

	var mu sync.Mutex
	var firstErr error
	completed := len(prior)
	stopped := false
	// pending is the out-of-order window: results whose predecessors are
	// still in flight. emit (called with mu held) parks a result and
	// drains the contiguous prefix into record — canonical order, bounded
	// memory, no full-campaign buffer.
	pending := map[int]*dataset.Experiment{}
	next := 0
	emit := func(idx int, e *dataset.Experiment) {
		pending[idx] = e
		for {
			head, ok := pending[next]
			if !ok {
				return
			}
			delete(pending, next)
			next++
			if record != nil {
				record(head)
			}
		}
	}

	interruptRequested := func() bool {
		if c.Config.Interrupt == nil {
			return false
		}
		select {
		case <-c.Config.Interrupt:
			return true
		default:
			return false
		}
	}

	runShard := func(w int, shard *Campaign) {
		for step := 0; step < steps; step++ {
			for i := w; i < clients; i += len(shards) {
				idx := step*clients + i
				if e, ok := prior[idx+1]; ok {
					mu.Lock()
					emit(idx, e)
					mu.Unlock()
					continue
				}
				mu.Lock()
				stop := stopped || firstErr != nil
				mu.Unlock()
				if stop || interruptRequested() {
					mu.Lock()
					stopped = true
					mu.Unlock()
					return
				}
				e := shard.runExperiment(step, i)
				mu.Lock()
				if ck != nil && firstErr == nil {
					if err := ck.Append(e); err != nil {
						firstErr = err
					}
				}
				emit(idx, e)
				completed++
				done := completed
				hook := c.afterExperiment
				mu.Unlock()
				if hook != nil {
					hook(done)
				}
			}
		}
	}

	if len(shards) == 1 {
		runShard(0, c)
	} else {
		var wg sync.WaitGroup
		for w, shard := range shards {
			wg.Add(1)
			go func(w int, shard *Campaign) {
				defer wg.Done()
				runShard(w, shard)
			}(w, shard)
		}
		wg.Wait()
	}

	st.Completed = completed
	st.Interrupted = stopped
	if firstErr != nil {
		return st, firstErr
	}
	if st.Interrupted {
		return st, nil
	}
	// Leave every fabric in a canonical post-campaign state so analyses
	// that probe after Run are also worker-count invariant.
	for _, shard := range shards {
		shard.World.Fabric.BeginExperiment(c.Config.End,
			stats.Stream(c.Config.Seed, postCampaignLabel, uint64(total)))
	}
	return st, nil
}

// runExperiment executes experiment (step, clientIdx). The canonical
// sequence number and the per-experiment random stream depend only on
// the experiment's identity — never on which worker runs it or in what
// order — which is what makes execution worker-count invariant. A panic
// anywhere inside the measurement is recovered and recorded as a
// failed-experiment marker, so one crashing experiment costs one record,
// not the shard.
func (c *Campaign) runExperiment(step, clientIdx int) (exp *dataset.Experiment) {
	ci, j := c.locate(clientIdx)
	cn := c.World.Carriers[ci]
	client := c.leaseClient(ci, j)
	defer cn.Unsubscribe(client)
	base := c.Config.Start.Add(time.Duration(step) * c.Config.Interval)
	// Spread devices inside the round so they do not measure in
	// lock-step (the paper's devices were independent).
	offset := time.Duration(client.Key%uint64(c.Config.Interval/time.Minute)) * time.Minute
	now := base.Add(offset)
	seq := step*c.total + clientIdx + 1
	defer func() {
		if p := recover(); p != nil {
			exp = measure.FailedExperiment(client, cn, now, seq, fmt.Sprint(p))
		}
	}()
	c.prepare(client, ci, now)
	stream := stats.Stream(c.Config.Seed, client.Key, uint64(seq))
	return c.runner.RunAt(client, now, seq, stream)
}

// Total returns the number of experiments in the full campaign.
func (c *Campaign) Total() int {
	return c.Steps() * c.total
}

// RunSeq executes the single experiment with canonical sequence number
// seq (1-based). Like runExperiment, the result depends only on the
// experiment's identity — never on which process runs it or what ran
// before — so a distributed control plane can lease arbitrary seq ranges
// to worker processes and still merge a dataset byte-identical to a
// serial run (DESIGN.md §14).
func (c *Campaign) RunSeq(seq int) (*dataset.Experiment, error) {
	total := c.Total()
	if seq < 1 || seq > total {
		return nil, fmt.Errorf("trace: seq %d outside 1..%d", seq, total)
	}
	return c.runExperiment((seq-1)/c.total, (seq-1)%c.total), nil
}

// Collect runs the campaign into a fresh in-memory dataset — the tests'
// collector, for campaigns configured without a checkpoint or interrupt.
func (c *Campaign) Collect() *dataset.Dataset {
	d := &dataset.Dataset{}
	_, _ = c.Run(d.Add) // no checkpoint, no interrupt: no error source
	return d
}

// ConfigMismatchError reports a checkpoint whose manifest identifies a
// different campaign than the one trying to adopt it. It names both the
// manifest's recorded fingerprint and the freshly computed one, so the
// operator can see which side is misconfigured.
type ConfigMismatchError struct {
	// Dir is the checkpoint directory that was refused.
	Dir string
	// Manifest is the identity recorded when the checkpoint was created.
	Manifest dataset.Manifest
	// Seed, Hash and Total describe the campaign that tried to resume it.
	Seed  uint64
	Hash  string
	Total int
}

func (e *ConfigMismatchError) Error() string {
	return fmt.Sprintf(
		"trace: checkpoint %s belongs to a different campaign: manifest records config hash %s (seed %d, %d experiments) but the current flags compute config hash %s (seed %d, %d experiments) — resume with the original campaign flags, or drop -resume to start fresh",
		e.Dir, e.Manifest.ConfigHash, e.Manifest.Seed, e.Manifest.Total,
		e.Hash, e.Seed, e.Total)
}

// AdoptCheckpoint opens the checkpoint in Config.CheckpointDir for this
// campaign — the one routine behind every durable run, local (Run) or
// distributed (curtain coordinate). Without Config.Resume it creates a
// fresh checkpoint recording the campaign's identity. With it, the
// existing checkpoint is adopted only if its manifest names this campaign
// (same seed, Spec.Hash and experiment count; a *ConfigMismatchError
// naming both identities otherwise) and every durable experiment's seq
// lies inside the campaign: a record outside 1..Total would survive in
// the segment for later analysis to count, so it is refused, not skipped.
// It returns the checkpoint open for append at Config.CheckpointEvery's
// fsync cadence, the durable experiments keyed by seq, and the size of
// the torn segment tail that was dropped (nonzero only after a hard kill
// mid-append). The caller closes the checkpoint.
func (c *Campaign) AdoptCheckpoint() (*dataset.Checkpoint, map[int]*dataset.Experiment, int, error) {
	cfg, hash, total := c.Config, c.Config.Hash(), c.Total()
	if cfg.CheckpointDir == "" {
		return nil, nil, 0, fmt.Errorf("trace: a durable campaign requires Config.CheckpointDir")
	}
	if !cfg.Resume {
		ck, err := dataset.CreateCheckpoint(cfg.CheckpointDir, dataset.Manifest{
			Seed: cfg.Seed, ConfigHash: hash, Total: total,
		}, cfg.CheckpointEvery)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("trace: checkpoint: %w", err)
		}
		return ck, nil, 0, nil
	}
	// Identity before contents: a foreign checkpoint is refused before its
	// segment is scanned (or its torn tail cut).
	m, err := dataset.ReadManifest(cfg.CheckpointDir)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("trace: resume: %w", err)
	}
	if m.Seed != cfg.Seed || m.ConfigHash != hash || m.Total != total {
		return nil, nil, 0, &ConfigMismatchError{
			Dir: cfg.CheckpointDir, Manifest: m,
			Seed: cfg.Seed, Hash: hash, Total: total,
		}
	}
	prior := map[int]*dataset.Experiment{}
	ck, torn, err := dataset.OpenCheckpoint(cfg.CheckpointDir, cfg.CheckpointEvery, func(e *dataset.Experiment) error {
		if e.Seq < 1 || e.Seq > total {
			return fmt.Errorf("experiment seq %d outside 1..%d", e.Seq, total)
		}
		prior[e.Seq] = e
		return nil
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("trace: resume: %w", err)
	}
	return ck, prior, torn, nil
}
