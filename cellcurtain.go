// Package cellcurtain reproduces "Behind the Curtain: Cellular DNS and
// Content Replica Selection" (Rula & Bustamante, ACM IMC 2014) as a
// runnable system: a from-scratch DNS wire codec and client/server, the
// paper's mobile measurement experiment (resolver discovery via a whoami
// authoritative server, replica probing, back-to-back lookups), a
// simulated substrate of six cellular carriers, three CDNs and two public
// DNS services, and the analysis pipeline that regenerates every table
// and figure in the paper's evaluation.
//
// # Quick start
//
//	study, err := cellcurtain.NewStudy(cellcurtain.Options{Seed: 1, Days: 14})
//	if err != nil { ... }
//	artifact, err := study.Reproduce("F14")
//	fmt.Print(artifact.Text)
//
// Experiment identifiers follow DESIGN.md: T1-T5 for tables, F2-F14 for
// figures, EGRESS for the §5.2 egress-point analysis. Campaigns are fully
// deterministic in Options.Seed.
package cellcurtain

import (
	"fmt"
	"io"
	"sort"
	"time"

	"cellcurtain/internal/dataset"
	"cellcurtain/internal/repro"
	"cellcurtain/internal/trace"
)

// Options configures a measurement study.
type Options struct {
	// Seed drives all randomness; identical seeds reproduce identical
	// datasets. The zero value means seed 2014.
	Seed uint64
	// Days is the campaign length; 0 means the paper's full five-month
	// window (2014-03-01 to 2014-08-01).
	Days int
	// IntervalHours is the per-device experiment period; 0 means 12.
	// (The paper's devices measured hourly; the longitudinal shapes are
	// interval-invariant, and 12h keeps full campaigns fast.)
	IntervalHours int
	// ClientScale scales the paper's 158-device population (Table 1);
	// 0 means 1.0. Each carrier keeps at least one device.
	ClientScale float64
	// LTEShare is the fraction of experiments on LTE; 0 means 0.72.
	LTEShare float64
	// TravelProb is the chance an experiment runs away from home;
	// negative disables mobility. 0 means 0.06.
	TravelProb float64
	// Workers shards campaign execution across parallel workers, each
	// driving its own world replica; 0 means 1 (serial). The dataset is
	// byte-identical for any worker count at a fixed seed.
	Workers int
	// Faults, when non-empty, runs the campaign under an injected fault
	// scenario: a preset name (fault.PresetNames) or internal/fault DSL
	// text. Injections are deterministic in Seed, so fault campaigns are
	// reproducible and worker-count invariant like fault-free ones.
	Faults string
	// CheckpointDir, when non-empty, makes the campaign durable: every
	// completed experiment is appended to a fsync'd checkpoint under this
	// directory, so a killed run can be resumed without losing work.
	CheckpointDir string
	// CheckpointEvery is the checkpoint fsync cadence in experiments
	// (0 = the default, 64).
	CheckpointEvery int
	// Resume continues a checkpointed campaign from CheckpointDir after
	// verifying its seed and config hash. The resumed dataset is
	// byte-identical to an uninterrupted run.
	Resume bool
	// Interrupt, when non-nil, gracefully stops the campaign once closed:
	// in-flight experiments drain, the checkpoint is flushed, and
	// NewStudy returns an error wrapping trace.ErrInterrupted.
	Interrupt <-chan struct{}
}

// CampaignConfig resolves the options into the trace configuration they
// denote — the same mapping NewStudy applies. The distributed
// coordinator/worker subcommands use it to compute the campaign
// fingerprint (trace.Spec.Hash) and the spec pushed to workers.
func (o Options) CampaignConfig() trace.Config {
	seed := o.Seed
	if seed == 0 {
		seed = 2014
	}
	cfg := trace.DefaultConfig(seed)
	if o.Days > 0 {
		cfg.End = cfg.Start.AddDate(0, 0, o.Days)
	}
	if o.IntervalHours > 0 {
		cfg.Interval = time.Duration(o.IntervalHours) * time.Hour
	}
	if o.ClientScale > 0 {
		cfg.ClientScale = o.ClientScale
	}
	if o.LTEShare > 0 {
		cfg.LTEShare = o.LTEShare
	}
	if o.TravelProb > 0 {
		cfg.TravelProb = o.TravelProb
	} else if o.TravelProb < 0 {
		cfg.TravelProb = 0
	}
	if o.Workers > 0 {
		cfg.Workers = o.Workers
	}
	cfg.Faults = o.Faults
	cfg.CheckpointDir = o.CheckpointDir
	cfg.CheckpointEvery = o.CheckpointEvery
	cfg.Resume = o.Resume
	cfg.Interrupt = o.Interrupt
	return cfg
}

// Artifact is one regenerated table or figure.
type Artifact struct {
	// ID is the DESIGN.md experiment identifier (e.g. "T3", "F14").
	ID string
	// Title is a short human-readable name.
	Title string
	// Text is the rendered table, matching the rows the paper reports.
	Text string
	// Metrics carries the artifact's key numbers (medians, fractions,
	// counts) keyed by "<quantity>_<carrier>"-style names.
	Metrics map[string]float64
}

// Study is a completed measurement campaign over the simulated world,
// reduced to the metrics that regenerate the paper's artifacts. It holds
// no experiment records; curtain simulate is the dataset writer.
type Study struct {
	ctx *repro.Context
}

// NewStudy builds the world and streams the campaign into the analysis
// suite. A full-scale five-month study takes a couple of minutes; use
// Days to shorten it.
func NewStudy(opts Options) (*Study, error) {
	ctx, err := repro.NewContext(opts.CampaignConfig())
	if err != nil {
		return nil, fmt.Errorf("cellcurtain: %w", err)
	}
	return &Study{ctx: ctx}, nil
}

// ExperimentIDs lists every reproducible artifact in paper order.
func ExperimentIDs() []string { return repro.IDs() }

// ExtensionIDs lists the beyond-the-paper experiments: the §7 EDNS
// client-subnet what-if ("ECS"), the ablations of cache TTLs ("ABL-TTL"),
// resolver-pairing churn ("ABL-CONSISTENCY") and CDN mapping granularity
// ("ABL-GRANULARITY"), and the fault-campaign
// availability report ("AVAIL", most useful with Options.Faults set). All
// are accepted by Study.Reproduce.
func ExtensionIDs() []string { return repro.ExtensionIDs() }

// Reproduce regenerates one artifact by ID.
func (s *Study) Reproduce(id string) (Artifact, error) {
	r, err := s.ctx.RunByID(id)
	if err != nil {
		return Artifact{}, err
	}
	return Artifact(r), nil
}

// ReproduceAll regenerates every artifact in paper order.
func (s *Study) ReproduceAll() []Artifact {
	rs := s.ctx.All()
	out := make([]Artifact, len(rs))
	for i, r := range rs {
		out[i] = Artifact(r)
	}
	return out
}

// ExperimentCount returns the number of experiments the campaign ran.
func (s *Study) ExperimentCount() int { return s.ctx.M.ExperimentCount() }

// ClientCount returns the measurement population size.
func (s *Study) ClientCount() int { return s.ctx.Campaign.ClientCount() }

// Carriers lists the profiled carrier names in Table 1 order.
func (s *Study) Carriers() []string {
	var out []string
	for _, cn := range s.ctx.Carriers() {
		out = append(out, cn.Name)
	}
	return out
}

// Domains lists the measured hostnames (Table 2).
func (s *Study) Domains() []string {
	var out []string
	for _, d := range s.ctx.World.CDN.Domains {
		out = append(out, string(d.Name))
	}
	return out
}

// Summary returns per-carrier experiment counts.
func (s *Study) Summary() map[string]int { return s.ctx.Summary() }

// ReadDataset counts the experiments in a dataset written by curtain
// simulate (or convert); the codec, JSONL or curtainbin, is auto-detected
// from the stream's leading bytes.
func ReadDataset(r io.Reader) (int, error) {
	n := 0
	if err := dataset.Scan(r, func(e *dataset.Experiment) error {
		n++
		return nil
	}); err != nil {
		return 0, err
	}
	return n, nil
}

// Report renders all artifacts as one text document.
func (s *Study) Report() string {
	var out string
	for _, a := range s.ReproduceAll() {
		out += a.Text + "\n"
	}
	return out
}

// MetricNames returns the sorted metric keys of an artifact, a
// convenience for tooling.
func (a Artifact) MetricNames() []string {
	out := make([]string, 0, len(a.Metrics))
	for k := range a.Metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
