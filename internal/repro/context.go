// Package repro regenerates every table and figure in the paper's
// evaluation from a simulated campaign. Each harness prints the same
// rows/series the paper reports and returns key numbers for shape
// assertions: who wins, by roughly what factor, where crossovers fall.
package repro

import (
	"fmt"
	"net/netip"
	"strings"
	"text/tabwriter"
	"time"

	"cellcurtain/internal/analysis"
	"cellcurtain/internal/carrier"
	"cellcurtain/internal/dataset"
	"cellcurtain/internal/sim"
	"cellcurtain/internal/trace"
)

// Context carries one world, its campaign and the metrics reduced from
// it; all harnesses read from it. No experiment record outlives the
// campaign run: memory is the suite's aggregates, not the dataset.
type Context struct {
	World    *sim.World
	Campaign *trace.Campaign

	// M answers every metric query of the harnesses: the streaming
	// analysis.Suite the campaign ran into. The equivalence tests swap in
	// the slice reference implementation to prove the artifacts are
	// byte-identical.
	M analysis.Measures

	// suite is the Suite the campaign streamed into (M, unless a test
	// swapped M); Summary reads its per-carrier counts.
	suite *analysis.Suite
}

// NewContext builds a world and runs the campaign into the analysis suite.
func NewContext(cfg trace.Config) (*Context, error) {
	return NewContextWorld(cfg, sim.Config{Seed: cfg.Seed})
}

// NewContextWorld is NewContext with explicit world configuration (used
// by the ablation experiments to rebuild modified worlds).
func NewContextWorld(cfg trace.Config, simCfg sim.Config) (*Context, error) {
	return newContext(cfg, simCfg, nil)
}

// newContext streams the campaign straight into the suite — the one pass,
// end to end. With cfg.CheckpointDir set the run is durable, and an
// interrupted one surfaces trace.ErrInterrupted instead of a Context.
// tap, when non-nil (tests), sees every experiment before the suite does.
func newContext(cfg trace.Config, simCfg sim.Config, tap func(*dataset.Experiment)) (*Context, error) {
	w, err := sim.New(simCfg)
	if err != nil {
		return nil, err
	}
	if cfg.WorldFactory == nil {
		// Worker shards rebuild identical worlds from the same config;
		// sim.New is deterministic in simCfg.
		cfg.WorldFactory = func() (*sim.World, error) { return sim.New(simCfg) }
	}
	camp, err := trace.NewCampaign(w, cfg)
	if err != nil {
		return nil, err
	}
	suite := analysis.NewSuite(SuiteConfig(w, cfg))
	record := suite.Observe
	if tap != nil {
		record = func(e *dataset.Experiment) {
			tap(e)
			suite.Observe(e)
		}
	}
	if _, err := camp.Run(record); err != nil {
		return nil, err
	}
	return &Context{World: w, Campaign: camp, M: suite, suite: suite}, nil
}

// availabilityBuckets is the timeline resolution of the AVAIL report.
const availabilityBuckets = 12

// SuiteConfig derives the analysis configuration shared by the streaming
// and slice metric paths: carrier address ownership for egress
// extraction, and the campaign window laid out in AVAIL's buckets.
func SuiteConfig(w *sim.World, cfg trace.Config) analysis.SuiteConfig {
	return analysis.SuiteConfig{
		Owns: func(name string) func(netip.Addr) bool {
			cn, ok := w.Carrier(name)
			if !ok {
				return nil
			}
			return cn.OwnsAddr
		},
		TimelineStart:  cfg.Start,
		TimelineEnd:    cfg.End,
		TimelineBucket: cfg.End.Sub(cfg.Start) / availabilityBuckets,
	}
}

// QuickConfig is a reduced campaign for tests and benchmarks: the full
// Table 1 population over a shorter window.
func QuickConfig(seed uint64) trace.Config {
	cfg := trace.DefaultConfig(seed)
	cfg.End = cfg.Start.AddDate(0, 0, 21) // three weeks
	cfg.Interval = 12 * time.Hour
	return cfg
}

// Result is one regenerated artifact.
type Result struct {
	ID    string
	Title string
	// Text is the rendered table/series, matching the paper's rows.
	Text string
	// Metrics carries the key numbers the shape checks assert on.
	Metrics map[string]float64
}

// Carriers returns carrier networks in the paper's presentation order.
func (c *Context) Carriers() []*carrier.Network {
	return c.World.Carriers
}

// Summary returns per-carrier experiment counts.
func (c *Context) Summary() map[string]int { return c.suite.CarrierCounts() }

// table is a small helper for aligned text rendering.
type table struct {
	b  strings.Builder
	tw *tabwriter.Writer
}

func newTable(title string) *table {
	t := &table{}
	fmt.Fprintf(&t.b, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	t.tw = tabwriter.NewWriter(&t.b, 2, 4, 2, ' ', 0)
	return t
}

func (t *table) row(cols ...any) {
	strs := make([]string, len(cols))
	for i, c := range cols {
		strs[i] = fmt.Sprint(c)
	}
	fmt.Fprintln(t.tw, strings.Join(strs, "\t"))
}

func (t *table) String() string {
	t.tw.Flush()
	return t.b.String()
}

// busiest returns the client with the most experiments for a carrier —
// the representative device for longitudinal figures.
func (c *Context) busiest(carrierName string) string {
	return c.M.BusiestClient(carrierName)
}

// RunByID dispatches an experiment harness by its DESIGN.md identifier.
func (c *Context) RunByID(id string) (Result, error) {
	switch strings.ToUpper(id) {
	case "T1":
		return c.Table1(), nil
	case "T2":
		return c.Table2(), nil
	case "T3":
		return c.Table3(), nil
	case "T4":
		return c.Table4(), nil
	case "T5":
		return c.Table5(), nil
	case "F2":
		return c.Fig2(), nil
	case "F3":
		return c.Fig3(), nil
	case "F4":
		return c.Fig4(), nil
	case "F5":
		return c.Fig5(), nil
	case "F6":
		return c.Fig6(), nil
	case "F7":
		return c.Fig7(), nil
	case "F8":
		return c.Fig8(), nil
	case "F9":
		return c.Fig9(), nil
	case "F10":
		return c.Fig10(), nil
	case "F11":
		return c.Fig11(), nil
	case "F12":
		return c.Fig12(), nil
	case "F13":
		return c.Fig13(), nil
	case "F14":
		return c.Fig14(), nil
	case "EGRESS":
		return c.Egress(), nil
	case "ECS":
		return c.ECS(), nil
	case "ABL-TTL":
		return c.ABLTTL(), nil
	case "ABL-CONSISTENCY":
		return c.ABLConsistency(), nil
	case "ABL-GRANULARITY":
		return c.ABLGranularity(), nil
	case "AVAIL":
		return c.Availability(), nil
	default:
		return Result{}, fmt.Errorf("repro: unknown experiment id %q", id)
	}
}

// IDs lists every experiment identifier in paper order.
func IDs() []string {
	return []string{"T1", "T2", "F2", "F3", "T3", "F4", "F5", "F6", "F7",
		"T4", "F8", "F9", "F10", "EGRESS", "T5", "F11", "F12", "F13", "F14"}
}

// All runs every harness.
func (c *Context) All() []Result {
	var out []Result
	for _, id := range IDs() {
		r, err := c.RunByID(id)
		if err != nil {
			panic(err) // IDs() and RunByID are maintained together
		}
		out = append(out, r)
	}
	return out
}
