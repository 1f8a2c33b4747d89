// Package repro regenerates every table and figure in the paper's
// evaluation from a simulated campaign. Each harness prints the same
// rows/series the paper reports and returns key numbers for shape
// assertions: who wins, by roughly what factor, where crossovers fall.
// The artifacts the dataset determines are functions of the metrics
// alone, so FromMeasures renders them from a dataset read back from disk
// exactly as a Context renders them from its campaign.
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
// it. No experiment record outlives the campaign run: memory is the
// suite's aggregates, not the dataset.
type Context struct {
	World    *sim.World
	Campaign *trace.Campaign

	// M is the streaming suite the campaign ran into; it answers every
	// metric query of the artifacts.
	M *analysis.Suite
}

// NewContext builds the world cfg's Spec derives — the paper's, or an
// ablation's counterfactual substrate — and runs the campaign into the
// analysis suite.
func NewContext(cfg trace.Config) (*Context, error) {
	return newContext(cfg, nil)
}

// newContext streams the campaign straight into the suite — the one pass,
// end to end. With cfg.CheckpointDir set the run is durable, and an
// interrupted one surfaces trace.ErrInterrupted instead of a Context.
// tap, when non-nil (tests), sees every experiment before the suite does.
func newContext(cfg trace.Config, tap func(*dataset.Experiment)) (*Context, error) {
	camp, err := trace.New(cfg)
	if err != nil {
		return nil, err
	}
	w := camp.World
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
	return &Context{World: w, Campaign: camp, M: suite}, nil
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
func (c *Context) Summary() map[string]int { return c.M.CarrierCounts() }

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

// artifact is one entry of the catalog. Exactly one of data and world is
// set: data renders from the metrics alone, over the named carriers —
// what `curtain analyze` prints from a dataset file — while world needs
// the simulated world the campaign ran in (its campaign population, its
// CDN, live probes from the university, its carriers' address space, or
// re-built worlds).
type artifact struct {
	id        string
	extension bool // beyond the paper: §7's what-if, the ablations, AVAIL
	data      func(m analysis.Measures, carriers []string) Result
	world     func(c *Context) Result
}

// catalog lists every artifact: the paper's in paper order, then the
// extensions.
var catalog = []artifact{
	{id: "T1", world: (*Context).Table1},
	{id: "T2", world: (*Context).Table2},
	{id: "F2", data: fig2},
	{id: "F3", data: fig3},
	{id: "T3", data: table3},
	{id: "F4", data: fig4},
	{id: "F5", data: fig5},
	{id: "F6", data: fig6},
	{id: "F7", data: fig7},
	{id: "T4", world: (*Context).Table4},
	{id: "F8", data: fig8},
	{id: "F9", data: fig9},
	{id: "F10", data: fig10},
	{id: "EGRESS", world: (*Context).Egress},
	{id: "T5", data: table5},
	{id: "F11", data: fig11},
	{id: "F12", data: fig12},
	{id: "F13", data: fig13},
	{id: "F14", data: fig14},
	{id: "ECS", extension: true, world: (*Context).ECS},
	{id: "ABL-TTL", extension: true, world: (*Context).ABLTTL},
	{id: "ABL-CONSISTENCY", extension: true, world: (*Context).ABLConsistency},
	{id: "ABL-GRANULARITY", extension: true, world: (*Context).ABLGranularity},
	{id: "AVAIL", extension: true, data: availability},
}

// IDs lists every paper artifact identifier in paper order.
func IDs() []string { return catalogIDs(false) }

// ExtensionIDs lists the beyond-the-paper experiments: the §7 what-if
// (EDNS client-subnet localization), the ablations of the design choices
// DESIGN.md calls out, and the fault-campaign availability report.
func ExtensionIDs() []string { return catalogIDs(true) }

func catalogIDs(extension bool) []string {
	var out []string
	for _, a := range catalog {
		if a.extension == extension {
			out = append(out, a.id)
		}
	}
	return out
}

// RunByID renders one artifact by its DESIGN.md identifier (any case).
func (c *Context) RunByID(id string) (Result, error) {
	for _, a := range catalog {
		if strings.EqualFold(a.id, id) {
			return c.run(a), nil
		}
	}
	return Result{}, fmt.Errorf("repro: unknown experiment id %q", id)
}

// All renders every paper artifact in paper order.
func (c *Context) All() []Result {
	var out []Result
	for _, a := range catalog {
		if !a.extension {
			out = append(out, c.run(a))
		}
	}
	return out
}

func (c *Context) run(a artifact) Result {
	if a.data != nil {
		return a.data(c.M, tableOrder(c.M))
	}
	return a.world(c)
}

// FromMeasures renders every artifact that is a function of the metrics
// alone — paper and extension, in catalog order — over the carriers
// present in m. It is how a dataset read back from disk becomes the
// paper's tables and figures: `curtain analyze` prints exactly these,
// byte for byte what RunByID prints for the same campaign (AVAIL aside,
// whose timeline needs the campaign window).
func FromMeasures(m analysis.Measures) []Result {
	carriers := tableOrder(m)
	var out []Result
	for _, a := range catalog {
		if a.data != nil {
			out = append(out, a.data(m, carriers))
		}
	}
	return out
}

// tableOrder lists the carriers present in m in the paper's Table 1
// order, followed by any carrier no profile describes (a socket-vantage
// dataset's "dnsprobe") in name order.
func tableOrder(m analysis.Measures) []string {
	present := map[string]bool{}
	for _, name := range m.Carriers() {
		present[name] = true
	}
	var out []string
	for _, p := range carrier.Profiles() {
		if present[p.Name] {
			out = append(out, p.Name)
			delete(present, p.Name)
		}
	}
	for _, name := range m.Carriers() { // sorted
		if present[name] {
			out = append(out, name)
		}
	}
	return out
}

// displayName is a carrier's Table 1 name, or its raw name when no
// profile describes it.
func displayName(name string) string {
	if p, ok := carrier.ProfileByName(name); ok {
		return p.DisplayName
	}
	return name
}
