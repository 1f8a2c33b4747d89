// Package measure implements the paper's per-device experiment (§3.2):
//
//  1. a bootstrap ping to promote the radio out of idle state,
//  2. two back-to-back DNS resolutions of nine popular mobile domains
//     against the locally configured resolver, Google DNS and OpenDNS,
//  3. ping and HTTP GET probes to every replica address returned, plus
//     one traceroute for egress extraction,
//  4. whoami resolutions against all three resolvers to discover the
//     external-facing resolver identities,
//  5. ping probes to the configured resolver address, the discovered
//     external addresses and the public VIPs.
//
// Script is that experiment, once: a function of a Vantage — what a
// measuring device can resolve against and which probes it can send —
// that fills a dataset record. Runner is the simulated device (a carrier
// client on a sim.World's fabric, probing through probe.Host);
// cmd/dnsprobe is the real-socket one. A probe a vantage cannot send
// (ICMP from an unprivileged process) comes back not-OK and is recorded
// that way; the script has no mode for it.
package measure

import (
	"math"
	"net/netip"
	"time"

	"cellcurtain/internal/carrier"
	"cellcurtain/internal/cdn"
	"cellcurtain/internal/dataset"
	"cellcurtain/internal/dnsclient"
	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/probe"
	"cellcurtain/internal/sim"
	"cellcurtain/internal/stats"
)

// Target is one resolver a vantage exercises.
type Target struct {
	Kind dataset.ResolverKind
	Addr netip.Addr
	// Alt is the device's fallback for this resolver, when one exists:
	// the secondary of the carrier's LDNS pair. The public services
	// expose a single VIP, so they have no alternative.
	Alt netip.Addr
}

// servers returns the failover order for the target.
func (t Target) servers() []netip.Addr {
	if t.Alt.IsValid() && t.Alt != t.Addr {
		return []netip.Addr{t.Addr, t.Alt}
	}
	return []netip.Addr{t.Addr}
}

// Vantage is what a measuring device can do. The zero PingResult and
// HTTPResult, and a nil trace with a nil error, are how a vantage reports
// a probe it cannot send.
type Vantage interface {
	// Targets lists the resolvers to exercise, in record order.
	Targets() []Target
	// Resolver returns the stub-resolver client for one experiment. The
	// script asks for it once, after the bootstrap ping.
	Resolver() *dnsclient.Client
	Ping(dst netip.Addr) probe.PingResult
	HTTPGet(dst netip.Addr, host string) probe.HTTPResult
	// Traceroute returns the responding hops toward dst; an error means
	// the traceroute itself failed (no route).
	Traceroute(dst netip.Addr) ([]netip.Addr, error)
	// WhoamiName returns the next cache-busting whoami query name, or
	// false when the vantage has no whoami zone and discovery is skipped.
	WhoamiName() (dnswire.Name, bool)
}

// Script runs steps 1–5 from v and fills exp's measurement sections; the
// caller has set exp's identity fields (Seq, Radio and Configured are
// read here). The egress traceroute is taken when exp.Seq is a multiple
// of tracerouteEvery (0 = never).
func Script(v Vantage, domains []dnswire.Name, tracerouteEvery int, exp *dataset.Experiment) {
	targets := v.Targets()

	// 1. Bootstrap ping: wake the radio, absorb state-promotion delay.
	v.Ping(exp.Configured)

	dc := v.Resolver()

	// 2. Domain resolutions, two back-to-back lookups each.
	for _, domain := range domains {
		for _, tgt := range targets {
			res := dataset.Resolution{
				Domain: string(domain), Kind: tgt.Kind, Server: tgt.Addr,
				Radio: exp.Radio,
			}
			first, err1 := dc.QueryFailover(domain, dnswire.TypeA, tgt.servers()...)
			res.Outcome = string(dnsclient.Classify(first, err1))
			if first != nil {
				res.Attempts = first.Attempts
				res.FailedOver = first.FailedOver
				res.Cost = first.Total
			}
			if err1 == nil && first.Msg.Header.RCode == dnswire.RCodeSuccess {
				res.OK = true
				res.RTT1 = first.RTT
				res.Answers = first.IPs()
				res.TTL = first.Msg.MinAnswerTTL()
				res.CNAME = firstCNAME(first.Msg)
				// The second lookup only counts when it actually succeeds;
				// otherwise RTT2 stays zero AND OK2 stays false, so a failed
				// repeat is distinguishable from a very fast cached answer.
				// It is sent to the server that answered the first lookup,
				// keeping the cache-hit pairing honest across failover.
				second, err2 := dc.QueryA(first.Server, domain)
				res.Outcome2 = string(dnsclient.Classify(second, err2))
				if err2 == nil && second.Msg.Header.RCode == dnswire.RCodeSuccess {
					res.OK2 = true
					res.RTT2 = second.RTT
				}
			}
			exp.Resolutions = append(exp.Resolutions, res)
		}
	}

	// 3. Replica probes: ping + HTTP GET to every replica returned.
	seen := map[netip.Addr]bool{}
	for _, res := range exp.Resolutions {
		for _, ip := range res.Answers {
			rp := dataset.ReplicaProbe{Domain: res.Domain, Kind: res.Kind, Replica: ip}
			ping := v.Ping(ip)
			rp.PingRTT, rp.PingOK = ping.RTT, ping.OK
			get := v.HTTPGet(ip, res.Domain)
			rp.TTFB, rp.HTTPOK = get.TTFB, get.OK
			exp.ReplicaProbes = append(exp.ReplicaProbes, rp)

			if exp.EgressTrace == nil && !seen[ip] && tracerouteEvery > 0 && exp.Seq%tracerouteEvery == 0 {
				hops, terr := v.Traceroute(ip)
				if terr != nil {
					exp.TraceFailed = true
				} else {
					exp.EgressTrace = hops
				}
			}
			seen[ip] = true
		}
	}

	// 4. Resolver discovery via whoami, one fresh nonce per resolver.
	for _, tgt := range targets {
		name, ok := v.WhoamiName()
		if !ok {
			break
		}
		d := dataset.Discovery{Kind: tgt.Kind, Queried: tgt.Addr}
		// Discovery stays single-server on purpose: a failover answer
		// would report the secondary's external identity under the
		// primary's name and corrupt the pairing analysis.
		res, err := dc.QueryA(tgt.Addr, name)
		d.Outcome = string(dnsclient.Classify(res, err))
		if err == nil {
			d.External, d.OK = soleAddress(res.Msg)
		}
		exp.Discoveries = append(exp.Discoveries, d)
	}

	// 5. Resolver probes: every target's own address (the configured
	// resolver, the public VIPs), then the discovered externals.
	addProbe := func(kind dataset.ResolverKind, which string, target netip.Addr) {
		p := v.Ping(target)
		exp.ResolverProbes = append(exp.ResolverProbes, dataset.ResolverProbe{
			Kind: kind, Which: which, Target: target, RTT: p.RTT, OK: p.OK,
		})
	}
	for _, tgt := range targets {
		which := "vip"
		if tgt.Kind == dataset.KindLocal {
			which = "configured"
		}
		addProbe(tgt.Kind, which, tgt.Addr)
	}
	for _, d := range exp.Discoveries {
		if d.OK {
			addProbe(d.Kind, "external", d.External)
		}
	}
}

// firstCNAME returns the target of the answer section's first CNAME, or
// "" when it has none.
func firstCNAME(m *dnswire.Message) string {
	for _, rr := range m.Answers {
		if c, ok := rr.Data.(dnswire.CNAME); ok {
			return string(c.Target)
		}
	}
	return ""
}

// soleAddress returns the address of the answer section's one A or AAAA
// record, or false when it has none or several.
func soleAddress(m *dnswire.Message) (netip.Addr, bool) {
	var addr netip.Addr
	n := 0
	for _, rr := range m.Answers {
		switch d := rr.Data.(type) {
		case dnswire.A:
			addr, n = d.Addr, n+1
		case dnswire.AAAA:
			addr, n = d.Addr, n+1
		}
	}
	if n != 1 {
		return netip.Addr{}, false
	}
	return addr, true
}

// Runner executes experiments against a world: the simulated vantage.
type Runner struct {
	World   *sim.World
	Domains []dnswire.Name
	// TracerouteEvery controls how often the replica traceroute is taken
	// (1 = every experiment). Traceroutes are the most expensive probe.
	TracerouteEvery int
	// BeforeExperiment, when set, is invoked at the start of every
	// experiment once the record's metadata is prepared. A panic raised
	// here — or anywhere else inside the experiment — is contained by the
	// campaign layer (internal/trace), which records a failed-experiment
	// marker instead of losing the worker. Intended for instrumentation
	// and crash-injection tests.
	BeforeExperiment func(seq int)

	seq int
	// dev is re-pointed at each experiment's client rather than built
	// anew, so handing it to Script as a Vantage allocates nothing, and
	// its HTTP request buffer and DNS client storage (the Decoder's
	// tables above all) stay warm from one experiment to the next.
	dev device
}

// device is a carrier client on the world's fabric: probe.Host supplies
// the probes, the client and the world the resolvers and the whoami zone.
type device struct {
	probe.Host
	world   *sim.World
	dns     dnsclient.Scratch
	targets [3]Target
}

// Resolver is the host's stub resolver, reusing the device's client
// storage.
func (d *device) Resolver() *dnsclient.Client {
	c := d.Host.Resolver()
	c.Scratch = &d.dns
	return c
}

func (d *device) Targets() []Target { return d.targets[:] }

func (d *device) WhoamiName() (dnswire.Name, bool) { return d.world.NextWhoamiName(), true }

// NewRunner builds a runner measuring the Table 2 domains.
func NewRunner(w *sim.World) *Runner {
	return &Runner{World: w, Domains: cdn.DomainNames(), TracerouteEvery: 1}
}

// Run executes one experiment for client c at virtual time now and
// returns the record, numbering experiments with the runner's own
// counter. The client's Loc and Tech fields must already be set for this
// experiment.
func (r *Runner) Run(c *carrier.Client, now time.Time) *dataset.Experiment {
	r.seq++
	return r.RunAt(c, now, r.seq, nil)
}

// RunAt executes one experiment with an explicit sequence number and an
// optional dedicated random stream. When stream is non-nil the fabric's
// generator is replaced for the duration of the experiment and all
// attached per-experiment service state is reset, making the record a
// pure function of (world structure, client, now, seq, stream) — the
// property sharded campaign execution relies on for worker-count
// invariance.
func (r *Runner) RunAt(c *carrier.Client, now time.Time, seq int, stream *stats.RNG) *dataset.Experiment {
	w := r.World
	w.Fabric.BeginExperiment(now, stream)
	exp := identity(c, c.Network(), now, seq)
	if r.BeforeExperiment != nil {
		r.BeforeExperiment(seq)
	}
	r.dev.Host.Fabric, r.dev.Host.Addr = w.Fabric, c.Addr
	r.dev.world = w
	r.dev.targets = [3]Target{
		{Kind: dataset.KindLocal, Addr: c.ConfiguredResolver(), Alt: c.SecondaryResolver()},
		{Kind: dataset.KindGoogle, Addr: w.Google.VIP},
		{Kind: dataset.KindOpenDNS, Addr: w.OpenDNS.VIP},
	}
	Script(&r.dev, r.Domains, r.TracerouteEvery, exp)
	return exp
}

// identity builds a record carrying only what is known about an
// experiment before it measures anything.
func identity(c *carrier.Client, cn *carrier.Network, now time.Time, seq int) *dataset.Experiment {
	return &dataset.Experiment{
		Seq:        seq,
		ClientID:   c.ID,
		Carrier:    cn.Name,
		Country:    cn.Country,
		Time:       now,
		Lat:        roundCoarse(c.Loc.Lat),
		Lon:        roundCoarse(c.Loc.Lon),
		Radio:      string(c.Tech),
		NATAddr:    c.NATAddrAt(now),
		Configured: c.ConfiguredResolver(),
	}
}

// FailedExperiment builds the marker record of an experiment that
// panicked mid-measurement: the identity fields survive so the dataset
// keeps its canonical shape, the measurement sections stay empty, and
// Failed/FailReason record what happened.
func FailedExperiment(c *carrier.Client, cn *carrier.Network, now time.Time, seq int, reason string) *dataset.Experiment {
	exp := identity(c, cn, now, seq)
	exp.Failed, exp.FailReason = true, reason
	return exp
}

// roundCoarse snaps a coordinate to a ~100 m grid, matching the paper's
// coarse location recording ("rounded up to a 100-meter radius").
// Floor-based snapping keeps the grid uniform across the sign boundary;
// integer truncation would round negative coordinates (all US
// longitudes) toward zero, the opposite direction from positive ones.
func roundCoarse(v float64) float64 {
	const grid = 0.001
	return math.Floor(v/grid) * grid
}
