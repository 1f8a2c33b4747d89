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
// The runner drives a simulated device, but every step is the real
// measurement logic over real DNS bytes.
package measure

import (
	"math"
	"net/netip"
	"time"

	"cellcurtain/internal/carrier"
	"cellcurtain/internal/dataset"
	"cellcurtain/internal/dnsclient"
	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/probe"
	"cellcurtain/internal/sim"
	"cellcurtain/internal/stats"
)

// Runner executes experiments against a world.
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
}

// NewRunner builds a runner measuring the world's Table 2 domains.
func NewRunner(w *sim.World) *Runner {
	return &Runner{World: w, Domains: w.CDN.DomainNames(), TracerouteEvery: 1}
}

// resolverTarget describes one resolver the experiment exercises.
type resolverTarget struct {
	kind dataset.ResolverKind
	addr netip.Addr
	// alt is the device's fallback for this resolver, when one exists:
	// the secondary of the carrier's LDNS pair. The public services
	// expose a single VIP, so they have no alternative.
	alt netip.Addr
}

// servers returns the failover order for the target.
func (t resolverTarget) servers() []netip.Addr {
	if t.alt.IsValid() && t.alt != t.addr {
		return []netip.Addr{t.addr, t.alt}
	}
	return []netip.Addr{t.addr}
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
	f := w.Fabric
	f.BeginExperiment(now, stream)

	cn := c.Network()
	exp := &dataset.Experiment{
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

	if r.BeforeExperiment != nil {
		r.BeforeExperiment(seq)
	}

	targets := []resolverTarget{
		{kind: dataset.KindLocal, addr: c.ConfiguredResolver(), alt: c.SecondaryResolver()},
		{kind: dataset.KindGoogle, addr: w.Google.VIP},
		{kind: dataset.KindOpenDNS, addr: w.OpenDNS.VIP},
	}

	// 1. Bootstrap ping: wake the radio, absorb state-promotion delay.
	probe.Ping(f, c.Addr, exp.Configured)

	dc := probe.NewResolverClient(f, c.Addr)

	// 2. Domain resolutions, two back-to-back lookups each.
	for _, domain := range r.Domains {
		for _, tgt := range targets {
			res := dataset.Resolution{
				Domain: string(domain), Kind: tgt.kind, Server: tgt.addr,
				Radio: string(c.Tech),
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
				if ch := first.Msg.CNAMEChain(); len(ch) > 0 {
					res.CNAME = string(ch[0])
				}
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
			ping := probe.Ping(f, c.Addr, ip)
			rp.PingRTT, rp.PingOK = ping.RTT, ping.OK
			get := probe.HTTPGet(f, c.Addr, ip, res.Domain)
			rp.TTFB, rp.HTTPOK = get.TTFB, get.OK
			exp.ReplicaProbes = append(exp.ReplicaProbes, rp)

			if exp.EgressTrace == nil && !seen[ip] && r.TracerouteEvery > 0 && seq%r.TracerouteEvery == 0 {
				hops, terr := probe.Traceroute(f, c.Addr, ip)
				if terr != nil {
					exp.TraceFailed = true
				} else {
					exp.EgressTrace = probe.RespondingHops(hops)
				}
			}
			seen[ip] = true
		}
	}

	// 4. Resolver discovery via whoami, one fresh nonce per resolver.
	for _, tgt := range targets {
		d := dataset.Discovery{Kind: tgt.kind, Queried: tgt.addr}
		// Discovery stays single-server on purpose: a failover answer
		// would report the secondary's external identity under the
		// primary's name and corrupt the pairing analysis.
		res, err := dc.QueryA(tgt.addr, w.NextWhoamiName())
		d.Outcome = string(dnsclient.Classify(res, err))
		if err == nil {
			if ips := res.IPs(); len(ips) == 1 {
				d.External, d.OK = ips[0], true
			}
		}
		exp.Discoveries = append(exp.Discoveries, d)
	}

	// 5. Resolver probes: configured address, discovered externals, VIPs.
	addProbe := func(kind dataset.ResolverKind, which string, target netip.Addr) {
		p := probe.Ping(f, c.Addr, target)
		exp.ResolverProbes = append(exp.ResolverProbes, dataset.ResolverProbe{
			Kind: kind, Which: which, Target: target, RTT: p.RTT, OK: p.OK,
		})
	}
	addProbe(dataset.KindLocal, "configured", exp.Configured)
	addProbe(dataset.KindGoogle, "vip", w.Google.VIP)
	addProbe(dataset.KindOpenDNS, "vip", w.OpenDNS.VIP)
	for _, d := range exp.Discoveries {
		if d.OK {
			addProbe(d.Kind, "external", d.External)
		}
	}
	return exp
}

// FailedExperiment builds the marker record of an experiment that
// panicked mid-measurement: the identity fields survive so the dataset
// keeps its canonical shape, the measurement sections stay empty, and
// Failed/FailReason record what happened.
func FailedExperiment(c *carrier.Client, cn *carrier.Network, now time.Time, seq int, reason string) *dataset.Experiment {
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
		Failed:     true,
		FailReason: reason,
	}
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
