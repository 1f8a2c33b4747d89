package measure

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"cellcurtain/internal/fault"
	"cellcurtain/internal/geo"
	"cellcurtain/internal/radio"
	"cellcurtain/internal/sim"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/vnet"
)

// auditRouter sits between the fabric's route memo and the world's
// router. The fabric only reaches it on a memo miss, so every route it
// hands out is one the memo will keep serving for the rest of the
// experiment; on each call it re-asks the world for all of them and
// fails the test if any answer has changed.
type auditRouter struct {
	t      *testing.T
	w      *sim.World
	served map[[2]netip.Addr]vnet.Route
	calls  int
}

func (a *auditRouter) Route(src, dst netip.Addr) (vnet.Route, error) {
	a.calls++
	a.audit()
	r, err := a.w.Route(src, dst)
	if err == nil {
		a.served[[2]netip.Addr{src, dst}] = r
	}
	return r, err
}

func (a *auditRouter) audit() {
	a.t.Helper()
	for key, memoised := range a.served {
		fresh, err := a.w.Route(key[0], key[1])
		if err != nil {
			a.t.Fatalf("route %v -> %v: memoised, now fails: %v", key[0], key[1], err)
		}
		if !reflect.DeepEqual(fresh, memoised) {
			a.t.Fatalf("route %v -> %v changed inside one experiment:\nmemoised %+v\nfresh    %+v",
				key[0], key[1], memoised, fresh)
		}
	}
}

// TestMemoisedRoutesMatchRouter is the route memo's soundness check on a
// real world: whatever the experiment has done so far — RNG draws, cache
// fills, injected faults — the router still answers every (src, dst) it
// was asked about exactly as it did the first time.
func TestMemoisedRoutesMatchRouter(t *testing.T) {
	for _, faults := range []string{"", "resolver-outage"} {
		w, err := sim.New(sim.Config{Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		now := time.Date(2014, 3, 5, 9, 0, 0, 0, time.UTC)
		if faults != "" {
			book := func(class fault.TargetClass) ([]netip.Addr, bool) { return w.FaultTargets(string(class)) }
			// now sits mid-window, inside the preset's 25 %..75 % outage.
			sched, err := fault.Compile(faults, book, now.Add(-time.Hour), now.Add(time.Hour))
			if err != nil {
				t.Fatal(err)
			}
			w.Fabric.SetInjector(sched)
		}
		for _, name := range []string{"att", "verizon", "sktelecom"} {
			cn, _ := w.Carrier(name)
			c := cn.NewClient("memo-"+name, cn.Egresses[0].City.Loc)
			c.Tech = radio.LTE
			audit := &auditRouter{t: t, w: w, served: map[[2]netip.Addr]vnet.Route{}}
			w.Fabric.SetRouter(audit)
			exp := NewRunner(w).RunAt(c, now, 1, stats.Stream(21, c.Key, 1))
			audit.audit()
			w.Fabric.SetRouter(w)

			if exp.Failed || len(exp.Resolutions) != 27 {
				t.Fatalf("faults=%q %s: incomplete experiment", faults, name)
			}
			// One router call per distinct pair proves the repeats (every
			// domain is resolved twice, every replica pinged and fetched)
			// were served from the memo.
			if audit.calls != len(audit.served) {
				t.Fatalf("faults=%q %s: router asked %d times for %d distinct pairs",
					faults, name, audit.calls, len(audit.served))
			}
			// Every record below cost at least this many fabric operations.
			ops := len(exp.Resolutions) + 2*len(exp.ReplicaProbes) + len(exp.ResolverProbes)
			if audit.calls >= ops {
				t.Fatalf("faults=%q %s: router asked %d times for %d+ fabric operations",
					faults, name, audit.calls, ops)
			}
		}
	}
}

// TestExperimentAllocBudget gates the allocation diet: one experiment of
// the paper's script allocated ~9,350 objects before routes, anycast
// ranking and CDN mapping were memoised per experiment and the DNS path
// stopped churning buffers; 3,194 before dnswire compressed without a
// map, Parse shared pointer names, Reply shared its question and the CDN
// answered from pre-boxed records; 2,268 before every handler on the
// fabric and the device parsed with a dnswire.Decoder and answered with
// its own Encoder; and 1,137 before every message on the fabric was
// parsed into a reused Scratch and every reply built in place, the
// device's client kept its query, Result and messages, routes held their
// segments inline over latency models boxed once, and HTTPGet rebuilt
// its request in one buffer. What is left is mostly Decoder table misses
// (boxed replica addresses above all) and what the record keeps (its
// sections, answer lists and traceroute).
// The budget sits ~10 % above the measured 179; raise it only with a
// ledger entry that says why.
func TestExperimentAllocBudget(t *testing.T) {
	const budget = 197
	r, w, now := setup(t, "att")
	cn, _ := w.Carrier("att")
	city, _ := geo.CityByName("atlanta")
	c := cn.NewClient("alloc-att-0", city.Loc)
	c.Tech = radio.LTE
	seq := 0
	got := testing.AllocsPerRun(20, func() {
		seq++
		r.RunAt(c, now.Add(time.Duration(seq)*time.Hour), seq, stats.Stream(21, c.Key, uint64(seq)))
	})
	t.Logf("%.0f allocs per experiment (budget %d)", got, budget)
	if got > budget {
		t.Fatalf("one experiment allocates %.0f objects, budget %d", got, budget)
	}
}
