package upstream

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// referenceP95 is the tracked p95 computed the plain way: every stored
// sample, sorted, nearest-rank 95th percentile.
func referenceP95(m *member) time.Duration {
	if m.ringN == 0 {
		return 0
	}
	buf := append([]time.Duration(nil), m.ring[:m.ringN]...)
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	idx := (m.ringN*95 + 99) / 100
	if idx > 0 {
		idx--
	}
	return buf[idx]
}

// TestMemberP95 holds p95 to the reference for every ring fill from empty
// to full and for rings that have wrapped, over latencies with ties.
func TestMemberP95(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	for _, n := range []int{0, 1, 2, 3, 19, 20, 21, 63, 64, 65, 100, 64*3 + 7} {
		for trial := 0; trial < 20; trial++ {
			m := &member{}
			for i := 0; i < n; i++ {
				m.observe(time.Duration(rng.Intn(50))*time.Millisecond, 0.2)
			}
			if got, want := m.p95(), referenceP95(m); got != want {
				t.Fatalf("%d samples: p95 = %v, reference %v", n, got, want)
			}
		}
	}
	for n := 1; n <= latWindow; n++ { // every fill, ascending and descending
		up, down := &member{}, &member{}
		for i := 0; i < n; i++ {
			up.observe(time.Duration(i), 0.2)
			down.observe(time.Duration(n-i), 0.2)
		}
		if up.p95() != referenceP95(up) || down.p95() != referenceP95(down) {
			t.Fatalf("%d samples: p95 %v/%v, reference %v/%v", n, up.p95(), down.p95(), referenceP95(up), referenceP95(down))
		}
	}
}

// TestMemberP95Allocs: p95 runs under the pool mutex on every
// adaptive-hedge Resolve, so it must not allocate.
func TestMemberP95Allocs(t *testing.T) {
	m := &member{}
	for i := 0; i < latWindow+5; i++ {
		m.observe(time.Duration(i*7919%101)*time.Microsecond, 0.2)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = m.p95() }); allocs != 0 {
		t.Fatalf("p95 allocates %v times per call", allocs)
	}
}
