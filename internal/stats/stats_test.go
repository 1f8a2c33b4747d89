package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: streams diverged: %d != %d", i, av, bv)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical values in 100 draws", same)
	}
}

func TestRNGForkStability(t *testing.T) {
	r := NewRNG(7)
	f1 := r.Fork(11)
	f2 := r.Fork(11)
	for i := 0; i < 100; i++ {
		if f1.Uint64() != f2.Uint64() {
			t.Fatal("forks with identical labels must produce identical streams")
		}
	}
	g1, g2 := r.Fork(11), r.Fork(12)
	if g1.Uint64() == g2.Uint64() {
		t.Fatal("forks with different labels should diverge immediately (w.h.p.)")
	}
}

func TestStreamDeterminism(t *testing.T) {
	a := Stream(2014, 7, 42)
	b := Stream(2014, 7, 42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("identical (seed, labels) must produce identical streams")
		}
	}
}

func TestStreamLabelsSeparate(t *testing.T) {
	// Streams for neighbouring labels must be unrelated — this is what
	// makes per-experiment streams worker-count invariant.
	draws := map[uint64]string{}
	for seed := uint64(1); seed <= 3; seed++ {
		for client := uint64(0); client < 4; client++ {
			for seq := uint64(1); seq <= 8; seq++ {
				v := Stream(seed, client, seq).Uint64()
				if prev, dup := draws[v]; dup {
					t.Fatalf("streams collide: (%d,%d,%d) and %s", seed, client, seq, prev)
				}
				draws[v] = "earlier labels"
			}
		}
	}
}

func TestStreamLabelOrderMatters(t *testing.T) {
	if Stream(1, 2, 3).Uint64() == Stream(1, 3, 2).Uint64() {
		t.Fatal("label order must affect the stream")
	}
}

func TestDeriveStability(t *testing.T) {
	r := NewRNG(7)
	d1 := r.Derive(5, 9)
	d2 := r.Derive(5, 9)
	for i := 0; i < 100; i++ {
		if d1.Uint64() != d2.Uint64() {
			t.Fatal("Derive must not consume parent state")
		}
	}
	if r.Derive(5, 9).Uint64() == r.Derive(9, 5).Uint64() {
		t.Fatal("Derive with different label orders should diverge (w.h.p.)")
	}
}

func TestStreamFloat64Mean(t *testing.T) {
	r := Stream(99, 1, 1)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("stream mean = %.3f, want ~0.5", mean)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	f := func(_ uint8) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(5)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %.4f, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(9)
	for n := 1; n < 50; n++ {
		for i := 0; i < 100; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestPerm(t *testing.T) {
	r := NewRNG(13)
	p := r.Perm(20)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm produced invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(17)
	var sum, sumsq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %.4f, want ~1", variance)
	}
}

func TestChoiceWeighted(t *testing.T) {
	r := NewRNG(19)
	counts := make([]int, 3)
	weights := []float64{1, 2, 7}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Choice(weights)]++
	}
	if got := float64(counts[2]) / n; math.Abs(got-0.7) > 0.02 {
		t.Errorf("weight-7 arm selected %.3f of the time, want ~0.7", got)
	}
	if got := float64(counts[0]) / n; math.Abs(got-0.1) > 0.02 {
		t.Errorf("weight-1 arm selected %.3f of the time, want ~0.1", got)
	}
}

func TestChoiceDegenerate(t *testing.T) {
	r := NewRNG(1)
	if got := r.Choice([]float64{0, 0}); got != 0 {
		t.Errorf("all-zero weights: got %d, want 0", got)
	}
}

func TestConstantDist(t *testing.T) {
	d := Constant{V: 5 * time.Millisecond}
	r := NewRNG(1)
	for i := 0; i < 10; i++ {
		if d.Sample(r) != 5*time.Millisecond {
			t.Fatal("constant dist must always return V")
		}
	}
	if d.Median() != 5*time.Millisecond {
		t.Fatal("constant median mismatch")
	}
}

func TestLogNormalMedian(t *testing.T) {
	d := LogNormal{Med: 40 * time.Millisecond, Sigma: 0.3}
	r := NewRNG(23)
	var s Sample
	for i := 0; i < 50000; i++ {
		s.AddDuration(d.Sample(r))
	}
	med := s.Median()
	if math.Abs(med-40) > 2 {
		t.Fatalf("lognormal empirical median = %.2f ms, want ~40", med)
	}
	if d.Median() != 40*time.Millisecond {
		t.Fatal("analytic median mismatch")
	}
}

func TestLogNormalFloor(t *testing.T) {
	d := LogNormal{Med: 2 * time.Millisecond, Sigma: 2.0, Floor: time.Millisecond}
	r := NewRNG(29)
	for i := 0; i < 10000; i++ {
		if v := d.Sample(r); v < time.Millisecond {
			t.Fatalf("sample %v below floor", v)
		}
	}
}

func TestNormalFloor(t *testing.T) {
	d := Normal{Mean: time.Millisecond, StdDev: 10 * time.Millisecond, Floor: 0}
	r := NewRNG(31)
	for i := 0; i < 10000; i++ {
		if d.Sample(r) < 0 {
			t.Fatal("normal sample below floor")
		}
	}
}

func TestShifted(t *testing.T) {
	d := Shifted{Base: Constant{V: 10 * time.Millisecond}, Off: 5 * time.Millisecond}
	if got := d.Sample(NewRNG(1)); got != 15*time.Millisecond {
		t.Fatalf("shifted sample = %v, want 15ms", got)
	}
	if got := d.Median(); got != 15*time.Millisecond {
		t.Fatalf("shifted median = %v, want 15ms", got)
	}
}

func TestMixtureBimodal(t *testing.T) {
	m := Mixture{
		Components: []Dist{Constant{V: 10 * time.Millisecond}, Constant{V: 100 * time.Millisecond}},
		Weights:    []float64{0.8, 0.2},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	r := NewRNG(37)
	fast := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if m.Sample(r) == 10*time.Millisecond {
			fast++
		}
	}
	if got := float64(fast) / n; math.Abs(got-0.8) > 0.01 {
		t.Fatalf("fast component frequency %.3f, want ~0.8", got)
	}
	if m.Median() != 10*time.Millisecond {
		t.Fatal("mixture median should come from heaviest component")
	}
}

func TestMixtureValidate(t *testing.T) {
	bad := Mixture{Components: []Dist{Constant{}}, Weights: []float64{1, 2}}
	if bad.Validate() == nil {
		t.Fatal("mismatched lengths must fail validation")
	}
	neg := Mixture{Components: []Dist{Constant{}}, Weights: []float64{-1}}
	if neg.Validate() == nil {
		t.Fatal("negative weight must fail validation")
	}
}

func TestMixtureEmpty(t *testing.T) {
	var m Mixture
	if m.Sample(NewRNG(1)) != 0 || m.Median() != 0 {
		t.Fatal("empty mixture should degrade to zero")
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct {
		p    float64
		want float64
	}{{0, 1}, {100, 100}, {50, 50.5}, {25, 25.75}, {90, 90.1}}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 0.001 {
			t.Errorf("P%.0f = %.3f, want %.3f", c.p, got, c.want)
		}
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.Percentile(50)) || !math.IsNaN(s.Mean()) || !math.IsNaN(s.FracBelow(1)) {
		t.Fatal("empty sample statistics must be NaN")
	}
}

func TestFracBelow(t *testing.T) {
	var s Sample
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	if got := s.FracBelow(2); got != 0.5 {
		t.Errorf("FracBelow(2) = %v, want 0.5 (inclusive)", got)
	}
	if got := s.FracBelow(0); got != 0 {
		t.Errorf("FracBelow(0) = %v, want 0", got)
	}
	if got := s.FracBelow(10); got != 1 {
		t.Errorf("FracBelow(10) = %v, want 1", got)
	}
}

// Property: percentile is monotonic in p for arbitrary data.
func TestPercentileMonotonicProperty(t *testing.T) {
	f := func(data []float64, a, b float64) bool {
		if len(data) == 0 {
			return true
		}
		var s Sample
		for _, v := range data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		pa, pb := math.Abs(math.Mod(a, 100)), math.Abs(math.Mod(b, 100))
		if pa > pb {
			pa, pb = pb, pa
		}
		return s.Percentile(pa) <= s.Percentile(pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSummaryString(t *testing.T) {
	var s Sample
	s.Add(1)
	got := s.Summarize()
	if got.N != 1 || got.Mean != 1 {
		t.Fatalf("summary of singleton wrong: %+v", got)
	}
	if got.String() == "" {
		t.Fatal("summary string empty")
	}
}

func TestASCIICDF(t *testing.T) {
	var s Sample
	for i := 0; i < 100; i++ {
		s.Add(float64(i))
	}
	out := s.ASCIICDF(20)
	if out == "" || out == "(empty)\n" {
		t.Fatal("ASCII CDF should render for non-empty sample")
	}
	var empty Sample
	if empty.ASCIICDF(20) != "(empty)\n" {
		t.Fatal("empty CDF sketch mismatch")
	}
}

func TestKSIdentical(t *testing.T) {
	var a, b Sample
	for i := 0; i < 100; i++ {
		a.Add(float64(i))
		b.Add(float64(i))
	}
	if ks := KS(&a, &b); ks > 1e-9 {
		t.Fatalf("KS of identical samples = %v", ks)
	}
}

func TestKSDisjoint(t *testing.T) {
	var a, b Sample
	for i := 0; i < 50; i++ {
		a.Add(float64(i))
		b.Add(float64(i + 1000))
	}
	if ks := KS(&a, &b); math.Abs(ks-1) > 1e-9 {
		t.Fatalf("KS of disjoint samples = %v, want 1", ks)
	}
}

func TestKSShift(t *testing.T) {
	r := NewRNG(55)
	var a, b Sample
	for i := 0; i < 5000; i++ {
		v := r.NormFloat64()
		a.Add(v)
		b.Add(v + 0.5) // half-sigma shift: KS ~= 0.197 analytically
	}
	ks := KS(&a, &b)
	if ks < 0.12 || ks > 0.28 {
		t.Fatalf("KS of half-sigma shift = %v, want ~0.2", ks)
	}
}

func TestKSEmpty(t *testing.T) {
	var a, b Sample
	a.Add(1)
	if !math.IsNaN(KS(&a, &b)) || !math.IsNaN(KS(&b, &a)) {
		t.Fatal("KS with empty sample must be NaN")
	}
}

// Property: KS is symmetric and bounded in [0, 1].
func TestKSProperty(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		if len(xs) == 0 || len(ys) == 0 {
			return true
		}
		var a, b Sample
		for _, v := range xs {
			a.Add(float64(v))
		}
		for _, v := range ys {
			b.Add(float64(v))
		}
		ab, ba := KS(&a, &b), KS(&b, &a)
		return ab >= 0 && ab <= 1 && math.Abs(ab-ba) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSampleAddAfterQuery(t *testing.T) {
	var s Sample
	s.Add(30)
	s.Add(10)
	if got := s.Median(); got != 20 {
		t.Fatalf("median of {10,30} = %v, want 20", got)
	}
	// The query above sorted the sample; further Adds must invalidate
	// that sort even though the values arrive out of order.
	s.Add(5)
	if got := s.Percentile(0); got != 5 {
		t.Fatalf("min after add-after-query = %v, want 5", got)
	}
	if got := s.Median(); got != 10 {
		t.Fatalf("median of {5,10,30} = %v, want 10", got)
	}
	vs := s.Values()
	for i := 1; i < len(vs); i++ {
		if vs[i-1] > vs[i] {
			t.Fatalf("Values not sorted after add-after-query: %v", vs)
		}
	}
}

func TestSampleMerge(t *testing.T) {
	var a, b Sample
	for _, v := range []float64{3, 1, 2} {
		a.Add(v)
	}
	for _, v := range []float64{6, 4, 5} {
		b.Add(v)
	}
	// Query b first so its internal sort state is exercised by the merge.
	if got := b.Median(); got != 5 {
		t.Fatalf("b median = %v, want 5", got)
	}
	a.Merge(&b)
	if a.Len() != 6 {
		t.Fatalf("merged len = %d, want 6", a.Len())
	}
	if got := a.Percentile(100); got != 6 {
		t.Fatalf("merged max = %v, want 6", got)
	}
	if got := a.Median(); got != 3.5 {
		t.Fatalf("merged median = %v, want 3.5", got)
	}
	// The source must be unchanged.
	if b.Len() != 3 || b.Median() != 5 {
		t.Fatalf("merge modified its argument: len=%d median=%v", b.Len(), b.Median())
	}
	// Merging nil or empty is a no-op.
	a.Merge(nil)
	var empty Sample
	a.Merge(&empty)
	if a.Len() != 6 {
		t.Fatalf("nil/empty merge changed len to %d", a.Len())
	}
}

func TestSampleSelfMerge(t *testing.T) {
	var s Sample
	s.Add(1)
	s.Add(2)
	s.Merge(&s)
	if s.Len() != 4 {
		t.Fatalf("self-merge len = %d, want 4", s.Len())
	}
	if got := s.Mean(); got != 1.5 {
		t.Fatalf("self-merge mean = %v, want 1.5", got)
	}
}

// Property: a sample split at any point and merged back reports the same
// summary as the unsplit sample — the shard-reduction contract.
func TestSampleMergeEquivalence(t *testing.T) {
	f := func(xs []uint8, cut uint8) bool {
		if len(xs) == 0 {
			return true
		}
		k := int(cut) % len(xs)
		var whole, left, right Sample
		for i, v := range xs {
			whole.Add(float64(v))
			if i < k {
				left.Add(float64(v))
			} else {
				right.Add(float64(v))
			}
		}
		left.Merge(&right)
		return left.Len() == whole.Len() &&
			left.Median() == whole.Median() &&
			left.Mean() == whole.Mean() &&
			left.Percentile(90) == whole.Percentile(90)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
