package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := summarize([]float64{5, 1, 3, 2, 4})
	want := spread{N: 5, Min: 1, Q1: 2, Med: 3, Q3: 4, Max: 5}
	if s != want {
		t.Fatalf("summarize = %+v, want %+v", s, want)
	}
	if got := s.rangeFrac(); math.Abs(got-4.0/3) > 1e-12 {
		t.Errorf("rangeFrac = %v, want 4/3", got)
	}
	if got := s.iqrFrac(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("iqrFrac = %v, want 2/3", got)
	}
	// Even count: the median interpolates between the middle two.
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := summarize(nil); got != (spread{}) {
		t.Errorf("summarize(nil) = %+v, want zero", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", StartNS: 0, EndNS: 100},
		// Two overlapping children cover [10,50) once, not twice.
		{ID: 2, Parent: 1, Name: "run", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "run", StartNS: 30, EndNS: 50},
		// A child that outlives its parent is clipped to it: [90,100).
		{ID: 4, Parent: 1, Name: "late", StartNS: 90, EndNS: 130},
		// A grandchild reduces its own parent only.
		{ID: 5, Parent: 2, Name: "encode", StartNS: 12, EndNS: 22},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"pass":   100 - 40 - 10,
		"run":    (30 - 10) + 20,
		"late":   40,
		"encode": 10,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, got[name], w)
		}
	}
}

func TestLayerSampling(t *testing.T) {
	tr := newTracer()
	l := tr.layer("x", 4)

	// Off: nothing is counted or recorded.
	l.end(l.begin(), 0, 0)
	if l.calls.Load() != 0 || len(tr.snapshot()) != 0 {
		t.Fatalf("tracing off recorded calls=%d spans=%d", l.calls.Load(), len(tr.snapshot()))
	}

	tr.on.Store(true)
	for i := 0; i < 16; i++ {
		l.end(l.begin(), 7, uint64(i))
	}
	if l.calls.Load() != 16 {
		t.Errorf("calls = %d, want 16", l.calls.Load())
	}
	spans := tr.snapshot()
	if len(spans) != 4 {
		t.Fatalf("1-in-4 sampling recorded %d spans of 16 calls, want 4", len(spans))
	}
	for _, s := range spans {
		if s.Parent != 7 || s.Name != "x" || s.EndNS < s.StartNS {
			t.Errorf("bad span %+v", s)
		}
	}

	// A child is recorded exactly when its parent was.
	c := tr.layer("child", 1)
	c.end(c.beginChild(0), 0, 0)
	c.end(c.beginChild(spans[0].ID), spans[0].ID, 0)
	if got := len(durations(tr.snapshot(), "child")); got != 1 {
		t.Errorf("child spans = %d, want 1 (only under a sampled parent)", got)
	}
	if c.calls.Load() != 2 {
		t.Errorf("child calls = %d, want 2 (totals count every call)", c.calls.Load())
	}
}

func TestTraceFile(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	l := tr.layer("a", 1)
	l.end(l.begin(), 0, 1)
	dir := t.TempDir()
	if err := tr.write(dir, "w", 9); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(dir + "/trace-w.json")
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Workload != "w" || tf.Seed != 9 || len(tf.Spans) != 1 || tf.Env.NProc == 0 || tf.Env.Go == "" {
		t.Errorf("trace file = %+v", tf)
	}
	if _, ok := tf.SelfNS["a"]; !ok {
		t.Errorf("trace file has no self time for the recorded span: %v", tf.SelfNS)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the driver emits from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bf struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d = %q (why %d chars), want %q with a why of at most 200", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the tables %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d] = %s/%s/%s, tables say %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s[%d] %s: bound %v", kind, i, g.Name, g.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	if len(bf.PerLayer) > 128 || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("per_layer=%d run_seconds=%d outside the contract", len(bf.PerLayer), bf.RunSeconds)
	}
}
