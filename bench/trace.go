package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside it.
// Spans of one request (one experiment, one query) share Op; Parent is
// the span that caused this one (0 for a pass, the root).
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	Op      uint64 `json:"op"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory trace; later spans are counted as
// dropped (layer totals keep accumulating regardless).
const maxSpans = 1 << 18

// tracer holds the spans of a traced run in memory until exit. It is
// switched on only for the traced passes, so the untraced passes of the
// same process give the reference for bench.trace_overhead_frac.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Uint64
	// root is the current pass span: parent of the workload's top-level
	// spans.
	root atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layer is one boundary the bench wraps. While tracing is on it totals
// every call (calls, ns) and records a span for one call in every.
type layer struct {
	t     *tracer
	name  string
	every uint64
	calls atomic.Uint64
	ns    atomic.Int64
}

func (t *tracer) layer(name string, every uint64) *layer {
	return &layer{t: t, name: name, every: every}
}

// token carries one in-flight call from begin to end. The zero token
// (tracing off) makes end a no-op.
type token struct {
	start time.Time
	id    uint64 // non-zero when this call records a span
	live  bool
}

// begin starts timing a call, sampling a span for one call in every.
func (l *layer) begin() token {
	if !l.t.on.Load() {
		return token{}
	}
	return l.start(l.calls.Add(1)%l.every == 0)
}

// beginChild starts timing a call whose span is recorded exactly when
// its parent's was, so sampled requests are traced through every layer.
func (l *layer) beginChild(parent uint64) token {
	if !l.t.on.Load() {
		return token{}
	}
	l.calls.Add(1)
	return l.start(parent != 0)
}

func (l *layer) start(sampled bool) token {
	tk := token{live: true}
	if sampled {
		tk.id = l.t.nextID.Add(1)
	}
	tk.start = time.Now()
	return tk
}

func (l *layer) end(tk token, parent, op uint64) {
	if !tk.live {
		return
	}
	end := time.Now()
	l.ns.Add(int64(end.Sub(tk.start)))
	if tk.id != 0 {
		l.t.record(span{
			ID: tk.id, Parent: parent, Name: l.name, Op: op,
			StartNS: int64(tk.start.Sub(l.t.epoch)), EndNS: int64(end.Sub(l.t.epoch)),
		})
	}
}

// usPer is the layer's total time divided over n operations, in µs.
func (l *layer) usPer(n int64) float64 {
	if n <= 0 {
		return 0
	}
	return float64(l.ns.Load()) / 1e3 / float64(n)
}

// durations returns the recorded span durations of one name, in ns.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS))
		}
	}
	return out
}

// selfTimes sums, per span name, each span's self time: its duration
// minus the part of that interval its child spans cover. Children are
// clipped to the parent and overlapping children are counted once.
func selfTimes(spans []span) map[string]int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, upto := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, upto), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[s.Name] += (s.EndNS - s.StartNS) - covered
	}
	return self
}

// traceFile is what -trace 1 leaves in the output directory.
type traceFile struct {
	Env      envBlock         `json:"env"`
	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	Dropped  uint64           `json:"dropped_spans"`
	SelfNS   map[string]int64 `json:"self_ns_by_name"`
	Spans    []span           `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed uint64) error {
	spans := t.snapshot()
	t.mu.Lock()
	dropped := t.dropped
	t.mu.Unlock()
	return writeJSON(filepath.Join(dir, "trace-"+workload+".json"), traceFile{
		Env: currentEnv(), Workload: workload, Seed: seed,
		Dropped: dropped, SelfNS: selfTimes(spans), Spans: spans,
	})
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("bench: encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return nil
}
