package dnsserver

import (
	"sync"
	"testing"

	"cellcurtain/internal/dnswire"
)

// requireZeroAllocs mirrors dnswire's alloc gate: the serving hot path
// (annotated //lint:hotpath) must not allocate per packet.
func requireZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, allocs)
	}
}

// queryBytes packs a representative query once for reuse across runs.
func queryBytes(t *testing.T) []byte {
	t.Helper()
	q := dnswire.NewQuery(0x1234, "alloc.probe.example", dnswire.TypeA)
	payload, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestHotPathAllocsServfail proves the in-place SERVFAIL rewrite — the
// overload answer generated on the read loop — is allocation-free.
func TestHotPathAllocsServfail(t *testing.T) {
	payload := queryBytes(t)
	buf := make([]byte, len(payload))
	ok := true
	requireZeroAllocs(t, "servfailInPlace", func() {
		copy(buf, payload) // servfailInPlace mutates; restore the query each run
		if _, done := servfailInPlace(buf); !done {
			ok = false
		}
	})
	if !ok {
		t.Fatal("servfailInPlace refused a valid query")
	}
}

// TestHotPathAllocsDispatch proves the full overload dispatch path —
// pool queue full, SERVFAIL rewritten, response queued for the writer —
// is allocation-free per packet.
func TestHotPathAllocsDispatch(t *testing.T) {
	payload := queryBytes(t)
	s := &Server{}
	bufs := &sync.Pool{New: func() any { b := make([]byte, bufSize); return &b }}
	jobs := make(chan packet)        // no reader: every dispatch overloads
	writeq := make(chan packet, 256) // always has room for the SERVFAIL
	bp := bufs.Get().(*[]byte)
	requireZeroAllocs(t, "dispatch(overload)", func() {
		n := copy(*bp, payload)
		s.dispatch(bufs, jobs, writeq, packet{buf: bp, n: n})
		p := <-writeq // recycle the one buffer through the whole path
		bp = p.buf
	})
	if sf, drops := s.OverloadStats(); sf == 0 || drops != 0 {
		t.Fatalf("overload stats = (%d, %d), want every run counted as SERVFAIL, none dropped", sf, drops)
	}
}
