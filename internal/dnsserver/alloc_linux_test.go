//go:build linux && (amd64 || arm64)

package dnsserver

import (
	"net"
	"sync"
	"testing"

	"cellcurtain/internal/raceflag"
)

// TestHotPathAllocsBatchRead proves the steady-state recvmmsg read path
// — b.read() plus per-packet take() — performs zero allocations per
// batch. This is the gate scripts/check.sh enforces for ROADMAP item 2:
// the batched serving loop must not create garbage under load.
func TestHotPathAllocsBatchRead(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates inside the RawConn syscall path")
	}
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := net.Dial("udp", srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	bufs := &sync.Pool{New: func() any { b := make([]byte, bufSize); return &b }}
	b, err := newReadBatcher(srv, 8, bufs)
	if err != nil {
		t.Fatalf("recvmmsg ring setup: %v", err)
	}
	defer b.release(bufs)

	payload := queryBytes(t)
	const perRun = 4
	var got, bad int
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < perRun; i++ {
			if _, err := cl.Write(payload); err != nil {
				bad++
				return
			}
		}
		for recv := 0; recv < perRun; {
			n, err := b.read()
			if err != nil {
				bad++
				return
			}
			for i := 0; i < n; i++ {
				p, ok := b.take(i, bufs)
				if !ok {
					bad++
					continue
				}
				if p.n != len(payload) || !p.raddr.IsValid() {
					bad++
				}
				got++
				recv++
				bufs.Put(p.buf)
			}
		}
	})
	if bad != 0 {
		t.Fatalf("%d packets failed to round-trip through the recvmmsg ring", bad)
	}
	if got == 0 {
		t.Fatal("no packets moved through the ring")
	}
	if allocs != 0 {
		t.Errorf("batch read path: %v allocs/op, want 0 (ROADMAP item 2 gate)", allocs)
	}
}
