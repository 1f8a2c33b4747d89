package controlplane

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"testing"
	"time"
)

// wireBytes returns the bytes writeMsg puts on the wire for m.
func wireBytes(tb testing.TB, m *Message) []byte {
	a, b := net.Pipe()
	defer b.Close()
	errc := make(chan error, 1)
	go func() {
		errc <- writeMsg(a, time.Minute, m)
		_ = a.Close()
	}()
	wire, err := io.ReadAll(b)
	if err != nil {
		tb.Fatal(err)
	}
	if err := <-errc; err != nil {
		tb.Fatal(err)
	}
	return wire
}

// readFrom runs readMsg over a net.Pipe whose writer sends b and closes,
// returning the message, the bytes readMsg allocated and how long it took.
// The writer is closed out before readFrom returns, whether or not readMsg
// consumed all of b.
func readFrom(b []byte, timeout time.Duration) (*Message, uint64, time.Duration, error) {
	w, r := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = w.Write(b)
		_ = w.Close()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	m, err := readMsg(r, timeout)
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	_ = r.Close() // unblocks a writer with bytes left over
	<-done
	return m, after.TotalAlloc - before.TotalAlloc, took, err
}

// FuzzReadMsg feeds readMsg the bytes a peer could send, over a pipe that
// closes after the last of them. The properties:
//
//   - no panic;
//   - readMsg returns before its read deadline: a peer that has stopped
//     sending is an error at once, not a wait;
//   - what it allocates is bounded by the bytes that arrived, not by the
//     length prefix: readStep + perByte·len(b) + fixed;
//   - a frame it accepts, sent again through writeMsg, reads back with
//     the same header and the same records bytes.
//
// The bound: the body buffer starts at min(declared, readStep) and each
// buffer after it is at most twice the bytes that had arrived when it was
// made, so together they cost at most 4 B per byte. json.Unmarshal of
// the header costs at most 32 B per byte — its scanner keeps one 8-byte
// int per open '[' or '{', in a slice grown by doubling, so under 4 slots
// are allocated per nesting byte — plus at most 2 B per byte for the
// strings it copies out and the offending text a type error quotes.
// Message holds no slices or maps, so nothing else grows with the input.
// The constant covers the deadline timer, the Message and the error values.
func FuzzReadMsg(f *testing.F) {
	const (
		timeout = 10 * time.Second
		perByte = 4 + 32 + 2
		fixed   = 64 << 10
	)
	for _, m := range frameMessages() {
		f.Add(wireBytes(f, m))
	}
	var liar [6]byte // a 64 MB length prefix and two bytes of body
	binary.BigEndian.PutUint32(liar[:], maxMessage)
	copy(liar[4:], "{}")
	f.Add(liar[:])

	f.Fuzz(func(t *testing.T, b []byte) {
		m, grew, took, err := readFrom(b, timeout)
		if took >= timeout || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("reading %d bytes from a closed peer took %v (err %v)", len(b), took, err)
		}
		limit := readStep + perByte*uint64(len(b)) + fixed
		if grew > limit {
			// TotalAlloc also counts the fuzz engine's own goroutines,
			// which now and then allocate a few hundred KB mid-read.
			// readMsg's share is the same on every read of b, so the
			// lesser of two reads is a sound measure of it.
			_, again, _, _ := readFrom(b, timeout)
			grew = min(grew, again)
		}
		if grew > limit {
			t.Fatalf("reading %d bytes allocated %d, bound %d (err %v)", len(b), grew, limit, err)
		}
		if err != nil {
			return
		}
		back, _, _, err := readFrom(wireBytes(t, m), timeout)
		if err != nil {
			t.Fatalf("an accepted %s frame does not read back: %v", m.Type, err)
		}
		// Headers compare by their encoding: "+00:00" decodes to Local
		// where the re-sent "Z" decodes to UTC, the same instant.
		h1, err1 := json.Marshal(m)
		h2, err2 := json.Marshal(back)
		if err1 != nil || err2 != nil || !bytes.Equal(h1, h2) || !bytes.Equal(m.Records, back.Records) {
			t.Fatalf("an accepted frame changed over writeMsg/readMsg:\n got %s + %d records bytes\nwant %s + %d records bytes",
				h2, len(back.Records), h1, len(m.Records))
		}
	})
}
