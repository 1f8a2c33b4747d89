package sigdrain

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestRunDrainsOnSignal is the real-signal wiring check: a SIGTERM
// delivered to the process reaches Run's handler (not the default
// terminator), the drain body executes, and Run returns. The other arms
// are covered over an injected channel by TestRunArms.
func TestRunDrainsOnSignal(t *testing.T) {
	drained := make(chan struct{})
	done := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		Run("sigdraintest", errCh, func() error {
			close(drained)
			return nil
		}, nil)
		close(done)
	}()
	// Give Run a moment to install its handler before the self-signal;
	// an uncaught SIGTERM would kill the whole test process.
	time.Sleep(50 * time.Millisecond)
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("self-signal: %v", err)
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("drain body never ran after SIGTERM")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after a clean drain")
	}
}

// report is the snapshot every TestRunArms case hands run.
var report = Stats{Served: 7, TCP: 2}

// runStatus runs run over a fresh signal channel, lets act drive it, and
// returns the exit status run reports and what it wrote as its report.
func runStatus(t *testing.T, drain func() error, act func(sig chan<- os.Signal, errCh chan<- error)) (int, string) {
	t.Helper()
	sig := make(chan os.Signal, 2)
	errCh := make(chan error, 1)
	status := make(chan int, 1)
	var out bytes.Buffer
	go func() { status <- run("sigdraintest", &out, sig, errCh, drain, func() any { return report }) }()
	act(sig, errCh)
	select {
	case code := <-status:
		return code, out.String()
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return")
		return -1, ""
	}
}

// oneReport requires out to be exactly one line decoding to report.
func oneReport(t *testing.T, out string) {
	t.Helper()
	var got Stats
	if strings.Count(out, "\n") != 1 || !strings.HasSuffix(out, "\n") {
		t.Fatalf("report %q, want one line", out)
	}
	if err := json.Unmarshal([]byte(out), &got); err != nil || got != report {
		t.Fatalf("report %q decodes to %+v (%v), want %+v", out, got, err, report)
	}
}

func TestRunArms(t *testing.T) {
	signalOnce := func(sig chan<- os.Signal, _ chan<- error) { sig <- syscall.SIGTERM }
	t.Run("clean drain exits 0", func(t *testing.T) {
		code, out := runStatus(t, func() error { return nil }, signalOnce)
		if code != 0 {
			t.Fatalf("status %d, want 0", code)
		}
		oneReport(t, out)
	})
	t.Run("drain error exits 1", func(t *testing.T) {
		drain := func() error { return errors.New("drain deadline exceeded") }
		code, out := runStatus(t, drain, signalOnce)
		if code != 1 {
			t.Fatalf("status %d, want 1", code)
		}
		oneReport(t, out)
	})
	t.Run("serve error before any signal exits 1", func(t *testing.T) {
		var drained atomic.Bool
		drain := func() error { drained.Store(true); return nil }
		serveFails := func(_ chan<- os.Signal, errCh chan<- error) { errCh <- errors.New("bind: address in use") }
		code, out := runStatus(t, drain, serveFails)
		if code != 1 {
			t.Fatalf("status %d, want 1", code)
		}
		if drained.Load() {
			t.Fatal("a serve error ran the drain body")
		}
		if out != "" {
			t.Fatalf("a serve error wrote report %q", out)
		}
	})
	t.Run("second signal during a blocked drain exits 130", func(t *testing.T) {
		started := make(chan struct{})
		release := make(chan struct{})
		defer close(release)
		drain := func() error { close(started); <-release; return nil }
		code, out := runStatus(t, drain, func(sig chan<- os.Signal, _ chan<- error) {
			sig <- syscall.SIGTERM
			<-started
			sig <- syscall.SIGINT
		})
		if code != 130 {
			t.Fatalf("status %d, want 130", code)
		}
		if out != "" {
			t.Fatalf("an abort wrote report %q", out)
		}
	})
}

// TestOnInterruptTwoStage covers OnInterrupt's loop: the first signal
// runs first exactly once and does not end the loop; the second aborts.
func TestOnInterruptTwoStage(t *testing.T) {
	sig := make(chan os.Signal, 2)
	var calls atomic.Int32
	ran := make(chan struct{})
	status := make(chan int, 1)
	go func() {
		status <- interrupt("sigdraintest", "sigdraintest: interrupt (again to abort)", sig, func() {
			calls.Add(1)
			close(ran)
		})
	}()
	sig <- syscall.SIGINT
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("first stage never ran")
	}
	select {
	case code := <-status:
		t.Fatalf("loop ended with %d after one signal", code)
	case <-time.After(50 * time.Millisecond):
	}
	sig <- syscall.SIGINT
	select {
	case code := <-status:
		if code != 130 {
			t.Fatalf("status %d, want 130", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second signal did not abort")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("first ran %d times, want 1", n)
	}
}
