package sigdrain

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/signal"
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

// report is the snapshot the TestRunArms and TestInterruptReports cases
// hand their loop.
var report = Stats{Served: 7, TCP: 2}

func snapshot() any { return report }

// lines is a report writer that delivers each Write, one JSON line per
// report, on a channel, so a case can wait for a live report.
type lines chan string

func (l lines) Write(p []byte) (int, error) {
	l <- string(p)
	return len(p), nil
}

// next waits for the next report line.
func (l lines) next(t *testing.T) string {
	t.Helper()
	select {
	case line := <-l:
		return line
	case <-time.After(5 * time.Second):
		t.Fatal("no report line")
		return ""
	}
}

// loop is a signal loop under test: its stop and report signal channels
// (report is unbuffered, so a send returns once the loop has taken it),
// its serve errors, its report lines and its exit status.
type loop struct {
	sig, reportSig chan os.Signal
	errCh          chan error
	out            lines
	status         chan int
}

func newLoop() *loop {
	// sig has a slot per stage; out holds a case's unread lines, at most
	// one live report and the final one.
	return &loop{
		sig: make(chan os.Signal, 2), reportSig: make(chan os.Signal),
		errCh: make(chan error, 1), out: make(lines, 2), status: make(chan int, 1),
	}
}

// running requires the loop not to have exited yet.
func (l *loop) running(t *testing.T) {
	t.Helper()
	select {
	case code := <-l.status:
		t.Fatalf("loop exited %d, want it still running", code)
	case <-time.After(50 * time.Millisecond):
	}
}

// exit waits for the loop's status and returns it with every report line
// written after the ones already read.
func (l *loop) exit(t *testing.T) (int, string) {
	t.Helper()
	select {
	case code := <-l.status:
		close(l.out)
		var out strings.Builder
		for line := range l.out {
			out.WriteString(line)
		}
		return code, out.String()
	case <-time.After(5 * time.Second):
		t.Fatal("loop did not return")
		return -1, ""
	}
}

// runStatus runs run over a fresh loop, lets act drive it, and returns
// the exit status run reports and what it wrote after act returned.
func runStatus(t *testing.T, drain func() error, snapshot func() any, act func(*loop)) (int, string) {
	t.Helper()
	l := newLoop()
	go func() { l.status <- run("sigdraintest", l.out, l.sig, l.reportSig, l.errCh, drain, snapshot) }()
	act(l)
	return l.exit(t)
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
	signalOnce := func(l *loop) { l.sig <- syscall.SIGTERM }
	t.Run("clean drain exits 0", func(t *testing.T) {
		code, out := runStatus(t, func() error { return nil }, snapshot, signalOnce)
		if code != 0 {
			t.Fatalf("status %d, want 0", code)
		}
		oneReport(t, out)
	})
	t.Run("drain error exits 1", func(t *testing.T) {
		drain := func() error { return errors.New("drain deadline exceeded") }
		code, out := runStatus(t, drain, snapshot, signalOnce)
		if code != 1 {
			t.Fatalf("status %d, want 1", code)
		}
		oneReport(t, out)
	})
	t.Run("serve error before any signal exits 1", func(t *testing.T) {
		var drained atomic.Bool
		drain := func() error { drained.Store(true); return nil }
		serveFails := func(l *loop) { l.errCh <- errors.New("bind: address in use") }
		code, out := runStatus(t, drain, snapshot, serveFails)
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
		code, out := runStatus(t, drain, snapshot, func(l *loop) {
			l.sig <- syscall.SIGTERM
			<-started
			l.sig <- syscall.SIGINT
		})
		if code != 130 {
			t.Fatalf("status %d, want 130", code)
		}
		if out != "" {
			t.Fatalf("an abort wrote report %q", out)
		}
	})
	t.Run("report signal before any stop reports and keeps running", func(t *testing.T) {
		var drained atomic.Bool
		drain := func() error { drained.Store(true); return nil }
		code, out := runStatus(t, drain, snapshot, func(l *loop) {
			l.reportSig <- syscall.SIGUSR1
			oneReport(t, l.out.next(t))
			l.running(t)
			if drained.Load() {
				t.Fatal("a report signal ran the drain body")
			}
			l.sig <- syscall.SIGTERM
		})
		if code != 0 {
			t.Fatalf("status %d, want 0", code)
		}
		oneReport(t, out) // the final report, line 2
	})
	t.Run("report signal during a slow drain is not the aborting second signal", func(t *testing.T) {
		started := make(chan struct{})
		release := make(chan struct{})
		drain := func() error { close(started); <-release; return nil }
		code, out := runStatus(t, drain, snapshot, func(l *loop) {
			l.sig <- syscall.SIGTERM
			<-started
			l.reportSig <- syscall.SIGUSR1
			oneReport(t, l.out.next(t))
			l.running(t)
			close(release)
		})
		if code != 0 {
			t.Fatalf("status %d, want 0", code)
		}
		oneReport(t, out)
	})
	t.Run("nil snapshot reports nothing", func(t *testing.T) {
		code, out := runStatus(t, func() error { return nil }, nil, func(l *loop) {
			l.reportSig <- syscall.SIGUSR1
			l.running(t)
			l.sig <- syscall.SIGTERM
		})
		if code != 0 {
			t.Fatalf("status %d, want 0", code)
		}
		if out != "" {
			t.Fatalf("a nil snapshot wrote report %q", out)
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
		status <- interrupt("sigdraintest", "sigdraintest: interrupt (again to abort)", io.Discard, sig, nil, func() {
			calls.Add(1)
			close(ran)
		}, snapshot)
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

// TestInterruptReports covers OnInterrupt's report signal: it writes one
// line on the writer given, before and after the first stop signal,
// never runs first and never counts toward the abort; with a nil first
// it is the only signal subscribed; a nil snapshot writes nothing.
func TestInterruptReports(t *testing.T) {
	start := func(snapshot func() any, first func()) *loop {
		l := newLoop()
		go func() {
			l.status <- interrupt("sigdraintest", "sigdraintest: interrupt (again to abort)", l.out, l.sig, l.reportSig, first, snapshot)
		}()
		return l
	}
	t.Run("report signals before and after the first stop", func(t *testing.T) {
		var calls atomic.Int32
		l := start(snapshot, func() { calls.Add(1) })
		l.reportSig <- syscall.SIGUSR1
		oneReport(t, l.out.next(t))
		l.running(t)
		if n := calls.Load(); n != 0 {
			t.Fatalf("a report signal ran first %d times", n)
		}
		l.sig <- syscall.SIGINT
		l.reportSig <- syscall.SIGUSR1
		oneReport(t, l.out.next(t))
		l.running(t)
		if n := calls.Load(); n != 1 {
			t.Fatalf("first ran %d times, want 1", n)
		}
		l.sig <- syscall.SIGINT
		if code, out := l.exit(t); code != 130 || out != "" {
			t.Fatalf("status %d with report %q after the second stop, want 130 and none", code, out)
		}
	})
	t.Run("real signals report on the writer given and nil first subscribes no stop", func(t *testing.T) {
		stdout, err := os.CreateTemp(t.TempDir(), "stdout")
		if err != nil {
			t.Fatal(err)
		}
		defer stdout.Close()
		saved := os.Stdout
		os.Stdout = stdout
		defer func() { os.Stdout = saved }()
		// The test holds SIGINT itself, so the process survives it
		// whether or not OnInterrupt subscribed a stop.
		held := make(chan os.Signal, 1)
		signal.Notify(held, os.Interrupt)
		defer signal.Stop(held)

		out := make(lines, 2)
		OnInterrupt("sigdraintest", "sigdraintest: interrupt (again to abort)", out, nil, snapshot)
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGUSR1); err != nil {
			t.Fatalf("self-signal: %v", err)
		}
		oneReport(t, out.next(t))
		// A subscribed stop would call the nil first and crash the test.
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
			t.Fatalf("self-signal: %v", err)
		}
		<-held
		select {
		case line := <-out:
			t.Fatalf("a stop signal wrote %q", line)
		case <-time.After(50 * time.Millisecond):
		}
		if b, err := os.ReadFile(stdout.Name()); err != nil || len(b) != 0 {
			t.Fatalf("stdout got %q (%v), want nothing: the report goes to the writer given", b, err)
		}
	})
	t.Run("nil snapshot reports nothing", func(t *testing.T) {
		var calls atomic.Int32
		l := start(nil, func() { calls.Add(1) })
		l.reportSig <- syscall.SIGUSR1
		l.running(t)
		if n := calls.Load(); n != 0 {
			t.Fatalf("a report signal ran first %d times", n)
		}
		l.sig <- syscall.SIGINT
		l.sig <- syscall.SIGINT
		if code, out := l.exit(t); code != 130 || out != "" {
			t.Fatalf("status %d with report %q, want 130 and none", code, out)
		}
	})
}
