// Package sigdrain is the process shell every long-running command
// shares: one signal loop (Run for the daemons, OnInterrupt for curtain's
// long commands) and the UDP+TCP DNS serving bring-up (Serving). The
// signal wiring — which signals, error-vs-signal precedence, the second
// signal that aborts, the report signal that only asks — exists exactly
// once, in await.
package sigdrain

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// DrainTimeout bounds every daemon's graceful drain.
const DrainTimeout = 5 * time.Second

// notify subscribes to the report signal (SIGUSR1 where there is one)
// and, when stops is set, to SIGINT/SIGTERM with one slot per stage, on
// a channel of its own, so a report request never counts as a stop.
// Without stops the stop channel is nil and the stop signals keep Go's
// default exit.
func notify(stops bool) (stop, report chan os.Signal) {
	if stops {
		stop = make(chan os.Signal, 2)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	}
	report = make(chan os.Signal, 1)
	if len(reportSignals) > 0 {
		signal.Notify(report, reportSignals...)
	}
	return stop, report
}

// emit writes snapshot's value as one JSON line on w; a nil snapshot
// writes nothing.
func emit(w io.Writer, snapshot func() any) error {
	if snapshot == nil {
		return nil
	}
	return json.NewEncoder(w).Encode(snapshot())
}

// await blocks until the first stop signal or an error on errCh (logged,
// status 1). A stop signal starts stop and await returns the status stop's
// channel delivers (a nil channel never does), unless a second stop
// signal comes first: that aborts with 130. A report signal, before or
// during the stop, writes snapshot's value on w and changes nothing else.
func await(name string, logf func(string, ...any), sig, reportSig <-chan os.Signal, errCh <-chan error, w io.Writer, snapshot func() any, stop func(os.Signal) <-chan int) int {
	stopping := false
	var status <-chan int
	for {
		select {
		case err := <-errCh:
			logf("%s: %v", name, err)
			return 1
		case code := <-status:
			return code
		case <-reportSig:
			if err := emit(w, snapshot); err != nil {
				logf("%s: report: %v", name, err)
			}
		case s := <-sig:
			if stopping {
				logf("%s: aborting", name)
				return 130
			}
			stopping, errCh, status = true, nil, stop(s)
		}
	}
}

// Run blocks until the first SIGINT/SIGTERM or a serve error on errCh.
// A signal logs "<name>: <signal> — draining" and runs drain, which owns
// everything daemon-specific. A nil drain logs "<name>: drained cleanly"
// and Run returns. A drain error (a missed deadline must not look like a
// clean stop), a serve error or a second signal exits the process: 1,
// 1 and 130. A non-nil snapshot's value is the process's report, one
// JSON line on stdout: on every SIGUSR1 while the daemon runs or drains,
// and once drain has returned, whatever it returned.
func Run(name string, errCh <-chan error, drain func() error, snapshot func() any) {
	sig, reportSig := notify(true)
	defer signal.Stop(sig)
	defer signal.Stop(reportSig)
	if code := run(name, os.Stdout, sig, reportSig, errCh, drain, snapshot); code != 0 {
		os.Exit(code)
	}
}

// run is Run over injected signal channels and report writer, returning
// the exit status.
func run(name string, w io.Writer, sig, reportSig <-chan os.Signal, errCh <-chan error, drain func() error, snapshot func() any) int {
	started := false
	code := await(name, log.Printf, sig, reportSig, errCh, w, snapshot, func(s os.Signal) <-chan int {
		log.Printf("%s: %s — draining", name, s)
		status := make(chan int, 1)
		go func() {
			if err := drain(); err != nil {
				log.Printf("%s: %v", name, err)
				status <- 1
				return
			}
			log.Printf("%s: drained cleanly", name)
			status <- 0
		}()
		started = true
		return status
	})
	// await runs stop on this goroutine, so started is set exactly when a
	// signal started the drain; any status but the abort's means it ended.
	if started && code != 130 {
		if err := emit(w, snapshot); err != nil {
			log.Printf("%s: report: %v", name, err)
			return 1
		}
	}
	return code
}

// OnInterrupt installs the two-stage stop of a command that drains on
// its own: the first SIGINT/SIGTERM prints msg and runs first, which
// must not block; a second prints "<name>: aborting" and exits 130. A
// nil first has nothing to drain: the stop signals are not subscribed
// and keep Go's default exit. Every SIGUSR1 writes a non-nil snapshot's
// value as one JSON line on w, the schema of the command's final report.
func OnInterrupt(name, msg string, w io.Writer, first func(), snapshot func() any) {
	sig, reportSig := notify(first != nil)
	//lint:ignore goroutine the loop lives as long as the process: its only way out is exiting it on the second signal
	go func() { os.Exit(interrupt(name, msg, w, sig, reportSig, first, snapshot)) }()
}

// interrupt is OnInterrupt's loop over injected signal channels and
// report writer.
func interrupt(name, msg string, w io.Writer, sig, reportSig <-chan os.Signal, first func(), snapshot func() any) int {
	stderrf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	return await(name, stderrf, sig, reportSig, nil, w, snapshot, func(os.Signal) <-chan int {
		stderrf("%s", msg)
		first()
		return nil
	})
}
