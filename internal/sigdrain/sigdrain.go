// Package sigdrain is the process shell every long-running command
// shares: one two-stage SIGINT/SIGTERM loop (Run for the daemons,
// OnInterrupt for curtain's campaign commands) and the UDP+TCP DNS
// serving bring-up (Serving). The signal wiring — which signals,
// error-vs-signal precedence, the second signal that aborts — exists
// exactly once, in await.
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

// notify subscribes to SIGINT/SIGTERM with one slot per stage.
func notify() chan os.Signal {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	return sig
}

// await blocks until the first signal or an error on errCh (logged,
// status 1). A signal starts stop and await returns the status stop's
// channel delivers (a nil channel never does), unless a second signal
// comes first: that aborts with 130.
func await(name string, logf func(string, ...any), sig <-chan os.Signal, errCh <-chan error, stop func(os.Signal) <-chan int) int {
	select {
	case err := <-errCh:
		logf("%s: %v", name, err)
		return 1
	case s := <-sig:
		select {
		case code := <-stop(s):
			return code
		case <-sig:
			logf("%s: aborting", name)
			return 130
		}
	}
}

// Run blocks until the first SIGINT/SIGTERM or a serve error on errCh.
// A signal logs "<name>: <signal> — draining" and runs drain, which owns
// everything daemon-specific. A nil drain logs "<name>: drained cleanly"
// and Run returns. A drain error (a missed deadline must not look like a
// clean stop), a serve error or a second signal exits the process: 1,
// 1 and 130. Once drain has returned, whatever it returned, a non-nil
// snapshot's value is the process's report: one JSON line on stdout.
func Run(name string, errCh <-chan error, drain func() error, snapshot func() any) {
	sig := notify()
	defer signal.Stop(sig)
	if code := run(name, os.Stdout, sig, errCh, drain, snapshot); code != 0 {
		os.Exit(code)
	}
}

// run is Run over an injected signal channel and report writer,
// returning the exit status.
func run(name string, w io.Writer, sig <-chan os.Signal, errCh <-chan error, drain func() error, snapshot func() any) int {
	started := false
	code := await(name, log.Printf, sig, errCh, func(s os.Signal) <-chan int {
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
	if started && code != 130 && snapshot != nil {
		if err := json.NewEncoder(w).Encode(snapshot()); err != nil {
			log.Printf("%s: report: %v", name, err)
			return 1
		}
	}
	return code
}

// OnInterrupt installs the two-stage stop of a command that drains on
// its own: the first SIGINT/SIGTERM prints msg and runs first, which
// must not block; a second prints "<name>: aborting" and exits 130.
func OnInterrupt(name, msg string, first func()) {
	sig := notify()
	//lint:ignore goroutine the loop's only way out is exiting the process on the second signal
	go func() { os.Exit(interrupt(name, msg, sig, first)) }()
}

// interrupt is OnInterrupt's loop over an injected signal channel.
func interrupt(name, msg string, sig <-chan os.Signal, first func()) int {
	stderrf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	return await(name, stderrf, sig, nil, func(os.Signal) <-chan int {
		stderrf("%s", msg)
		first()
		return nil
	})
}
