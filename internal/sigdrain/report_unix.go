//go:build unix

package sigdrain

import (
	"os"
	"syscall"
)

// reportSignals ask a running process for its report: SIGUSR1, dd's
// progress convention.
var reportSignals = []os.Signal{syscall.SIGUSR1}
