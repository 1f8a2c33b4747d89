//go:build !unix

package sigdrain

import "os"

// reportSignals is empty where there is no SIGUSR1: such a process
// reports only when it stops.
var reportSignals []os.Signal
