package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envBlock is carried by every result file: a number means nothing
// without the host it was measured on.
type envBlock struct {
	NProc  int    `json:"nproc"`
	Go     string `json:"go"`
	OSArch string `json:"os_arch"`
	Commit string `json:"commit"`
}

func currentEnv() envBlock {
	return envBlock{
		NProc: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		OSArch: runtime.GOOS + "/" + runtime.GOARCH, Commit: commit(),
	}
}

// commit names the checkout: CURTAIN_BENCH_COMMIT when set, git HEAD
// when the checkout is a repository, "unknown" otherwise (the driver's
// checkout is not one).
func commit() string {
	if c := os.Getenv("CURTAIN_BENCH_COMMIT"); c != "" {
		return c
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// counters is one reading of the process-wide counters the metrics are
// deltas of.
type counters struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
	cpu, gcCPU          float64 // seconds
}

var gcCPUSample = []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, cpu: cpuSeconds()}
	rtmetrics.Read(gcCPUSample)
	if gcCPUSample[0].Value.Kind() == rtmetrics.KindFloat64 {
		c.gcCPU = gcCPUSample[0].Value.Float64()
	}
	return c
}

// add accumulates the delta from before to after into c.
func (c *counters) add(before, after counters) {
	c.mallocs += after.mallocs - before.mallocs
	c.allocBytes += after.allocBytes - before.allocBytes
	c.gcCycles += after.gcCycles - before.gcCycles
	c.cpu += after.cpu - before.cpu
	c.gcCPU += after.gcCPU - before.gcCPU
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapAlloc is the live heap after two collections (the second frees
// what the first one's finalizers released).
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// peakRSSMB reads the peak resident set size (VmHWM) in MB; 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
