// Command curtain drives the cellcurtain reproduction study from the
// command line: curtain help lists the subcommands, and
// curtain <command> -h prints one subcommand's flags.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"cellcurtain"
	"cellcurtain/internal/controlplane"
	"cellcurtain/internal/dataset"
	"cellcurtain/internal/sigdrain"
	"cellcurtain/internal/trace"
)

// commands is the one list of subcommands: main dispatches through it
// and usage prints it.
var commands = []struct {
	name, summary string
	run           func(args []string) error
}{
	{"list", "print the experiment catalog (table/figure IDs)", func([]string) error { return runList() }},
	{"report", "run a campaign and regenerate every table and figure", runReport},
	{"exp", "regenerate one artifact: curtain exp -id F14", runExp},
	{"simulate", "run a campaign and stream the raw dataset (jsonl or curtainbin) to disk", runSimulate},
	{"convert", "transcode a dataset (file or checkpoint dir) between jsonl and binary, byte-exactly", runConvert},
	{"analyze", "offline analysis of a dataset file or checkpoint directory, no simulation", runAnalyze},
	{"loadgen", "hammer a DNS resolver at a target QPS and report latency", runLoadgen},
	{"coordinate", "lease a campaign to workers, merge byte-identical to a serial run (DESIGN.md §14)", runCoordinate},
	{"worker", "join a coordinated campaign and execute leased ranges; campaign flags given\n" +
		"             here are a fingerprint claim the coordinator verifies", runWorker},
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	if cmd == "-h" || cmd == "--help" || cmd == "help" {
		usage()
		return
	}
	var run func([]string) error
	for _, c := range commands {
		if c.name == cmd {
			run = c.run
		}
	}
	if run == nil {
		fmt.Fprintf(os.Stderr, "curtain: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err := run(args); err != nil {
		fmt.Fprintln(os.Stderr, "curtain:", err)
		if errors.Is(err, controlplane.ErrInterrupted) {
			// Coordinator stop with a flushed checkpoint: clean exit, the
			// resume hint was already printed.
			return
		}
		if errors.Is(err, trace.ErrInterrupted) {
			// A requested stop with a flushed checkpoint exits cleanly.
			fmt.Fprintln(os.Stderr, "curtain: add -resume to the same command to continue")
			return
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: curtain <command> [flags]\n\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(os.Stderr, "\nRun 'curtain <command> -h' for a command's flags.")
}

// optionFlags registers the full campaign flag set — campaignFlags'
// dataset-determining flags plus the execution flags — and returns a
// closure resolving them into Options and installing the process's
// signal handler: SIGUSR1 prints a non-nil snapshot on stdout, and a
// checkpointed run drains on SIGINT/SIGTERM.
func optionFlags(fs *flag.FlagSet) func(snapshot func() any) (cellcurtain.Options, error) {
	campaign := campaignFlags(fs)
	workers := fs.Int("workers", 0, "parallel campaign workers (0 = serial); results are byte-identical for any worker count")
	checkpoint := checkpointFlags(fs,
		"durable checkpoint directory (empty = no checkpointing): completed experiments are fsync'd there as curtainbin (read one with convert -in DIR) as the run progresses, and SIGINT/SIGTERM drains in-flight experiments and flushes it before exiting",
		"resume the campaign checkpointed in -checkpoint-dir, verified against -seed and the other campaign flags; the result is byte-identical to an uninterrupted run")
	return func(snapshot func() any) (cellcurtain.Options, error) {
		o, _ := campaign()
		o.Workers = *workers
		checkpoint(&o)
		if o.Resume && o.CheckpointDir == "" {
			return cellcurtain.Options{}, fmt.Errorf("-resume requires -checkpoint-dir")
		}
		var first func()
		if o.CheckpointDir != "" {
			// Workers drain their in-flight experiment and the checkpoint is
			// flushed before the process exits; an abort loses at most the
			// experiments since the last fsync — what -resume recovers from.
			interrupt := make(chan struct{})
			first = func() { close(interrupt) }
			o.Interrupt = interrupt
		}
		sigdrain.OnInterrupt("curtain", fmt.Sprintf("curtain: interrupt — draining in-flight experiments and flushing checkpoint %s (again to abort)", o.CheckpointDir),
			os.Stdout, first, snapshot)
		return o, nil
	}
}

// checkpointFlags registers -checkpoint-dir, -checkpoint-every and
// -resume for every subcommand that runs a durable campaign, and returns
// a closure storing the parsed values into Options. Only the wording of
// what the directory and a resume mean differs between running a
// campaign locally and coordinating one.
func checkpointFlags(fs *flag.FlagSet, dirUsage, resumeUsage string) func(*cellcurtain.Options) {
	dir := fs.String("checkpoint-dir", "", dirUsage)
	every := fs.Int("checkpoint-every", 0, "checkpoint fsync cadence in experiments (0 = default 64)")
	resume := fs.Bool("resume", false, resumeUsage)
	return func(o *cellcurtain.Options) {
		o.CheckpointDir, o.CheckpointEvery, o.Resume = *dir, *every, *resume
	}
}

// announceCampaign prints the banner every locally-run campaign starts
// with; building the world is the silent first few seconds.
func announceCampaign(o cellcurtain.Options) {
	verb := "running"
	if o.Resume {
		verb = "resuming"
	}
	fmt.Fprintf(os.Stderr, "curtain: building world and %s campaign...\n", verb)
}

func studyFlags(fs *flag.FlagSet) func() (*cellcurtain.Study, error) {
	opts := optionFlags(fs)
	return func() (*cellcurtain.Study, error) {
		o, err := opts(nil)
		if err != nil {
			return nil, err
		}
		announceCampaign(o)
		s, err := cellcurtain.NewStudy(o)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "curtain: %d experiments from %d clients\n",
			s.ExperimentCount(), s.ClientCount())
		return s, nil
	}
}

// scanInput streams a dataset input serially, for analyze and convert
// alike: checkpoint segments (tolerating a torn tail) when path is a
// checkpoint directory, the dataset file of either codec otherwise.
func scanInput(path string, fn dataset.ScanFunc) error {
	if dataset.IsCheckpointDir(path) {
		_, err := dataset.ScanCheckpoint(path, fn)
		return err
	}
	return dataset.ScanFile(path, fn)
}

// inputFormat is the codec scanInput will find at path.
func inputFormat(path string) (dataset.Format, error) {
	if dataset.IsCheckpointDir(path) {
		return dataset.FormatBinary, nil
	}
	return dataset.FileFormat(path)
}

func runList() error {
	fmt.Println("paper artifacts (see DESIGN.md for the full index):")
	for _, id := range cellcurtain.ExperimentIDs() {
		fmt.Printf("  %s\n", id)
	}
	fmt.Println("extensions:")
	for _, id := range cellcurtain.ExtensionIDs() {
		fmt.Printf("  %s\n", id)
	}
	return nil
}

func runReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	build := studyFlags(fs)
	fs.Parse(args)
	s, err := build()
	if err != nil {
		return err
	}
	fmt.Print(s.Report())
	return nil
}

func runExp(args []string) error {
	fs := flag.NewFlagSet("exp", flag.ExitOnError)
	id := fs.String("id", "", "experiment id (T1-T5, F2-F14, EGRESS, extensions like AVAIL)")
	build := studyFlags(fs)
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("exp requires -id (try 'curtain list')")
	}
	s, err := build()
	if err != nil {
		return err
	}
	a, err := s.Reproduce(*id)
	if err != nil {
		return err
	}
	fmt.Print(a.Text)
	fmt.Println("\nkey metrics:")
	for _, k := range a.MetricNames() {
		fmt.Printf("  %-32s %.3f\n", k, a.Metrics[k])
	}
	return nil
}

func runSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	out := fs.String("out", "dataset.bin", "output dataset path")
	formatName := fs.String("format", string(dataset.FormatBinary), "output codec: binary, the compact curtainbin form of DESIGN.md §15, or jsonl")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file when the run ends")
	opts := optionFlags(fs)
	fs.Parse(args)
	f, err := dataset.ParseFormat(*formatName)
	if err != nil {
		return err
	}
	// The report's inputs change as the campaign streams and SIGUSR1 reads
	// them from the signal goroutine, so each is atomic; start stays nil
	// until the run begins.
	var (
		start      atomic.Pointer[time.Time]
		clients, n atomic.Int64
		bytesOut   byteCount
	)
	report := func() any {
		r := struct {
			Clients     int64   `json:"clients"`
			Experiments int64   `json:"experiments"`
			Seconds     float64 `json:"seconds"`
			ExpPerSec   float64 `json:"exp_per_sec"`
			Bytes       int64   `json:"bytes"`
			BytesPerExp float64 `json:"bytes_per_exp"`
			PeakRSSMB   float64 `json:"peak_rss_mb,omitempty"`
		}{Clients: clients.Load(), Experiments: n.Load(), Bytes: bytesOut.Load(), PeakRSSMB: peakRSSMB()}
		if t := start.Load(); t != nil {
			r.Seconds = time.Since(*t).Seconds()
			r.ExpPerSec = float64(r.Experiments) / r.Seconds
		}
		if r.Experiments > 0 { // JSON has no NaN for 0/0
			r.BytesPerExp = float64(r.Bytes) / float64(r.Experiments)
		}
		return r
	}
	o, err := opts(report)
	if err != nil {
		return err
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()
	announceCampaign(o)
	camp, err := trace.New(o.CampaignConfig())
	if err != nil {
		return err
	}
	clients.Store(int64(camp.ClientCount()))
	fmt.Fprintf(os.Stderr, "curtain: %d experiments from %d clients\n",
		camp.Total(), camp.ClientCount())

	// Experiments stream straight from the campaign into the encoder as
	// the canonical prefix completes: memory stays bounded by the workers'
	// out-of-order window, not the campaign size. Write-to-temp + fsync +
	// rename means a crash (or an interrupt) mid-write can never leave a
	// torn dataset at -out. The report covers run + encode, which stream
	// together; the peak RSS is the whole process's, world build included.
	now := time.Now()
	start.Store(&now)
	werr := dataset.WriteFileAtomic(*out, func(w io.Writer) error {
		sink, flush := dataset.NewWriter(io.MultiWriter(w, &bytesOut), f)
		var sinkErr error
		record := func(e *dataset.Experiment) {
			if sinkErr == nil {
				if err := sink(e); err != nil {
					sinkErr = err
					return
				}
				n.Add(1)
			}
		}
		st, err := camp.Run(record)
		if st.DiscardedBytes > 0 {
			fmt.Fprintf(os.Stderr, "curtain: discarded %d bytes of torn segment tail\n", st.DiscardedBytes)
		}
		if err != nil {
			return err
		}
		if sinkErr != nil {
			return sinkErr
		}
		return flush()
	})
	if werr != nil {
		if errors.Is(werr, trace.ErrInterrupted) {
			// The requested stop is not a failure: report how to continue.
			fmt.Fprintf(os.Stderr, "curtain: %v\ncurtain: resume with: curtain simulate -resume %s\n",
				werr, flagEcho(fs))
			return nil
		}
		return werr
	}
	fmt.Fprintf(os.Stderr, "curtain: wrote %d experiments to %s (%s)\n", n.Load(), *out, f)
	// Past the flush the byte count is the size of -out.
	return json.NewEncoder(os.Stdout).Encode(report())
}

// byteCount is a writer that only counts what is written to it.
type byteCount struct{ atomic.Int64 }

func (c *byteCount) Write(p []byte) (int, error) {
	c.Add(int64(len(p)))
	return len(p), nil
}

// startProfiles begins a CPU profile into cpuPath and returns a stop
// function that ends it and writes the allocation profile (every
// allocation since process start, pprof's "allocs") into memPath. Either
// path may be empty. Profile write failures are reported on stderr: they
// must not turn a finished campaign into a failed one.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			_ = cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "curtain: cpuprofile:", err)
			}
		}
		if memPath == "" {
			return
		}
		memFile, err := os.Create(memPath)
		if err == nil {
			runtime.GC() // fold the last cycle's allocations into the profile
			err = pprof.Lookup("allocs").WriteTo(memFile, 0)
			if cerr := memFile.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "curtain: memprofile:", err)
		}
	}, nil
}

// flagEcho reconstructs the explicitly-set flags of a parsed FlagSet so
// interrupt messages can print a copy-pasteable resume command. Every
// flag is rendered -name=value: the flag package stops parsing at the
// bare word a boolean's "-name value" form would leave behind.
func flagEcho(fs *flag.FlagSet) string {
	var parts []string
	fs.Visit(func(f *flag.Flag) {
		if f.Name != "resume" {
			parts = append(parts, "-"+f.Name+"="+shellQuote(f.Value.String()))
		}
	})
	return strings.Join(parts, " ")
}

// shellQuote renders s as one POSIX shell word: as is when every
// character is inert unquoted, single-quoted otherwise.
func shellQuote(s string) string {
	const inert = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_./:,=%+@"
	if s != "" && strings.Trim(s, inert) == "" {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", `'\''`) + "'"
}
