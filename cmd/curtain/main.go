// Command curtain drives the cellcurtain reproduction study from the
// command line.
//
// Usage:
//
//	curtain list                          print the experiment catalog
//	curtain report [flags]                regenerate every table and figure
//	curtain exp -id F14 [flags]           regenerate one artifact
//	curtain simulate -out data.jsonl      run a campaign, dump the dataset
//	curtain convert -in A -out B          transcode a dataset between codecs
//	curtain analyze -in data.jsonl        offline analysis, no simulation
//	curtain loadgen -target ADDR          load-test a DNS resolver
//	curtain coordinate -checkpoint-dir D  lease a campaign to worker processes
//	curtain worker -addr ADDR             execute ranges a coordinator leases
//
// Campaign flags: -seed, -days, -interval-hours, -scale, -faults (plus
// -workers and the checkpoint flags where a campaign runs locally); run
// curtain help for every subcommand's flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"cellcurtain"
	"cellcurtain/internal/controlplane"
	"cellcurtain/internal/dataset"
	"cellcurtain/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "list":
		err = runList()
	case "report":
		err = runReport(args)
	case "exp":
		err = runExp(args)
	case "simulate":
		err = runSimulate(args)
	case "convert":
		err = runConvert(args)
	case "analyze":
		err = runAnalyze(args)
	case "loadgen":
		err = runLoadgen(args)
	case "coordinate":
		err = runCoordinate(args)
	case "worker":
		err = runWorker(args)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "curtain: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
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
	fmt.Fprintln(os.Stderr, `usage: curtain <command> [flags]

commands:
  list       print the experiment catalog (table/figure IDs)
  report     run a campaign and regenerate every table and figure
  exp        regenerate one artifact: curtain exp -id F14
  simulate   run a campaign and stream the raw dataset to disk
             (JSONL or compact curtainbin; bounded memory)
  convert    transcode a dataset file or checkpoint directory between
             jsonl and binary (auto-detects the input codec; round trips
             are byte-identical)
  analyze    offline analysis of a dataset file or checkpoint directory
             (jsonl or binary, auto-detected; no simulation)
  loadgen    hammer a DNS resolver at a target QPS and report latency
  coordinate lease a campaign's experiments to worker processes and
             merge their results (crash-tolerant, byte-identical to
             a serial run; see DESIGN.md §14)
  worker     join a coordinated campaign and execute leased ranges

flags (loadgen):
  -target ADDR        resolver under test (default 127.0.0.1:5353)
  -qps N              target aggregate queries per second (default 10000)
  -duration D         send phase length (default 3s)
  -conns N            UDP sockets; distinct source ports exercise
                      SO_REUSEPORT sharding (default 4)
  -zone Z             zone for the query names (default loadgen.example)
  -names N            distinct names in the mix (default 1024)
  -seed N             RNG seed; same seed = same query sequence
  -timeout D          drain window; later responses count as timeouts
  -json               one-line JSON report on stdout (for scripts)

flags (convert):
  -in PATH            input dataset file, jsonl or binary (auto-detected),
                      or a campaign checkpoint directory (binary)
  -out PATH           output path (required)
  -format F           output codec (default: the opposite of the input)

flags (analyze):
  -in PATH            dataset file (jsonl or binary, auto-detected) or
                      campaign checkpoint directory (default dataset.jsonl)
  -parallel N         concurrent shard scanners over a dataset file of
                      either codec; output is byte-identical for any N; a
                      checkpoint directory is always scanned serially
                      (default 1)
  -progress           report scan progress on stderr
  -stats              report scan time and peak RSS on stderr

flags (coordinate):
  -listen ADDR        address workers connect to (default 127.0.0.1:9290;
                      a path means a unix socket)
  -checkpoint-dir D   durable segment directory (required); worker crashes
                      and coordinator restarts recover from it
  -resume             adopt the checkpoint and lease only what is missing
  -lease N            experiments per leased range (default 64)
  -lease-timeout D    reassign a lease after this long without a
                      heartbeat (default 10s)
  -out PATH           merged dataset path (default dataset.jsonl)
  -format F           merged output codec: jsonl or binary (default
                      jsonl; the checkpoint segment is always curtainbin)
  -json               one-line JSON status report on stdout after the
                      drain: lease grants/reassignments, dedup counts,
                      grant-to-merge latency p50/p95 (for scripts)
  plus the campaign flags: -seed -days -interval-hours -scale -faults

flags (worker):
  -addr ADDR          coordinator to join (default 127.0.0.1:9290)
  -id NAME            worker name in coordinator logs
  -heartbeat D        lease heartbeat interval (default 2s)
  campaign flags given here become a fingerprint claim that the
  coordinator verifies; omit them to adopt the pushed config

flags (report/exp/simulate):
  -seed N             RNG seed (default 2014)
  -days N             campaign length in days (default: full five months)
  -interval-hours N   per-device experiment period (default 12)
  -scale F            client population scale (default 1.0 = 158 devices)
  -workers N          parallel campaign workers (default 1; results are
                      byte-identical for any worker count)
  -faults S           fault scenario: a preset (resolver-outage,
                      resolver-blackhole, radio-degraded, resolver-flap,
                      public-dns-storm, authority-outage) or DSL text like
                      "outage:target=local,start=25%,dur=50%,mode=servfail"
                      (deterministic in -seed; see internal/fault)
  -checkpoint-dir D   durable campaign checkpoint directory: completed
                      experiments are fsync'd there (as curtainbin; read
                      one with convert -in D) as the run progresses,
                      and SIGINT/SIGTERM drains in-flight experiments and
                      flushes the checkpoint before exiting
  -checkpoint-every N checkpoint fsync cadence in experiments (default 64)
  -resume             continue the campaign checkpointed in -checkpoint-dir
                      (verified against -seed and the other campaign flags);
                      the result is byte-identical to an uninterrupted run
  -format F           simulate only: output codec, jsonl or binary
                      (default jsonl; binary is the compact curtainbin
                      form, DESIGN.md §15)
  -out PATH           simulate only: output dataset path
  -stats              simulate only: report run time, output bytes per
                      experiment and peak RSS on stderr
  -cpuprofile FILE    simulate, analyze: write a pprof CPU profile of the run
  -memprofile FILE    simulate, analyze: write a pprof allocation profile at exit`)
}

// optionFlags registers the full campaign flag set — campaignFlags'
// dataset-determining flags plus the execution flags — and returns a
// closure resolving them into Options, with the interrupt-to-drain signal
// handler installed when the run is checkpointed.
func optionFlags(fs *flag.FlagSet) func() (cellcurtain.Options, error) {
	campaign := campaignFlags(fs)
	workers := fs.Int("workers", 0, "parallel campaign workers (0 = serial)")
	checkpoint := checkpointFlags(fs,
		"durable checkpoint directory (empty = no checkpointing)",
		"resume the campaign checkpointed in -checkpoint-dir")
	return func() (cellcurtain.Options, error) {
		o, _ := campaign()
		o.Workers = *workers
		checkpoint(&o)
		if o.Resume && o.CheckpointDir == "" {
			return cellcurtain.Options{}, fmt.Errorf("-resume requires -checkpoint-dir")
		}
		if o.CheckpointDir != "" {
			// Workers drain their in-flight experiment and the checkpoint is
			// flushed before the process exits; an abort loses at most the
			// experiments since the last fsync — what -resume recovers from.
			interrupt := make(chan struct{})
			onInterrupt(fmt.Sprintf("curtain: interrupt — draining in-flight experiments and flushing checkpoint %s (again to abort)", o.CheckpointDir),
				func() { close(interrupt) })
			o.Interrupt = interrupt
		}
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
		o, err := opts()
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

// onInterrupt installs the two-stage stop simulate, coordinate and worker
// share: the first SIGINT/SIGTERM prints msg and runs first (the graceful
// drain), a second aborts the process immediately.
func onInterrupt(msg string, first func()) {
	sig := make(chan os.Signal, 2) // one slot per stage, so neither signal is dropped
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, msg)
		first()
		<-sig
		fmt.Fprintln(os.Stderr, "curtain: aborting")
		os.Exit(130)
	}()
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
	out := fs.String("out", "dataset.jsonl", "output dataset path")
	formatName := fs.String("format", "", "output codec: jsonl or binary (default jsonl)")
	runStats := fs.Bool("stats", false, "report run time, output bytes/experiment and peak RSS on stderr")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file when the run ends")
	opts := optionFlags(fs)
	fs.Parse(args)
	f, err := dataset.ParseFormat(*formatName)
	if err != nil {
		return err
	}
	o, err := opts()
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
	fmt.Fprintf(os.Stderr, "curtain: %d experiments from %d clients\n",
		camp.Total(), camp.ClientCount())

	// Experiments stream straight from the campaign into the encoder as
	// the canonical prefix completes: memory stays bounded by the workers'
	// out-of-order window, not the campaign size. Write-to-temp + fsync +
	// rename means a crash (or an interrupt) mid-write can never leave a
	// torn dataset at -out.
	n := 0
	start := time.Now()
	werr := dataset.WriteFileAtomic(*out, func(w io.Writer) error {
		sink, flush := dataset.NewWriter(w, f)
		var sinkErr error
		record := func(e *dataset.Experiment) {
			if sinkErr == nil {
				if err := sink(e); err != nil {
					sinkErr = err
					return
				}
				n++
			}
		}
		if _, err := camp.Run(record); err != nil {
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
	if *runStats && n > 0 {
		// The timer covers run + encode, which stream together, and VmHWM
		// is the whole process — world build included.
		elapsed := time.Since(start)
		size := int64(0)
		if info, err := os.Stat(*out); err == nil {
			size = info.Size()
		}
		fmt.Fprintf(os.Stderr,
			"curtain: simulate stats: clients=%d experiments=%d seconds=%.3f exp_per_sec=%.0f bytes=%d bytes_per_exp=%.1f peak_rss_mb=%.1f\n",
			camp.ClientCount(), n, elapsed.Seconds(), float64(n)/elapsed.Seconds(),
			size, float64(size)/float64(n), float64(peakRSSKB())/1024)
	}
	fmt.Fprintf(os.Stderr, "curtain: wrote %d experiments to %s (%s)\n", n, *out, f)
	return nil
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
