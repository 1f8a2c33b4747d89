// Distributed campaign execution: the coordinate and worker subcommands
// split a campaign across processes (and machines) while keeping the
// merged dataset byte-identical to a serial run. See DESIGN.md §14 and
// internal/controlplane for the protocol and the exactly-once argument.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"cellcurtain"
	"cellcurtain/internal/controlplane"
	"cellcurtain/internal/dataset"
	"cellcurtain/internal/fault"
	"cellcurtain/internal/sigdrain"
	"cellcurtain/internal/trace"
)

// campaignFlags registers the dataset-determining campaign flags every
// campaign subcommand shares, returning a closure that resolves them into
// Options and reports whether any of them was given explicitly (what
// turns a worker's flags into a fingerprint claim). Execution flags
// (workers, checkpoints) are deliberately per subcommand — they never
// affect the dataset.
func campaignFlags(fs *flag.FlagSet) func() (o cellcurtain.Options, set bool) {
	var o cellcurtain.Options
	own := map[string]bool{}
	name := func(n string) string { own[n] = true; return n }
	fs.Uint64Var(&o.Seed, name("seed"), 2014, "RNG seed")
	fs.IntVar(&o.Days, name("days"), 0, "campaign days (0 = full five months)")
	fs.IntVar(&o.IntervalHours, name("interval-hours"), 0, "experiment period in hours (0 = 12)")
	fs.Float64Var(&o.ClientScale, name("scale"), 0, "client population scale (0 = 1.0, the paper's 158 devices)")
	fs.StringVar(&o.Faults, name("faults"), "", "fault scenario, deterministic in -seed: a preset ("+strings.Join(fault.PresetNames(), ", ")+
		") or DSL text like \"outage:target=local,start=25%,dur=50%,mode=servfail\" (see internal/fault)")
	return func() (cellcurtain.Options, bool) {
		set := false
		fs.Visit(func(f *flag.Flag) { set = set || own[f.Name] })
		return o, set
	}
}

// listenNetwork picks tcp vs unix from the address shape: anything with
// a path separator is a socket path.
func listenNetwork(addr string) string {
	if strings.Contains(addr, "/") {
		return "unix"
	}
	return "tcp"
}

func runCoordinate(args []string) error {
	fs := flag.NewFlagSet("coordinate", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:9290", "address workers connect to (host:port, or a unix socket path)")
	out := fs.String("out", "dataset.bin", "output path for the merged dataset")
	formatName := fs.String("format", string(dataset.FormatBinary), "merged output codec: binary or jsonl; the checkpoint segment is always curtainbin")
	checkpoint := checkpointFlags(fs,
		"durable segment directory (required; the exactly-once merge substrate that worker crashes and coordinator restarts recover from)",
		"adopt the checkpoint in -checkpoint-dir and lease only the missing experiments")
	leaseSize := fs.Int("lease", 64, "experiments per leased range (smaller = finer crash re-run granularity)")
	leaseTimeout := fs.Duration("lease-timeout", 10*time.Second, "reassign a lease after this long without a heartbeat")
	opts := campaignFlags(fs)
	fs.Parse(args)
	o, _ := opts()
	checkpoint(&o)
	if o.CheckpointDir == "" {
		return fmt.Errorf("coordinate requires -checkpoint-dir (durable segments are what make worker crashes harmless)")
	}
	format, err := dataset.ParseFormat(*formatName)
	if err != nil {
		return err
	}

	cfg := o.CampaignConfig()
	fmt.Fprintln(os.Stderr, "curtain: coordinator building world to size the campaign...")
	camp, err := trace.New(cfg)
	if err != nil {
		return err
	}
	total := camp.Total()
	hash := cfg.Hash()
	ck, prior, torn, err := camp.AdoptCheckpoint()
	if err != nil {
		//lint:ignore errwrap AdoptCheckpoint errors already name the checkpoint and what is wrong with it
		return err
	}
	defer ck.Close()
	if torn > 0 {
		fmt.Fprintf(os.Stderr, "curtain: discarded %d bytes of torn segment tail\n", torn)
	}

	coord := controlplane.NewCoordinator(controlplane.CoordinatorConfig{
		Seed: cfg.Seed, ConfigHash: hash, Total: total,
		Wire:      controlplane.WireFromConfig(cfg),
		LeaseSize: *leaseSize, LeaseTimeout: *leaseTimeout,
		Checkpoint: ck, Prior: prior,
		Logf: func(format string, a ...any) { fmt.Fprintf(os.Stderr, "curtain: "+format+"\n", a...) },
	})
	ln, err := net.Listen(listenNetwork(*listen), *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "curtain: coordinating %d experiments (hash %s) on %s; %d already durable\n",
		total, hash, ln.Addr(), len(prior))
	coord.Start(ln)

	sigdrain.OnInterrupt("curtain", fmt.Sprintf("curtain: interrupt — flushing checkpoint %s and stopping (again to abort)", o.CheckpointDir),
		os.Stdout, coord.Interrupt, func() any { return coord.Status() })

	ds, st, err := coord.Wait()
	if err == nil || errors.Is(err, controlplane.ErrInterrupted) {
		// The drain report, the line SIGUSR1 prints live: lease traffic,
		// exactly-once merge dedup counts and grant-to-merge latency
		// quantiles, one JSON line on stdout.
		if jerr := json.NewEncoder(os.Stdout).Encode(st); jerr != nil {
			return jerr
		}
	}
	if err != nil {
		if errors.Is(err, controlplane.ErrInterrupted) {
			fmt.Fprintf(os.Stderr, "curtain: %v\ncurtain: resume with: curtain coordinate -resume %s\n",
				err, flagEcho(fs))
		}
		//lint:ignore errwrap coordinator errors are already fully contextualized
		return err
	}
	if err := dataset.WriteFileAtomic(*out, func(w io.Writer) error {
		return ds.Write(w, format)
	}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "curtain: wrote %d experiments to %s\n", st.Completed, *out)
	return nil
}

func runWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9290", "coordinator address (host:port, or a unix socket path)")
	id := fs.String("id", "", "worker name in coordinator logs (default worker-<pid>)")
	heartbeat := fs.Duration("heartbeat", 2*time.Second, "lease heartbeat interval (keep well under the coordinator's -lease-timeout)")
	opts := campaignFlags(fs)
	fs.Parse(args)

	// A worker normally runs config-free and adopts whatever the
	// coordinator pushes. Campaign flags, when given explicitly, become a
	// fingerprint claim the coordinator verifies — a worker pointed at
	// the wrong campaign is rejected at handshake instead of computing a
	// spliced dataset.
	claim := ""
	if o, claimed := opts(); claimed {
		claim = o.CampaignConfig().Hash()
	}
	name := *id
	if name == "" {
		name = fmt.Sprintf("worker-%d", os.Getpid())
	}

	// First SIGINT/SIGTERM drains: finish and deliver the running range,
	// then leave. A second signal aborts — the coordinator reassigns the
	// abandoned lease the moment the socket dies.
	interrupt := make(chan struct{})
	sigdrain.OnInterrupt("curtain", "curtain: interrupt — finishing the current range, then leaving (again to abort)",
		os.Stdout, func() { close(interrupt) }, nil)

	st, err := controlplane.RunWorker(controlplane.WorkerConfig{
		ID: name, Addr: *addr, ConfigHash: claim,
		HeartbeatEvery: *heartbeat,
		Interrupt:      interrupt,
		Build: func(wc controlplane.WireConfig, total int) (controlplane.RunRange, error) {
			fmt.Fprintf(os.Stderr, "curtain: %s building world (seed %d)...\n", name, wc.Seed)
			// Single shard, no checkpoint: durability lives with the
			// coordinator, workers only run experiments.
			camp, err := trace.New(trace.Config{Spec: wc})
			if err != nil {
				return nil, err
			}
			if camp.Total() != total {
				return nil, fmt.Errorf("local campaign sizes to %d experiments, coordinator says %d (world build not deterministic?)", camp.Total(), total)
			}
			return controlplane.CampaignRunner(camp.RunSeq), nil
		},
		Logf: func(format string, a ...any) { fmt.Fprintf(os.Stderr, "curtain: "+format+"\n", a...) },
	})
	if err != nil {
		//lint:ignore errwrap worker errors are already fully contextualized
		return err
	}
	outcome := "campaign complete"
	if st.Drained {
		outcome = "drained on interrupt"
	}
	fmt.Fprintf(os.Stderr, "curtain: %s done (%s)\n", name, outcome)
	return json.NewEncoder(os.Stdout).Encode(st)
}
