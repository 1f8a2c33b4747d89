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
	fs.IntVar(&o.IntervalHours, name("interval-hours"), 0, "experiment period in hours")
	fs.Float64Var(&o.ClientScale, name("scale"), 0, "client population scale")
	fs.StringVar(&o.Faults, name("faults"), "", "fault scenario (preset name or DSL)")
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
	out := fs.String("out", "dataset.jsonl", "output path for the merged dataset")
	formatName := fs.String("format", "", "merged output codec: jsonl or binary (default jsonl)")
	jsonOut := fs.Bool("json", false, "one-line JSON status report on stdout after the drain (for scripts)")
	checkpoint := checkpointFlags(fs,
		"durable segment directory (required; the exactly-once merge substrate)",
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

	onInterrupt(fmt.Sprintf("curtain: interrupt — flushing checkpoint %s and stopping (again to abort)", o.CheckpointDir),
		coord.Interrupt)

	ds, st, err := coord.Wait()
	if *jsonOut && (err == nil || errors.Is(err, controlplane.ErrInterrupted)) {
		// The drain report: lease traffic, exactly-once merge dedup counts
		// and grant-to-merge latency quantiles, one JSON object on stdout.
		if jerr := writeCoordStatus(os.Stdout, st); jerr != nil {
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
	fmt.Fprintf(os.Stderr,
		"curtain: wrote %d experiments to %s (%d reused, %d workers, %d leases granted, %d reassigned, %d released, %d duplicate seqs dropped, %d rejected)\n",
		st.Completed, *out, st.Reused, st.WorkersSeen, st.Granted, st.Reassigned, st.Released, st.DupSeqs, st.Rejected)
	return nil
}

// writeCoordStatus renders the drained coordinator status as one JSON
// line, mirroring loadgen's -json contract: machine-readable fields on
// stdout, human narrative on stderr.
func writeCoordStatus(w io.Writer, st controlplane.Status) error {
	report := struct {
		Total            int     `json:"total"`
		Completed        int     `json:"completed"`
		Reused           int     `json:"reused"`
		Workers          int     `json:"workers"`
		Rejected         int     `json:"rejected"`
		LeasesGranted    int     `json:"leases_granted"`
		LeasesReassigned int     `json:"leases_reassigned"`
		LeasesReleased   int     `json:"leases_released"`
		LeasesServed     int     `json:"leases_served"`
		DupSeqs          int     `json:"dup_seqs"`
		LeaseP50Secs     float64 `json:"lease_p50_secs"`
		LeaseP95Secs     float64 `json:"lease_p95_secs"`
		Interrupted      bool    `json:"interrupted"`
	}{
		Total: st.Total, Completed: st.Completed, Reused: st.Reused,
		Workers: st.WorkersSeen, Rejected: st.Rejected,
		LeasesGranted: st.Granted, LeasesReassigned: st.Reassigned,
		LeasesReleased: st.Released, LeasesServed: st.LeasesServed,
		DupSeqs:      st.DupSeqs,
		LeaseP50Secs: st.LeaseP50Secs, LeaseP95Secs: st.LeaseP95Secs,
		Interrupted: st.Interrupted,
	}
	if err := json.NewEncoder(w).Encode(report); err != nil {
		return fmt.Errorf("encode status report: %w", err)
	}
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
	onInterrupt("curtain: interrupt — finishing the current range, then leaving (again to abort)",
		func() { close(interrupt) })

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
	fmt.Fprintf(os.Stderr, "curtain: %s done (%s): %d ranges, %d experiments, %d dropped as duplicates, %d waits\n",
		name, outcome, st.Ranges, st.Experiments, st.Dups, st.Waits)
	return nil
}
