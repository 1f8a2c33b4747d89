package main

import (
	"flag"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cellcurtain"
	"cellcurtain/internal/dataset"
	"cellcurtain/internal/trace"
)

// TestCampaignFlagsReportClaim: a worker's campaign flags become a
// fingerprint claim exactly when one of them is given — even at its
// default value — and never because of a subcommand's own flags.
func TestCampaignFlagsReportClaim(t *testing.T) {
	for _, tc := range []struct {
		args []string
		set  bool
		want cellcurtain.Options
	}{
		{nil, false, cellcurtain.Options{Seed: 2014}},
		{[]string{"-id", "w1"}, false, cellcurtain.Options{Seed: 2014}},
		{[]string{"-seed", "2014"}, true, cellcurtain.Options{Seed: 2014}},
		{[]string{"-id", "w1", "-days", "8", "-scale", "0.5", "-interval-hours", "6", "-faults", "resolver-outage"}, true,
			cellcurtain.Options{Seed: 2014, Days: 8, ClientScale: 0.5, IntervalHours: 6, Faults: "resolver-outage"}},
	} {
		fs := flag.NewFlagSet("worker", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.String("id", "", "a subcommand's own flag")
		opts := campaignFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if o, set := opts(); set != tc.set || o != tc.want {
			t.Errorf("args %v: options %+v set=%v, want %+v set=%v", tc.args, o, set, tc.want, tc.set)
		}
	}
}

// TestCoordinateResumeRefusesOutOfRangeSeq: `coordinate -resume` goes
// through the same adoption routine as `simulate -resume`, so a segment
// record outside the campaign stops it before it listens, instead of
// being dropped from the merge while staying in the checkpoint.
func TestCoordinateResumeRefusesOutOfRangeSeq(t *testing.T) {
	cfg := cellcurtain.Options{Seed: 7, Days: 1, ClientScale: 0.05}.CampaignConfig()
	camp, err := trace.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ck")
	ck, err := dataset.CreateCheckpoint(dir, dataset.Manifest{Seed: cfg.Seed, ConfigHash: cfg.Hash(), Total: camp.Total()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	stray := camp.Total() + 1
	if err := ck.Append(&dataset.Experiment{Seq: stray}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	err = runCoordinate([]string{"-checkpoint-dir", dir, "-resume", "-listen", "127.0.0.1:0",
		"-seed", "7", "-days", "1", "-scale", "0.05", "-out", filepath.Join(t.TempDir(), "out.jsonl")})
	if err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), fmt.Sprintf("seq %d outside", stray)) {
		t.Fatalf("coordinate -resume err = %v, want a refusal naming %s and seq %d", err, dir, stray)
	}
}

// TestFlagEchoReparses: the resume command an interrupted run prints must
// survive being pasted into a shell — booleans, a value with spaces and a
// multi-clause -faults with ';' included. The echo is split by sh itself
// and re-parsed through the same flag set; every value must come back.
func TestFlagEchoReparses(t *testing.T) {
	sh, err := exec.LookPath("sh")
	if err != nil {
		t.Skip("no sh to split the echoed command line")
	}
	build := func() *flag.FlagSet {
		fs := flag.NewFlagSet("coordinate", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.String("listen", "127.0.0.1:9290", "")
		fs.String("out", "dataset.jsonl", "")
		fs.Bool("json", false, "")
		fs.Bool("stats", false, "")
		fs.Int("lease", 64, "")
		fs.Duration("lease-timeout", 10*time.Second, "")
		checkpointFlags(fs, "", "")
		campaignFlags(fs)
		return fs
	}
	args := []string{"-json", "-stats=true", "-resume", "-lease", "16", "-lease-timeout", "1m30s",
		"-listen", "/tmp/coord.sock", "-out", "my data's.jsonl", "-checkpoint-dir", "ck",
		"-seed", "7", "-scale", "0.5",
		"-faults", "latency:target=local,add=200ms;loss:target=google,rate=0.1"}
	orig := build()
	if err := orig.Parse(args); err != nil {
		t.Fatal(err)
	}
	echo := flagEcho(orig)
	split, err := exec.Command(sh, "-c", `printf '%s\n' `+echo).Output()
	if err != nil {
		t.Fatalf("sh refused %q: %v", echo, err)
	}
	again := build()
	if err := again.Parse(strings.Split(strings.TrimSuffix(string(split), "\n"), "\n")); err != nil {
		t.Fatalf("re-parsing %q: %v", echo, err)
	}
	if again.NArg() != 0 {
		t.Fatalf("re-parsing %q left arguments unparsed: %q", echo, again.Args())
	}
	orig.VisitAll(func(f *flag.Flag) {
		want := f.Value.String()
		if f.Name == "resume" {
			want = "false" // the caller re-adds -resume itself
		}
		if got := again.Lookup(f.Name).Value.String(); got != want {
			t.Errorf("echo %q: -%s came back %q, want %q", echo, f.Name, got, want)
		}
	})
}
