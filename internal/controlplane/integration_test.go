package controlplane

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"cellcurtain/internal/dataset"
	"cellcurtain/internal/trace"
)

// smallConfig is the one-day campaign shape the trace checkpoint tests
// use: two steps over a handful of clients.
func smallConfig(faults string) trace.Config {
	cfg := trace.DefaultConfig(11)
	cfg.ClientScale = 0.05
	cfg.End = cfg.Start.Add(24 * time.Hour)
	cfg.Faults = faults
	return cfg
}

func realCampaign(t *testing.T, cfg trace.Config) *trace.Campaign {
	t.Helper()
	camp, err := trace.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return camp
}

// realWorker wires RunWorker the way cmd/curtain does: build a fresh
// world and campaign from the pushed config, execute leased seqs through
// trace.RunSeq.
func realWorker(t *testing.T, id, addr string) WorkerConfig {
	t.Helper()
	return WorkerConfig{
		ID: id, Addr: addr,
		HeartbeatEvery: 50 * time.Millisecond,
		Build: func(wc WireConfig, total int) (RunRange, error) {
			camp := realCampaign(t, trace.Config{Spec: wc})
			if camp.Total() != total {
				return nil, fmt.Errorf("local campaign sizes to %d, coordinator says %d", camp.Total(), total)
			}
			return CampaignRunner(camp.RunSeq), nil
		},
	}
}

// TestDistributedCampaignByteIdentical is the acceptance scenario at
// package level: a real campaign under a coordinator with one worker
// crashing mid-lease (socket cut, as after SIGKILL) and a replacement
// joining must merge to bytes identical to the serial campaign — in the
// returned dataset and in the checkpoint file — plain and under an
// injected fault scenario.
func TestDistributedCampaignByteIdentical(t *testing.T) {
	for _, faults := range []string{"", "resolver-outage"} {
		name := "plain"
		if faults != "" {
			name = faults
		}
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig(faults)
			serial := jsonl(t, realCampaign(t, cfg).Collect())

			total := realCampaign(t, cfg).Total()
			ck, err := dataset.CreateCheckpoint(t.TempDir(), dataset.Manifest{
				Seed: cfg.Seed, ConfigHash: cfg.Hash(), Total: total,
			}, 2)
			if err != nil {
				t.Fatal(err)
			}
			c, addr := startCoordinator(t, nil, CoordinatorConfig{
				Seed: cfg.Seed, ConfigHash: cfg.Hash(), Total: total,
				Wire: WireFromConfig(cfg), LeaseSize: 3, Checkpoint: ck,
			})

			// The victim takes a lease and its socket dies mid-range.
			victim := dialRaw(t, addr)
			victim.handshake("victim")
			victim.lease()
			victim.conn.Close()

			var wg sync.WaitGroup
			for _, id := range []string{"steady", "replacement"} {
				wg.Add(1)
				go func(id string) {
					defer wg.Done()
					if _, err := RunWorker(realWorker(t, id, addr)); err != nil {
						t.Errorf("worker %s: %v", id, err)
					}
				}(id)
			}
			ds, st, err := c.Wait()
			wg.Wait()
			if err != nil {
				t.Fatalf("Wait: %v", err)
			}
			if cerr := ck.Close(); cerr != nil {
				t.Fatalf("checkpoint close: %v", cerr)
			}
			if st.Released != 1 || st.Completed != total {
				t.Fatalf("status = %+v, want 1 released lease and %d completed", st, total)
			}
			if !bytes.Equal(jsonl(t, ds), serial) {
				t.Fatal("distributed campaign with a killed worker diverges from the serial bytes")
			}
			// The durable merge is the file, not the dataset Wait returns: the
			// workers' segments as they arrived, so in no particular order, but
			// record for record the serial campaign, each exactly once.
			if !bytes.Equal(checkpointJSONL(t, ck.Dir()), serial) {
				t.Fatal("the checkpoint's records are not the serial campaign's, each once")
			}
		})
	}
}

// TestDistributedAblatedCampaign: a counterfactual substrate travels in
// the pushed Spec, so workers rebuild the ablated world, not the paper's,
// and the coordinated campaign merges to the serial bytes of that Spec.
func TestDistributedAblatedCampaign(t *testing.T) {
	cfg := smallConfig("")
	cfg.StablePairing = true
	camp := realCampaign(t, cfg)
	serial := jsonl(t, camp.Collect())
	if paper := jsonl(t, realCampaign(t, smallConfig("")).Collect()); bytes.Equal(paper, serial) {
		t.Fatal("stable pairing produced the paper world's dataset")
	}
	c, addr := startCoordinator(t, nil, CoordinatorConfig{
		Seed: cfg.Seed, Total: camp.Total(),
		Wire: WireFromConfig(cfg), LeaseSize: 3,
	})
	var wg sync.WaitGroup
	for _, id := range []string{"a", "b"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if _, err := RunWorker(realWorker(t, id, addr)); err != nil {
				t.Errorf("worker %s: %v", id, err)
				c.Interrupt() // a refused worker must fail the test, not hang it
			}
		}(id)
	}
	ds, _, err := c.Wait()
	wg.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if !bytes.Equal(jsonl(t, ds), serial) {
		t.Fatal("the coordinated stable-pairing campaign diverges from its serial bytes")
	}
}
