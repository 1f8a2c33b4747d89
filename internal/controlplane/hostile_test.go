package controlplane

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"cellcurtain/internal/dataset"
)

// hostileTotal and hostileLease shape the campaign a hostile segment is
// fed into: seq 1-2 are durable from an honest segment, and the hostile
// one is delivered for the lease of seq 3-4.
const hostileTotal, hostileLease = 4, 2

// hostileMutants derives, from the honest segment of seq 3-4, what a
// hostile or broken worker might send instead: a cut at every offset, a
// seeded set of byte flips, and well-formed streams whose seqs are
// rewritten, duplicated or out of range.
func hostileMutants(rng *rand.Rand, honest []byte, flips int) map[string][]byte {
	out := map[string][]byte{}
	for cut := 0; cut < len(honest); cut++ {
		out[fmt.Sprintf("cut at %d", cut)] = honest[:cut]
	}
	for i := 0; i < flips; i++ {
		b := bytes.Clone(honest)
		pos, mask := rng.Intn(len(b)), byte(1+rng.Intn(255))
		b[pos] ^= mask
		out[fmt.Sprintf("flip %#02x at %d", mask, pos)] = b
	}
	seqLists := [][]int{
		{3, 3}, {4, 3, 4}, {1, 3, 4}, {2, 1}, // duplicated, against the segment or the checkpoint
		{0, 4}, {3, hostileTotal + 1}, {-1}, {1 << 40}, // out of range
	}
	for i := 0; i < 8; i++ { // rewritten: any in-range seqs, any count
		seqs := make([]int, 1+rng.Intn(4))
		for j := range seqs {
			seqs[j] = 1 + rng.Intn(hostileTotal)
		}
		seqLists = append(seqLists, seqs)
	}
	for _, seqs := range seqLists {
		out[fmt.Sprintf("seqs %v", seqs)] = segmentOf(0, seqs...).Records
	}
	return out
}

// TestHostileSegmentIngest is a seeded property test of the merge's trust
// boundary. curtainbin carries no checksum, so a mutated segment may still
// decode; what must hold is that the coordinator either refuses it — and
// then experiments.bin is byte for byte what it was, and a coordinator
// resumed from that checkpoint with an honest worker merges to the serial
// bytes — or the checkpoint holds exactly what UnmarshalExperiments makes
// of the mutated bytes, less the seqs already durable. Bytes that do not
// decode, or that carry a seq outside the campaign, must be refused.
func TestHostileSegmentIngest(t *testing.T) {
	rng := rand.New(rand.NewSource(2014))
	honest := segmentOf(0, 3, 4).Records
	mutants := hostileMutants(rng, honest, 48)
	names := make([]string, 0, len(mutants))
	for name := range mutants {
		names = append(names, name)
	}
	sort.Strings(names)
	refused := 0
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			if hostileIngest(t, mutants[name]) {
				refused++
			}
		})
	}
	if refused == 0 || refused == len(names) {
		t.Fatalf("%d of %d mutants refused: the property was tested on one side only", refused, len(names))
	}
}

// hostileIngest runs one mutant through a fresh coordinator and checks the
// property, reporting whether the mutant was refused.
func hostileIngest(t *testing.T, records []byte) bool {
	ck := testCheckpoint(t, hostileTotal)
	c, addr := startCoordinator(t, newFakeClock(), CoordinatorConfig{Total: hostileTotal, LeaseSize: hostileLease, Checkpoint: ck})
	w := dialRaw(t, addr)
	w.handshake("hostile")
	w.send(segmentFor(w.lease())) // seq 1-2: honest, durable
	w.recv()
	seg := filepath.Join(ck.Dir(), "experiments.bin")
	before, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	w.send(&Message{Type: MsgSegment, Lease: w.lease().Lease, Records: records})
	w.recv()
	w.conn.Close()
	c.Interrupt() // an accepted mutant need not complete the campaign
	_, _, err = c.Wait()
	if err := ck.Close(); err != nil {
		t.Fatalf("close checkpoint: %v", err)
	}
	refused := err != nil && !errors.Is(err, ErrInterrupted)

	exps, decodeErr := dataset.UnmarshalExperiments(records)
	for _, e := range exps {
		if decodeErr == nil && (e.Seq < 1 || e.Seq > hostileTotal) {
			decodeErr = fmt.Errorf("seq %d outside the campaign", e.Seq)
		}
	}
	if decodeErr != nil && !refused {
		t.Fatalf("accepted a segment that must be refused (%v); Wait: %v", decodeErr, err)
	}
	if refused {
		t.Logf("refused: %v", err)
		after, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Fatalf("refused segment changed experiments.bin from %d to %d bytes", len(before), len(after))
		}
		resumeHonestly(t, ck.Dir())
		return true
	}

	want := []*dataset.Experiment{testExp(1), testExp(2)}
	seen := map[int]bool{1: true, 2: true}
	for _, e := range exps {
		if !seen[e.Seq] {
			seen[e.Seq] = true
			want = append(want, e)
		}
	}
	if got := checkpointRecords(t, ck.Dir()); !bytes.Equal(got, sealSorted(t, want)) {
		t.Fatal("checkpoint does not hold what the accepted segment decodes to, each seq once")
	}
	return false
}

// resumeHonestly resumes the campaign from the checkpoint in dir with an
// honest worker and requires the serial bytes, merged and on disk.
func resumeHonestly(t *testing.T, dir string) {
	t.Helper()
	prior := map[int]*dataset.Experiment{}
	ck, _, err := dataset.OpenCheckpoint(dir, 1, func(e *dataset.Experiment) error {
		prior[e.Seq] = e
		return nil
	})
	if err != nil {
		t.Fatalf("reopen checkpoint: %v", err)
	}
	c, addr := startCoordinator(t, newFakeClock(), CoordinatorConfig{
		Total: hostileTotal, LeaseSize: hostileLease, Checkpoint: ck, Prior: prior,
	})
	if _, err := RunWorker(testWorker("honest", addr)); err != nil {
		t.Fatalf("honest worker: %v", err)
	}
	ds, _, err := c.Wait()
	if err != nil {
		t.Fatalf("resumed Wait: %v", err)
	}
	if err := ck.Close(); err != nil {
		t.Fatalf("close checkpoint: %v", err)
	}
	want := serialJSONL(t, hostileTotal)
	if !bytes.Equal(jsonl(t, ds), want) || !bytes.Equal(checkpointJSONL(t, dir), want) {
		t.Fatal("resumed campaign diverges from serial after a refused segment")
	}
}

// checkpointRecords scans every record the checkpoint in dir holds and
// seals them in seq order. Records compare by their curtainbin encoding,
// not JSONL: a flipped float byte may decode to NaN, which JSON cannot
// carry.
func checkpointRecords(t *testing.T, dir string) []byte {
	t.Helper()
	var exps []*dataset.Experiment
	if torn, err := dataset.ScanCheckpoint(dir, func(e *dataset.Experiment) error {
		exps = append(exps, e)
		return nil
	}); err != nil || torn != 0 {
		t.Fatalf("scan checkpoint: %v (%d torn bytes)", err, torn)
	}
	return sealSorted(t, exps)
}

func sealSorted(t *testing.T, exps []*dataset.Experiment) []byte {
	t.Helper()
	sort.SliceStable(exps, func(i, j int) bool { return exps[i].Seq < exps[j].Seq })
	b, err := dataset.MarshalExperiments(exps)
	if err != nil {
		t.Fatalf("seal: %v", err)
	}
	return b
}
