package dataset_test

// An external test package: real campaign experiments come from
// internal/trace, which imports internal/dataset.

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"cellcurtain/internal/dataset"
	"cellcurtain/internal/raceflag"
	"cellcurtain/internal/trace"
)

// paperBatch runs the first n experiments of the seed-2014 paper campaign.
func paperBatch(t *testing.T, n int) []*dataset.Experiment {
	t.Helper()
	camp, err := trace.New(trace.DefaultConfig(2014))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]*dataset.Experiment, 0, n)
	for seq := 1; seq <= n; seq++ {
		e, err := camp.RunSeq(seq)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, e)
	}
	return batch
}

// TestScanAllocBudget gates the decode path where it is used: a Scan of
// 640 paper-campaign records (a full 512-record segment and a short one)
// may cost 8 allocations per record. Measured 1.9: the segment's table
// strings — a client id per record here — and a slab chunk every few
// records; handing each record its own Experiment and slices cost 70.
//
// The same scan must let go of what it has yielded: the decoder's open
// chunks may keep a handful of records reachable, not hundreds. Live heap
// is read (after a collection) from inside the callback at records 30 and
// 430 of the first segment, by when the scanner's buffers exist; the 400
// records in between decode to ~5 MB and may leave 1 MB behind.
func TestScanAllocBudget(t *testing.T) {
	const (
		records = 640
		budget  = 8
		pinned  = 1 << 20
	)
	if raceflag.Enabled {
		t.Skip("allocation budgets run without -race")
	}
	var bin bytes.Buffer
	if err := (&dataset.Dataset{Experiments: paperBatch(t, records)}).WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	var live [2]uint64
	if err := dataset.Scan(bytes.NewReader(bin.Bytes()), func(e *dataset.Experiment) error {
		if e.Seq == 30 || e.Seq == 430 {
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			live[e.Seq/430] = ms.HeapAlloc
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if live[1] > live[0]+pinned {
		t.Fatalf("live heap grew %d bytes over 400 records the callback dropped, budget %d", live[1]-live[0], pinned)
	}
	got := 0
	perScan := testing.AllocsPerRun(5, func() {
		got = 0
		if err := dataset.Scan(bytes.NewReader(bin.Bytes()), func(*dataset.Experiment) error { got++; return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if got != records {
		t.Fatalf("scan yielded %d records, want %d", got, records)
	}
	perRecord := perScan / records
	t.Logf("%.2f allocations per record (budget %d)", perRecord, budget)
	if perRecord > budget {
		t.Fatalf("Scan costs %.2f allocations per record, budget %d", perRecord, budget)
	}
}

// TestSegmentRoundTripAllocBudget gates what one lease costs to ship:
// MarshalExperiments then UnmarshalExperiments of the first 64 experiments
// of the seed-2014 paper campaign — the coordinator's default lease — once
// the codec state is warm. Nearly all of the bytes are the decoded
// experiments themselves, carved from slab chunks, so the allocations are
// the table strings and the returned slice (measured 15.4 KB and 3.3
// allocations per experiment; 71.0 when each record was allocated piece by
// piece). The budget is there for what used to ride along: a 1 MB reader
// per decode and a fresh compressor per encode put the same round trip at
// 88.7 KB and 88.7 allocations. Raise it only with a ledger entry that
// says why.
func TestSegmentRoundTripAllocBudget(t *testing.T) {
	const (
		lease        = 64
		budgetBytes  = 30 << 10
		budgetAllocs = 12
	)
	if raceflag.Enabled {
		t.Skip("sync.Pool sheds entries at random under -race")
	}
	batch := paperBatch(t, lease)
	roundTrip := func() {
		sealed, err := dataset.MarshalExperiments(batch)
		if err != nil {
			t.Fatal(err)
		}
		back, err := dataset.UnmarshalExperiments(sealed)
		if err != nil || len(back) != lease {
			t.Fatalf("round trip returned %d experiments, %v", len(back), err)
		}
	}
	roundTrip() // warm the pooled codec state

	// The codec state lives in sync.Pools, which a collection empties: with
	// a test-sized heap the collector runs every few round trips and each
	// run would bill a fresh compressor to whichever round came next. So
	// collection is off while measuring, and the figure is the median round
	// — what a coordinator with a working heap pays per lease.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const rounds = 9
	var bytesPer, allocsPer [rounds]float64
	for i := range bytesPer {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		roundTrip()
		runtime.ReadMemStats(&after)
		bytesPer[i] = float64(after.TotalAlloc-before.TotalAlloc) / lease
		allocsPer[i] = float64(after.Mallocs-before.Mallocs) / lease
	}
	sort.Float64s(bytesPer[:])
	sort.Float64s(allocsPer[:])
	gotBytes, gotAllocs := bytesPer[rounds/2], allocsPer[rounds/2]
	t.Logf("%.0f bytes, %.1f allocations per experiment (budget %d, %d)", gotBytes, gotAllocs, budgetBytes, budgetAllocs)
	if gotBytes > budgetBytes || gotAllocs > budgetAllocs {
		t.Fatalf("a %d-record segment round trip costs %.0f bytes and %.1f allocations per experiment, budget %d and %d",
			lease, gotBytes, gotAllocs, budgetBytes, budgetAllocs)
	}
}
