package stm

import (
	"reflect"
	"sync"
	"testing"

	"mtpu/internal/mvstate"
	"mtpu/internal/obs"
	"mtpu/internal/workload"
)

// TestConcurrentExecutionsDeterministic runs the same block through many
// concurrent executors sharing one frozen genesis — the pattern the
// experiment engine uses — and asserts byte-identical state digests,
// receipts and counters. Under `go test -race` this also proves the
// executor takes only read paths through the shared base state.
func TestConcurrentExecutionsDeterministic(t *testing.T) {
	g := workload.NewGenerator(13, 1024)
	genesis := g.Genesis()
	block := g.TokenBlock(96, 0.6)
	if _, err := workload.BuildDAG(genesis, block); err != nil {
		t.Fatal(err)
	}
	cfg := Config{NumPUs: 4, ScheduleOverhead: 4, ValidateBase: 8, ValidatePerKey: 2}

	head := mvstate.NewStore(genesis, nil).Head()
	const runs = 16
	results := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Execute(block, head, cfg, fixedCost{100})
		}(i)
	}
	wg.Wait()

	ref := results[0]
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	for i := 1; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		r := results[i]
		if r.Digest != ref.Digest {
			t.Fatalf("run %d: digest %s != %s", i, r.Digest, ref.Digest)
		}
		if r.Makespan != ref.Makespan {
			t.Fatalf("run %d: makespan %d != %d", i, r.Makespan, ref.Makespan)
		}
		if r.Stats != ref.Stats {
			t.Fatalf("run %d: stats %+v != %+v", i, r.Stats, ref.Stats)
		}
		if !reflect.DeepEqual(r.Conflicts, ref.Conflicts) {
			t.Fatalf("run %d: conflicts %v != %v", i, r.Conflicts, ref.Conflicts)
		}
		if !reflect.DeepEqual(r.Dispatches, ref.Dispatches) {
			t.Fatalf("run %d: dispatch timeline diverged", i)
		}
		for j, rc := range r.Receipts {
			if rc.GasUsed != ref.Receipts[j].GasUsed || rc.Status != ref.Receipts[j].Status {
				t.Fatalf("run %d: receipt %d diverged", i, j)
			}
		}
	}

	// Counters merge commutatively: summing the per-run stats equals
	// runs × the single-run stats.
	var merged obs.STMStats
	for _, r := range results {
		merged.Add(r.Stats)
	}
	var want obs.STMStats
	for i := 0; i < runs; i++ {
		want.Add(ref.Stats)
	}
	if merged != want {
		t.Fatalf("merged stats %+v != %d× single run %+v", merged, runs, want)
	}
}
