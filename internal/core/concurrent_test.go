package core

import (
	"slices"
	"sync"
	"testing"

	"mtpu/internal/arch"
	"mtpu/internal/arch/pu"
	"mtpu/internal/engine"
	"mtpu/internal/evm"
)

// TestConcurrentReplayMatchesSerial replays one cached trace set from
// many goroutines — across every mode and several PU counts, sharing one
// Accelerator and one prebuilt plan set — and checks each result against
// a serial reference. Run under -race this also proves ReplayWith is
// data-race-free, the property the parallel experiment engine rests on.
func TestConcurrentReplayMatchesSerial(t *testing.T) {
	genesis, block := buildBlock(t, 97, 96, 0.4)
	traces, receipts, digest, err := CollectTraces(genesis, block)
	if err != nil {
		t.Fatal(err)
	}
	acc := New(arch.DefaultConfig())
	acc.LearnHotspots(traces, 8)
	plans := pu.PlainPlans(traces)

	type point struct {
		mode Mode
		pus  int
	}
	var points []point
	for _, m := range allModes {
		for _, pus := range []int{1, 2, 4} {
			points = append(points, point{m, pus})
		}
	}

	// Serial reference first.
	want := make([]uint64, len(points))
	for i, p := range points {
		res, err := acc.ReplayWith(block, traces, receipts, digest, p.mode,
			ReplayOpts{NumPUs: p.pus, Plans: plans})
		if err != nil {
			t.Fatalf("serial %v/%d PUs: %v", p.mode, p.pus, err)
		}
		want[i] = res.Cycles
	}

	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(points))
	for r := 0; r < rounds; r++ {
		for i, p := range points {
			wg.Add(1)
			go func(i int, p point) {
				defer wg.Done()
				res, err := acc.ReplayWith(block, traces, receipts, digest, p.mode,
					ReplayOpts{NumPUs: p.pus, Plans: plans})
				if err != nil {
					errs <- err
					return
				}
				if res.Cycles != want[i] {
					t.Errorf("%v/%d PUs: concurrent cycles %d, serial %d",
						p.mode, p.pus, res.Cycles, want[i])
				}
			}(i, p)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSharedTraceStepsStayReadOnly guards the aliasing plain plans rely
// on: a plain plan's Steps is its trace's Steps, and the same slices are
// read by the Contract-Table learn, the shadow oracle and every
// concurrent replay. Sixteen replays of one plan set race a learn over
// the same traces (on its own Accelerator — learning into a table that
// is being replayed from is excluded by the Accelerator contract); every
// trace must come out byte-equal to a copy taken beforehand, and -race
// must see no write.
func TestSharedTraceStepsStayReadOnly(t *testing.T) {
	genesis, block := buildBlock(t, 96, 96, 0.4)
	traces, receipts, digest, err := CollectTraces(genesis, block)
	if err != nil {
		t.Fatal(err)
	}
	before := make([][]evm.Step, len(traces))
	for i, tr := range traces {
		before[i] = slices.Clone(tr.Steps)
	}
	acc := New(arch.DefaultConfig())
	acc.LearnHotspots(traces, 8)
	plans := pu.PlainPlans(traces)
	for i, p := range plans {
		if len(traces[i].Steps) > 0 && &p.Steps[0] != &traces[i].Steps[0] {
			t.Fatalf("plain plan %d copied its trace's steps", i)
		}
	}

	head := headOf(genesis)
	var wg sync.WaitGroup
	modes := engine.Modes() // all eight, Block-STM (which re-runs plans per incarnation) included
	for r := 0; r < 16; r++ {
		mode := modes[r%len(modes)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := acc.ReplayWith(block, traces, receipts, digest, mode,
				ReplayOpts{NumPUs: 4, Plans: plans, Head: head}); err != nil {
				t.Errorf("%v: %v", mode, err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		New(arch.DefaultConfig()).LearnHotspots(traces, 8)
	}()
	wg.Wait()

	for i, tr := range traces {
		if !slices.Equal(tr.Steps, before[i]) {
			t.Fatalf("trace %d steps changed under concurrent replay and learn", i)
		}
	}
}

// TestReplayOptsPlanLengthMismatch checks the guard on prebuilt plans.
func TestReplayOptsPlanLengthMismatch(t *testing.T) {
	genesis, block := buildBlock(t, 98, 16, 0.2)
	traces, receipts, digest, err := CollectTraces(genesis, block)
	if err != nil {
		t.Fatal(err)
	}
	acc := New(arch.DefaultConfig())
	plans := pu.PlainPlans(traces[:len(traces)-1])
	_, err = acc.ReplayWith(block, traces, receipts, digest, ModeSequentialILP,
		ReplayOpts{Plans: plans})
	if err == nil {
		t.Fatal("want error for mismatched plan count, got nil")
	}
}

// TestReplayWithNumPUsOverride checks the per-call PU override leaves
// the shared config untouched and matches a config-level setting.
func TestReplayWithNumPUsOverride(t *testing.T) {
	genesis, block := buildBlock(t, 99, 64, 0.3)
	traces, receipts, digest, err := CollectTraces(genesis, block)
	if err != nil {
		t.Fatal(err)
	}

	cfg := arch.DefaultConfig()
	cfg.NumPUs = 8
	ref := New(cfg)
	refRes, err := ref.Replay(block, traces, receipts, digest, ModeSpatialTemporal)
	if err != nil {
		t.Fatal(err)
	}

	acc := New(arch.DefaultConfig())
	before := acc.Cfg.NumPUs
	res, err := acc.ReplayWith(block, traces, receipts, digest, ModeSpatialTemporal,
		ReplayOpts{NumPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != refRes.Cycles {
		t.Errorf("override cycles %d, config cycles %d", res.Cycles, refRes.Cycles)
	}
	if acc.Cfg.NumPUs != before {
		t.Errorf("ReplayWith mutated Cfg.NumPUs: %d -> %d", before, acc.Cfg.NumPUs)
	}
}
