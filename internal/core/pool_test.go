package core

import (
	"testing"

	"mtpu/internal/arch"
	"mtpu/internal/engine"
	"mtpu/internal/workload"
)

// TestPooledProcessorReplayIdentical pins the correctness contract of
// the processor pool: replaying the same block repeatedly on one
// Accelerator (each call after the first is served a recycled, Reset
// processor) must produce results identical to the first, fresh-built
// run — for every registered engine.
func TestPooledProcessorReplayIdentical(t *testing.T) {
	g := workload.NewGenerator(41, 512)
	genesis := g.Genesis()
	block := g.TokenBlock(48, 0.4)
	if _, err := workload.BuildDAG(genesis, block); err != nil {
		t.Fatal(err)
	}
	traces, receipts, digest, err := CollectTraces(genesis, block)
	if err != nil {
		t.Fatal(err)
	}

	acc := New(arch.DefaultConfig())
	opts := ReplayOpts{Head: headOf(genesis)}
	for _, m := range engine.Modes() {
		first, err := acc.ReplayWith(block, traces, receipts, digest, m, opts)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		for run := 1; run < 4; run++ {
			res, err := acc.ReplayWith(block, traces, receipts, digest, m, opts)
			if err != nil {
				t.Fatalf("%s run %d: %v", m, run, err)
			}
			if res.Cycles != first.Cycles || res.Pipeline != first.Pipeline ||
				res.Utilization != first.Utilization {
				t.Fatalf("%s run %d diverged from fresh run:\nfresh  cycles=%d %+v\npooled cycles=%d %+v",
					m, run, first.Cycles, first.Pipeline, res.Cycles, res.Pipeline)
			}
		}
	}
}

// TestPoolSkipsMismatchedConfig checks a recycled processor is only
// reused when its configuration matches exactly; alternating PU counts
// must never bleed state or config between calls.
func TestPoolSkipsMismatchedConfig(t *testing.T) {
	g := workload.NewGenerator(42, 512)
	genesis := g.Genesis()
	block := g.TokenBlock(32, 0.3)
	if _, err := workload.BuildDAG(genesis, block); err != nil {
		t.Fatal(err)
	}
	traces, receipts, digest, err := CollectTraces(genesis, block)
	if err != nil {
		t.Fatal(err)
	}

	acc := New(arch.DefaultConfig())
	ref := map[int]uint64{}
	for _, pus := range []int{2, 8, 2, 8, 2} {
		res, err := acc.ReplayWith(block, traces, receipts, digest,
			ModeSpatialTemporal, ReplayOpts{NumPUs: pus})
		if err != nil {
			t.Fatal(err)
		}
		if want, ok := ref[pus]; ok && res.Cycles != want {
			t.Fatalf("%d PUs: cycles %d, first run said %d", pus, res.Cycles, want)
		}
		ref[pus] = res.Cycles
	}
}
