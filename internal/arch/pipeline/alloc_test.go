package pipeline_test

import (
	"runtime"
	"testing"
	"unsafe"

	"mtpu/internal/arch"
	"mtpu/internal/arch/pipeline"
	"mtpu/internal/arch/pu"
	"mtpu/internal/core"
	"mtpu/internal/evm"
	"mtpu/internal/workload"
)

// allocFixture builds a warmed pipeline, PU and plan set: one pass over
// the plans fills the DB cache, so the measured replay below runs the
// pure hit path.
func allocFixture(t testing.TB) (*pipeline.Pipeline, *pu.PU, []*pu.Plan, pipeline.MemModel) {
	g := workload.NewGenerator(303, 1024)
	genesis := g.Genesis()
	block := g.Batch(g.Contract("TetherUSD"), 16)
	traces, _, _, err := core.CollectTraces(genesis, block)
	if err != nil {
		t.Fatal(err)
	}
	plans := pu.PlainPlans(traces)

	cfg := arch.DefaultConfig() // ReuseContext on: state survives across txs
	pipe := pipeline.New(cfg)
	unit := pu.New(0, cfg)
	// Box the memory model once; passing a freshly-composed interface
	// value inside the measured loop would itself allocate.
	var mem pipeline.MemModel = pipeline.FlatMem{Cfg: cfg}

	for _, p := range plans {
		pipe.Execute(p.Steps, p.Ann, p.Hot, mem)
		unit.Run(p, mem)
	}
	return pipe, unit, plans, mem
}

// TestPipelineExecuteWarmZeroAllocs is the zero-overhead guard of the
// instrumentation layer: with no sink attached, a warm (all-hit) replay
// of the pipeline hot path must not allocate at all.
func TestPipelineExecuteWarmZeroAllocs(t *testing.T) {
	pipe, _, plans, mem := allocFixture(t)
	avg := testing.AllocsPerRun(20, func() {
		for _, p := range plans {
			pipe.Execute(p.Steps, p.Ann, p.Hot, mem)
		}
	})
	if avg != 0 {
		t.Errorf("warm Execute allocates %.1f objects per replay, want 0", avg)
	}
}

// TestPURunWarmZeroAllocs extends the guard one layer up: the whole
// PU.Run path (context residency, load accounting, pipeline) stays
// allocation-free on a warm replay with instrumentation disabled.
func TestPURunWarmZeroAllocs(t *testing.T) {
	_, unit, plans, mem := allocFixture(t)
	avg := testing.AllocsPerRun(20, func() {
		for _, p := range plans {
			unit.Run(p, mem)
		}
	})
	if avg != 0 {
		t.Errorf("warm PU.Run allocates %.1f objects per replay, want 0", avg)
	}
}

// TestPlainPlansAllocateNoStepCopy guards what the block-stream service
// pays per block for a plain engine's plans: a fixed handful of objects
// per transaction (the plan and its hot image), and nowhere near the
// bytes of the hot image plus one copy of the block's steps — plain
// plans share their traces' steps.
func TestPlainPlansAllocateNoStepCopy(t *testing.T) {
	src, err := workload.Spec{Kind: "erc20-mix", Blocks: 1, Txs: 192, Skew: 1.2, Seed: 1, Accounts: 256}.OpenSource()
	if err != nil {
		t.Fatal(err)
	}
	block, _ := src.Next()
	traces, _, _, err := core.CollectTraces(src.Genesis(), block)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for _, tr := range traces {
		steps += len(tr.Steps)
	}

	var plans []*pu.Plan
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plans = pu.PlainPlans(traces)
	runtime.ReadMemStats(&m1)
	if len(plans) != len(traces) {
		t.Fatalf("%d plans for %d traces", len(plans), len(traces))
	}
	stepBytes := uint64(steps) * uint64(unsafe.Sizeof(evm.Step{}))
	// The hot image per step: HotStep, GasPrefix, NextStall, Words and
	// KeySum entries.
	hotBytes := uint64(steps) * uint64(unsafe.Sizeof(pipeline.HotStep{})+8+4+4+8)
	if got := m1.TotalAlloc - m0.TotalAlloc; got > hotBytes+stepBytes/2 {
		t.Errorf("PlainPlans allocated %d bytes; the hot image of the block's %d steps is %d, one copy of them %d",
			got, steps, hotBytes, stepBytes)
	}
	perRun := testing.AllocsPerRun(5, func() { plans = pu.PlainPlans(traces) })
	if limit := float64(8*len(traces) + 1); perRun > limit {
		t.Errorf("PlainPlans made %.0f allocations for %d transactions, want at most %.0f", perRun, len(traces), limit)
	}
}
