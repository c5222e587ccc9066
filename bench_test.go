// Package repro hosts the top-level benchmark harness: one testing.B
// benchmark per table and figure of the paper's evaluation (§4), each
// regenerating its artifact on the simulated MTPU and publishing the
// headline numbers via b.ReportMetric. The printable tables themselves
// come from `go run ./cmd/mtpu-bench all`; EXPERIMENTS.md records the
// paper-vs-measured comparison.
package repro

import (
	"fmt"
	"sync"
	"testing"

	"mtpu/internal/arch"
	"mtpu/internal/arch/pipeline"
	"mtpu/internal/arch/pu"
	"mtpu/internal/core"
	"mtpu/internal/experiments"
	"mtpu/internal/mvstate"
	"mtpu/internal/state"
	"mtpu/internal/types"
	"mtpu/internal/workload"
)

var (
	envOnce sync.Once
	env     *experiments.Env
)

func benchEnv() *experiments.Env {
	envOnce.Do(func() { env = experiments.NewEnv(experiments.DefaultSeed) })
	return env
}

// BenchmarkTable1_SCTOverheadShare regenerates the execution-overhead
// row of Table 1 (68% SCTs → ~90% of execution time).
func BenchmarkTable1_SCTOverheadShare(b *testing.B) {
	e := benchEnv()
	var overhead float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(e)
		overhead = rows[len(rows)-1].OverheadShare
	}
	b.ReportMetric(overhead*100, "2021_overhead_%")
}

// BenchmarkTable2_BytecodeShare regenerates Table 2 (bytecode share of
// the loaded execution context).
func BenchmarkTable2_BytecodeShare(b *testing.B) {
	e := benchEnv()
	var share float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(e)
		share = 0
		for _, r := range rows {
			share += r.BytecodeShare
		}
		share /= float64(len(rows))
	}
	b.ReportMetric(share*100, "avg_bytecode_%")
}

// BenchmarkTable6_InstructionMix regenerates Table 6 (instruction
// breakdown by functional unit).
func BenchmarkTable6_InstructionMix(b *testing.B) {
	e := benchEnv()
	var stack float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table6(e)
		stack = 0
		for _, r := range rows {
			stack += r.Shares[8] // FUStack
		}
		stack /= float64(len(rows))
	}
	b.ReportMetric(stack*100, "avg_stack_%")
}

// BenchmarkFig12_ILPUpperBound regenerates Fig. 12 (per-optimization ILP
// upper bound: F&D / +DF / +IF).
func BenchmarkFig12_ILPUpperBound(b *testing.B) {
	e := benchEnv()
	var ipc, spd float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig12(e)
		ipc, spd = 0, 0
		for _, r := range rows {
			ipc += r.IPC[2]
			spd += r.Speedup[2]
		}
		ipc /= float64(len(rows))
		spd /= float64(len(rows))
	}
	b.ReportMetric(ipc, "avg_IPC")
	b.ReportMetric(spd, "avg_speedup_x")
}

// BenchmarkFig13_HitRatioSweep regenerates Fig. 13 (DB-cache hit ratio
// vs cache size).
func BenchmarkFig13_HitRatioSweep(b *testing.B) {
	e := benchEnv()
	var saturated float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig13(e)
		saturated = 0
		for _, r := range rows {
			saturated += r.HitRatios[len(r.HitRatios)-1]
		}
		saturated /= float64(len(rows))
	}
	b.ReportMetric(saturated*100, "saturated_hit_%")
}

// BenchmarkTable7_Finite2KCache regenerates Table 7 (2K-entry DB cache
// vs the upper limit).
func BenchmarkTable7_Finite2KCache(b *testing.B) {
	e := benchEnv()
	var ipc, dspd float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table7(e)
		ipc, dspd = 0, 0
		for _, r := range rows {
			ipc += r.At2KIPC
			dspd += r.SpeedupDelta
		}
		ipc /= float64(len(rows))
		dspd /= float64(len(rows))
	}
	b.ReportMetric(ipc, "avg_2K_IPC")
	b.ReportMetric(dspd*100, "speedup_delta_%")
}

// BenchmarkSchedulingGrid regenerates Figs. 14-16 and the software
// baselines from one reduced grid (4 PUs, dep 0/0.5/1.0): each engine's
// speedup range — Fig. 16(b)'s hotspot engine is the headline result,
// the paper reports 3.53x-16.19x across configurations — and the
// spatio-temporal scheduler's mean utilization (Fig. 15).
func BenchmarkSchedulingGrid(b *testing.B) {
	e := benchEnv()
	var pts []experiments.SchedPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.SchedulingSweep(e, []int{4}, []float64{0, 0.5, 1.0})
	}
	lo, hi := map[string]float64{}, map[string]float64{}
	var util float64
	for _, p := range pts {
		for _, c := range p.Cells {
			if l, ok := lo[c.Engine]; !ok || c.Speedup < l {
				lo[c.Engine] = c.Speedup
			}
			hi[c.Engine] = max(hi[c.Engine], c.Speedup)
		}
		util += p.Cell(core.ModeSpatialTemporal).Utilization
	}
	for name := range lo {
		b.ReportMetric(lo[name], name+"_min_speedup_x")
		b.ReportMetric(hi[name], name+"_max_speedup_x")
	}
	b.ReportMetric(util/float64(len(pts))*100, "st_avg_util_%")
}

// BenchmarkTable8_BPUvsMTPU_SingleCore regenerates Table 8.
func BenchmarkTable8_BPUvsMTPU_SingleCore(b *testing.B) {
	e := benchEnv()
	var bpu100, mtpu0 float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table8(e)
		bpu100 = rows[0].BPUSpeedup
		mtpu0 = rows[len(rows)-1].MTPUSpeedup
	}
	b.ReportMetric(bpu100, "BPU_at_100%_x")
	b.ReportMetric(mtpu0, "MTPU_at_0%_x")
}

// BenchmarkTable9_BPUvsMTPU_QuadCore regenerates Table 9.
func BenchmarkTable9_BPUvsMTPU_QuadCore(b *testing.B) {
	e := benchEnv()
	var bpu0, mtpu0 float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table9(e)
		bpu0 = rows[len(rows)-1].BPUSpeedup
		mtpu0 = rows[len(rows)-1].MTPUSpeedup
	}
	b.ReportMetric(bpu0, "BPU_at_0%dep_x")
	b.ReportMetric(mtpu0, "MTPU_at_0%dep_x")
}

// BenchmarkChunking_HotspotAnalysis regenerates the §3.4.2 bytecode-
// loading report (paper: TetherToken transfer loads 8.2%).
func BenchmarkChunking_HotspotAnalysis(b *testing.B) {
	e := benchEnv()
	var tetherLoad float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Chunking(e)
		for _, r := range rows {
			if r.Contract == "TetherUSD" && r.Function == "transfer" {
				tetherLoad = r.LoadFraction
			}
		}
	}
	b.ReportMetric(tetherLoad*100, "tether_transfer_load_%")
}

// BenchmarkAblations regenerates the design-choice ablation table
// (DESIGN.md's ablation index; not a paper artifact, but the paper's
// design arguments quantified one knob at a time).
func BenchmarkAblations(b *testing.B) {
	e := benchEnv()
	var worst float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Ablations(e)
		worst = 1e18
		for _, r := range rows {
			if r.Speedup < worst {
				worst = r.Speedup
			}
		}
	}
	b.ReportMetric(worst, "worst_knob_speedup_x")
}

// BenchmarkSimulatorThroughput measures raw simulator performance: how
// many transactions per second the full co-designed pipeline (functional
// EVM + timing replay + scheduling) processes on this host.
func BenchmarkSimulatorThroughput(b *testing.B) {
	gen := workload.NewGenerator(1234, 4096)
	genesis := gen.Genesis()
	block := gen.TokenBlock(256, 0.3)
	if _, err := workload.BuildDAG(genesis, block); err != nil {
		b.Fatal(err)
	}
	acc := core.New(arch.DefaultConfig())
	traces, receipts, digest, err := core.CollectTraces(genesis, block)
	if err != nil {
		b.Fatal(err)
	}
	acc.LearnHotspots(traces, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := acc.Replay(block, traces, receipts, digest, core.ModeSTHotspot); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(block.Transactions)*b.N)/b.Elapsed().Seconds(), "tx/s")
}

// BenchmarkFunctionalEVM measures the functional interpreter alone.
func BenchmarkFunctionalEVM(b *testing.B) {
	gen := workload.NewGenerator(1234, 4096)
	genesis := gen.Genesis()
	block := gen.TokenBlock(256, 0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := core.CollectTraces(genesis, block); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(block.Transactions)*b.N)/b.Elapsed().Seconds(), "tx/s")
}

// BenchmarkCollectTracesAllocs tracks the allocation footprint of the
// golden run (the collector appends every step into one chunked slab
// per block, so per-step appends never regrow a per-transaction slice).
// The pre-state copy CollectTraces would make is made with the timer
// stopped, so B/op and allocs/op measure the execution and the
// collector, not the 4096-account state copy.
func BenchmarkCollectTracesAllocs(b *testing.B) {
	gen := workload.NewGenerator(1234, 4096)
	genesis := gen.Genesis()
	block := gen.TokenBlock(64, 0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := genesis.Copy()
		b.StartTimer()
		if _, _, _, err := core.CollectTracesOn(st, block); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineExecuteWarm measures the disabled-sink pipeline hot
// path on a warm (all-hit) replay. The allocation report must read
// 0 allocs/op — the zero-overhead guarantee of the instrumentation
// layer (the alloc_test.go tests enforce it).
func BenchmarkPipelineExecuteWarm(b *testing.B) {
	gen := workload.NewGenerator(1234, 4096)
	genesis := gen.Genesis()
	block := gen.Batch(gen.Contract("TetherUSD"), 16)
	traces, _, _, err := core.CollectTraces(genesis, block)
	if err != nil {
		b.Fatal(err)
	}
	plans := pu.PlainPlans(traces)
	cfg := arch.DefaultConfig()
	pipe := pipeline.New(cfg)
	var mem pipeline.MemModel = pipeline.FlatMem{Cfg: cfg}
	for _, p := range plans { // warm the DB cache
		pipe.Execute(p.Steps, p.Ann, p.Hot, mem)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range plans {
			pipe.Execute(p.Steps, p.Ann, p.Hot, mem)
		}
	}
}

// BenchmarkPURunWarm measures the full PU.Run path (context residency,
// load accounting, pipeline) under the same warm, sink-disabled regime.
func BenchmarkPURunWarm(b *testing.B) {
	gen := workload.NewGenerator(1234, 4096)
	genesis := gen.Genesis()
	block := gen.Batch(gen.Contract("TetherUSD"), 16)
	traces, _, _, err := core.CollectTraces(genesis, block)
	if err != nil {
		b.Fatal(err)
	}
	plans := pu.PlainPlans(traces)
	cfg := arch.DefaultConfig()
	unit := pu.New(0, cfg)
	var mem pipeline.MemModel = pipeline.FlatMem{Cfg: cfg}
	for _, p := range plans {
		unit.Run(p, mem)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range plans {
			unit.Run(p, mem)
		}
	}
}

// bigBlock returns the first blocks of the benchmark's erc20-bigblock
// shape (bench/workloads.go): 192 Zipf-hot erc20-mix transactions over
// 256 accounts, with the genesis they chain from.
func bigBlock(b *testing.B, blocks int) (*state.StateDB, []*types.Block) {
	b.Helper()
	src, err := workload.Spec{Kind: "erc20-mix", Blocks: blocks, Txs: 192, Skew: 1.2, Seed: 1, Accounts: 256}.OpenSource()
	if err != nil {
		b.Fatal(err)
	}
	out := make([]*types.Block, 0, blocks)
	for {
		blk, ok := src.Next()
		if !ok {
			return src.Genesis(), out
		}
		out = append(out, blk)
	}
}

// BenchmarkLearnHotspotsWarm measures the execute stage's Contract-Table
// learn on a block whose execution paths the table already holds — the
// steady state of a stream, where nearly every trace repeats a path.
func BenchmarkLearnHotspotsWarm(b *testing.B) {
	genesis, blocks := bigBlock(b, 2)
	st := genesis.Copy()
	acc := core.New(arch.DefaultConfig())
	var traces []*arch.TxTrace
	for _, blk := range blocks {
		var err error
		if traces, _, _, err = core.CollectTracesOn(st, blk); err != nil {
			b.Fatal(err)
		}
		acc.LearnHotspots(traces, 8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.LearnHotspots(traces, 8)
	}
	analyzed, reused := acc.Table.LearnCounts()
	b.ReportMetric(float64(reused)/float64(analyzed+reused), "reused_ratio")
}

// BenchmarkPrepareBlock192 measures the decode of one 192-transaction
// block: the sequential EVM trace pass plus the conflict-DAG build.
func BenchmarkPrepareBlock192(b *testing.B) {
	genesis, blocks := bigBlock(b, 1)
	head := mvstate.NewStore(genesis, nil).Head()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PrepareBlock(head, blocks[0]); err != nil {
			b.Fatal(err)
		}
	}
	var edges int
	for _, deps := range blocks[0].DAG.Deps {
		edges += len(deps)
	}
	b.ReportMetric(float64(edges)/float64(len(blocks[0].Transactions)), "dag_edges/tx")
}

// replayBench measures one engine's replay of the first erc20-bigblock
// block with its traces collected and the Contract Table learned once:
// each iteration is the plan build, the schedule and the PU simulation
// that the execute stage pays per block.
func replayBench(b *testing.B, mode core.Mode) {
	genesis, blocks := bigBlock(b, 1)
	head := mvstate.NewStore(genesis, nil).Head()
	prep, err := core.PrepareBlock(head, blocks[0])
	if err != nil {
		b.Fatal(err)
	}
	traces, receipts, digest := prep.Traces, prep.Receipts, prep.DigestAt(head, blocks[0].Header.Coinbase)
	acc := core.New(arch.DefaultConfig())
	acc.LearnHotspots(traces, 8)
	b.ReportAllocs()
	b.ResetTimer()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		if res, err = acc.ReplayWith(blocks[0], traces, receipts, digest, mode, core.ReplayOpts{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Cycles)/float64(len(traces)), "sim_cycles/tx")
}

// BenchmarkReplayHotspot192 is the service's default engine:
// spatio-temporal scheduling with redundancy and hotspot plans.
func BenchmarkReplayHotspot192(b *testing.B) { replayBench(b, core.ModeSTHotspot) }

// BenchmarkReplayST192 is the spatio-temporal scheduler over plain plans.
func BenchmarkReplayST192(b *testing.B) { replayBench(b, core.ModeSpatialTemporal) }

// BenchmarkReplayScalar192 is one scalar PU: neither the scheduler nor
// the Contract Table, so it isolates the PU simulation.
func BenchmarkReplayScalar192(b *testing.B) { replayBench(b, core.ModeScalar) }

// digestPools are the account pools of the state-size sweep: token-dep30's
// (210 accounts with the contracts), large-state's and ten times that.
var digestPools = []int{200, 4096, 40960}

// digestWriteSet is one 64-key write-set, the same at every state size:
// the first 64 keys a 32-transaction token block over the smallest pool
// writes (its accounts are in every larger pool), with the block's fees.
func digestWriteSet(b *testing.B) *core.Prepared {
	b.Helper()
	gen := workload.NewGenerator(1, digestPools[0])
	genesis := gen.Genesis()
	prep, err := core.PrepareBlock(mvstate.NewStore(genesis, nil).Head(), gen.TokenBlock(32, 0.3))
	if err != nil {
		b.Fatal(err)
	}
	if len(prep.WriteKeys) < 64 {
		b.Fatalf("token block writes %d keys, want at least 64", len(prep.WriteKeys))
	}
	prep.WriteKeys, prep.WriteVals = prep.WriteKeys[:64], prep.WriteVals[:64]
	return prep
}

// digestSweep runs fn once per state size on a store over that size's
// genesis, naming each run by its account count.
func digestSweep(b *testing.B, fn func(b *testing.B, store *mvstate.Store, prep *core.Prepared)) {
	prep := digestWriteSet(b)
	for _, pool := range digestPools {
		genesis := workload.NewGenerator(1, pool).Genesis()
		store := mvstate.NewStore(genesis, nil)
		b.Run(fmt.Sprintf("accounts=%d", genesis.AccountCount()), func(b *testing.B) {
			b.ReportAllocs()
			fn(b, store, prep)
		})
	}
}

// BenchmarkDigestAt prices the same write-set over heads of 210, 4 111
// and 40 971 accounts: the per-block digest cost of the execute stage.
func BenchmarkDigestAt(b *testing.B) {
	digestSweep(b, func(b *testing.B, store *mvstate.Store, prep *core.Prepared) {
		head := store.Head()
		for i := 0; i < b.N; i++ {
			_ = prep.DigestAt(head, workload.Coinbase)
		}
	})
}

// BenchmarkStoreCommit folds the same write-set into heads of the three
// sizes: the commit stage's per-block fold.
func BenchmarkStoreCommit(b *testing.B) {
	digestSweep(b, func(b *testing.B, store *mvstate.Store, prep *core.Prepared) {
		for i := 0; i < b.N; i++ {
			store.Commit(prep.WriteKeys, prep.WriteVals, workload.Coinbase, &prep.Fees)
		}
	})
}

// BenchmarkDigestFromScratch digests a 4 111-account state from scratch:
// what NewStore pays once per store, and what -verify-chain pays per
// block.
func BenchmarkDigestFromScratch(b *testing.B) {
	genesis := workload.NewGenerator(1, 4096).Genesis()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = genesis.Digest()
	}
}
