package experiments

import (
	"slices"
	"sync"
	"testing"

	"mtpu/internal/core"
)

// One shared environment: experiments are deterministic, so building it
// once keeps the suite fast.
var testEnv = NewEnv(DefaultSeed)

func TestTable2Shape(t *testing.T) {
	rows := Table2(testEnv)
	if len(rows) != len(Table2Cases) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.BytecodeBytes <= 0 || r.OtherBytes <= 0 {
			t.Errorf("%s.%s: sizes %d/%d", r.Contract, r.Function, r.BytecodeBytes, r.OtherBytes)
		}
		// The paper's claim: bytecode dominates the loaded context.
		if r.BytecodeShare < 0.5 {
			t.Errorf("%s.%s: bytecode share %.2f below half", r.Contract, r.Function, r.BytecodeShare)
		}
	}
	if out := RenderTable2(rows); len(out) == 0 {
		t.Error("empty rendering")
	}
}

func TestTable6Shape(t *testing.T) {
	rows := Table6(testEnv)
	if len(rows) != len(Top8Names) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		var sum float64
		var maxIdx int
		for u, s := range r.Shares {
			sum += s
			if s > r.Shares[maxIdx] {
				maxIdx = u
			}
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: shares sum %.4f", r.Contract, sum)
		}
		// Stack instructions dominate every contract (the paper: ~62%).
		if maxIdx != 8 /* FUStack */ {
			t.Errorf("%s: dominant unit %d, want Stack", r.Contract, maxIdx)
		}
		if r.Shares[8] < 0.4 {
			t.Errorf("%s: stack share %.2f", r.Contract, r.Shares[8])
		}
	}
}

func TestFig12Shape(t *testing.T) {
	rows := Fig12(testEnv)
	if len(rows) != len(Top8Names) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Each optimization must not regress IPC or speedup.
		if !(r.IPC[0] < r.IPC[1] && r.IPC[1] < r.IPC[2]) {
			t.Errorf("%s: IPC not monotone: %v", r.Contract, r.IPC)
		}
		if !(r.Speedup[0] <= r.Speedup[1] && r.Speedup[1] <= r.Speedup[2]) {
			t.Errorf("%s: speedup not monotone: %v", r.Contract, r.Speedup)
		}
		if r.IPC[2] < 1.5 {
			t.Errorf("%s: +IF IPC %.2f too low", r.Contract, r.IPC[2])
		}
		if r.Speedup[2] < 1.1 {
			t.Errorf("%s: +IF speedup %.2f", r.Contract, r.Speedup[2])
		}
		for v, h := range r.HitRatio {
			if h < 0.4 || h > 1 {
				t.Errorf("%s: variant %d hit ratio %.2f", r.Contract, v, h)
			}
		}
	}
}

func TestFig13Shape(t *testing.T) {
	rows := Fig13(testEnv)
	for _, r := range rows {
		// Monotone non-decreasing in cache size, saturating high.
		for i := 1; i < len(r.HitRatios); i++ {
			if r.HitRatios[i] < r.HitRatios[i-1]-0.02 {
				t.Errorf("%s: hit ratio fell at size %d: %v", r.Contract, Fig13Sizes[i], r.HitRatios)
			}
		}
		last := r.HitRatios[len(r.HitRatios)-1]
		if last < 0.8 {
			t.Errorf("%s: saturated hit ratio %.2f", r.Contract, last)
		}
		if r.HitRatios[0] > last-0.1 {
			t.Errorf("%s: no capacity effect visible: %v", r.Contract, r.HitRatios)
		}
	}
}

func TestTable7Shape(t *testing.T) {
	rows := Table7(testEnv)
	for _, r := range rows {
		// The finite cache can only lose against the upper limit.
		if r.At2KIPC > r.UpperIPC+0.01 {
			t.Errorf("%s: 2K IPC above upper limit", r.Contract)
		}
		if r.At2KSpeedup > r.UpperSpeedup+0.01 {
			t.Errorf("%s: 2K speedup above upper limit", r.Contract)
		}
		if r.IPCDelta > 0.01 || r.SpeedupDelta > 0.01 {
			t.Errorf("%s: positive deltas %f %f", r.Contract, r.IPCDelta, r.SpeedupDelta)
		}
	}
}

// The shape tests of Figs. 14-16 and of the two software baselines share
// one reduced scheduling grid, swept once.
var (
	gridRatios = []float64{0, 0.2, 1.0}
	gridPUs    = []int{2, 4}
	testGrid   = sync.OnceValue(func() []SchedPoint { return SchedulingSweep(testEnv, gridPUs, gridRatios) })
)

// gridPoint returns the reduced grid's point at one dep ratio and PU count.
func gridPoint(t *testing.T, ratio float64, n int) SchedPoint {
	t.Helper()
	for _, p := range testGrid() {
		if p.TargetRatio == ratio && p.PUs == n {
			return p
		}
	}
	t.Fatalf("missing point dep %.1f pus %d", ratio, n)
	return SchedPoint{}
}

// onBaselineGrid reports whether Block-STM and BSE replayed at p.
func onBaselineGrid(p SchedPoint) bool {
	return slices.Contains(BaselineDepRatios, p.TargetRatio) && slices.Contains(BaselinePUCounts, p.PUs)
}

func TestSchedulingSweepShape(t *testing.T) {
	pts := testGrid()
	if len(pts) != len(gridRatios)*len(gridPUs) {
		t.Fatalf("%d points, want %d", len(pts), len(gridRatios)*len(gridPUs))
	}
	for _, p := range pts {
		want := len(gridEngines)
		if onBaselineGrid(p) {
			want += len(baselineEngines)
		}
		if len(p.Cells) != want {
			t.Errorf("ratio %.1f pus %d: %d cells, want %d", p.TargetRatio, p.PUs, len(p.Cells), want)
		}
		if p.Txs != SchedBlockSize || p.SeqCycles == 0 {
			t.Errorf("ratio %.1f pus %d: txs %d seq cycles %d", p.TargetRatio, p.PUs, p.Txs, p.SeqCycles)
		}
		for _, c := range p.Cells {
			if c.Cycles == 0 || c.Speedup <= 0 {
				t.Errorf("ratio %.1f pus %d %s: cycles %d speedup %f", p.TargetRatio, p.PUs, c.Engine, c.Cycles, c.Speedup)
			}
			if c.Utilization <= 0 || c.Utilization > 1.0001 {
				t.Errorf("ratio %.1f pus %d %s: utilization %f out of range", p.TargetRatio, p.PUs, c.Engine, c.Utilization)
			}
		}
	}

	speedup := func(mode core.Mode, ratio float64) float64 { return gridPoint(t, ratio, 4).Cell(mode).Speedup }
	sync0, sync1 := speedup(core.ModeSynchronous, 0), speedup(core.ModeSynchronous, 1.0)
	st0, st1 := speedup(core.ModeSpatialTemporal, 0), speedup(core.ModeSpatialTemporal, 1.0)
	if sync0 < 2.5 {
		t.Errorf("sync speedup at dep=0: %.2f", sync0)
	}
	if !(sync1 < sync0) {
		t.Errorf("sync speedup did not fall with dependence: %.2f vs %.2f", sync1, sync0)
	}
	if st0 < sync0-0.05 {
		t.Errorf("ST below sync at dep=0: %.2f vs %.2f", st0, sync0)
	}
	if !(st1 < st0) {
		t.Errorf("ST speedup did not fall with dependence")
	}
	if RenderSchedPoints("t", pts, core.ModeSTHotspot, "speedup") == "" {
		t.Error("empty rendering")
	}
}

func TestFig16AddsOverFig14(t *testing.T) {
	speedup := func(mode core.Mode) float64 { return gridPoint(t, 0.2, 4).Cell(mode).Speedup }
	st, red, hot := speedup(core.ModeSpatialTemporal), speedup(core.ModeSTRedundancy), speedup(core.ModeSTHotspot)
	if !(st < red && red < hot) {
		t.Errorf("optimization ladder broken: %.2f, %.2f, %.2f", st, red, hot)
	}
}

func TestSTMSweepShape(t *testing.T) {
	for _, p := range testGrid() {
		if !onBaselineGrid(p) {
			if p.STM != nil {
				t.Errorf("ratio %.1f pus %d: STM counters off the baseline sub-grid", p.TargetRatio, p.PUs)
			}
			continue
		}
		// Identical-state assertion already ran inside ReplayWith; here we
		// check the counter invariants survive the sweep plumbing.
		s := p.STM
		if s == nil {
			t.Fatalf("ratio %.1f pus %d: block-stm cell without counters", p.TargetRatio, p.PUs)
		}
		if s.Incarnations-s.Aborts != p.Txs {
			t.Errorf("ratio %.1f pus %d: incarnations %d - aborts %d != txs %d",
				p.TargetRatio, p.PUs, s.Incarnations, s.Aborts, p.Txs)
		}
		if s.Aborts != s.EstimateAborts+s.ValidationFails {
			t.Errorf("ratio %.1f pus %d: aborts %d != estimate %d + validation %d",
				p.TargetRatio, p.PUs, s.Aborts, s.EstimateAborts, s.ValidationFails)
		}
		makespan := p.Cell(core.ModeBlockSTM).Cycles
		if got := s.ExecCycles + s.ValidateCycles + s.IdleCycles; got != uint64(p.PUs)*makespan {
			t.Errorf("ratio %.1f pus %d: cycle terms %d != pus×makespan %d",
				p.TargetRatio, p.PUs, got, uint64(p.PUs)*makespan)
		}
		// With no dependencies the optimistic executor never aborts; fully
		// chained it must.
		if p.TargetRatio == 0 && s.Aborts != 0 {
			t.Errorf("dep-0 pus %d: %d aborts", p.PUs, s.Aborts)
		}
		if p.TargetRatio == 1.0 && p.PUs >= 4 && s.Aborts == 0 {
			t.Errorf("dep-1.0 pus %d: no aborts", p.PUs)
		}
	}
}

func TestBSESweepShape(t *testing.T) {
	pts := testGrid()
	for _, p := range pts {
		if p.Batches < 1 || p.Batches > p.Txs {
			t.Errorf("ratio %.1f pus %d: %d batches for %d txs", p.TargetRatio, p.PUs, p.Batches, p.Txs)
		}
		if !onBaselineGrid(p) {
			continue
		}
		// Barriers cannot beat the dynamic schedulers: batch-execute pays
		// for the slowest PU of every batch, so the work-conserving
		// spatio-temporal schedule is a lower bound on its cycles.
		if bse, st := p.Cell(core.ModeBSE).Cycles, p.Cell(core.ModeSpatialTemporal).Cycles; bse < st {
			t.Errorf("ratio %.1f pus %d: bse %d cycles beat spatial-temporal %d", p.TargetRatio, p.PUs, bse, st)
		}
	}

	// The batch count is a property of the DAG alone: constant across PU
	// counts at one ratio, and monotonically non-decreasing in the ratio.
	for i, r := range gridRatios {
		for _, n := range gridPUs[1:] {
			if a, b := gridPoint(t, r, gridPUs[0]).Batches, gridPoint(t, r, n).Batches; a != b {
				t.Errorf("ratio %.1f: batch count varies with PUs (%d vs %d)", r, a, b)
			}
		}
		if i > 0 && gridPoint(t, gridRatios[i-1], gridPUs[0]).Batches > gridPoint(t, r, gridPUs[0]).Batches {
			t.Errorf("batches fell as dep ratio rose %.1f→%.1f", gridRatios[i-1], r)
		}
	}
	if RenderBaselines(pts) == "" {
		t.Error("empty rendering")
	}
}

func TestTable8Shape(t *testing.T) {
	rows := Table8(testEnv)
	if len(rows) != len(ERC20Shares) {
		t.Fatalf("%d rows", len(rows))
	}
	// BPU monotone decreasing as ERC-20 share falls; ~1x at 0%.
	for i := 1; i < len(rows); i++ {
		if rows[i].BPUSpeedup > rows[i-1].BPUSpeedup+0.05 {
			t.Errorf("BPU speedup rose: %v", rows)
		}
	}
	if rows[0].BPUSpeedup < 8 {
		t.Errorf("BPU at 100%% ERC-20: %.2f", rows[0].BPUSpeedup)
	}
	last := rows[len(rows)-1]
	if last.BPUSpeedup > 1.2 {
		t.Errorf("BPU at 0%% ERC-20: %.2f", last.BPUSpeedup)
	}
	// MTPU is stable: min within 60% of max (the paper's core claim).
	min, max := rows[0].MTPUSpeedup, rows[0].MTPUSpeedup
	for _, r := range rows {
		if r.MTPUSpeedup < min {
			min = r.MTPUSpeedup
		}
		if r.MTPUSpeedup > max {
			max = r.MTPUSpeedup
		}
		if r.MTPUSpeedup < 1.3 {
			t.Errorf("MTPU speedup %.2f at share %.0f%%", r.MTPUSpeedup, r.ERC20Share*100)
		}
	}
	if min < 0.6*max {
		t.Errorf("MTPU not stable: %.2f..%.2f", min, max)
	}
	// Crossover: MTPU wins at 0% ERC-20, BPU wins at 100%.
	if last.MTPUSpeedup <= last.BPUSpeedup {
		t.Error("MTPU should beat BPU on non-ERC20 blocks")
	}
	if rows[0].BPUSpeedup <= rows[0].MTPUSpeedup {
		t.Error("BPU should beat single-core MTPU on pure ERC-20 blocks")
	}
}

func TestTable9Shape(t *testing.T) {
	rows := Table9(testEnv)
	if len(rows) != len(Table9Ratios) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Fine-grained scheduling beats block-level parallelism everywhere.
		if r.MTPUSpeedup <= r.BPUSpeedup {
			t.Errorf("MTPU %.2f <= BPU %.2f at ratio %.0f%%",
				r.MTPUSpeedup, r.BPUSpeedup, r.DepRatio*100)
		}
	}
	// Both improve as dependence falls (first row is 100%, last is 0%).
	first, last := rows[0], rows[len(rows)-1]
	if last.BPUSpeedup <= first.BPUSpeedup {
		t.Errorf("BPU did not improve with independence: %.2f vs %.2f",
			first.BPUSpeedup, last.BPUSpeedup)
	}
	if last.MTPUSpeedup <= first.MTPUSpeedup {
		t.Errorf("MTPU did not improve with independence: %.2f vs %.2f",
			first.MTPUSpeedup, last.MTPUSpeedup)
	}
}

func TestChunkingShape(t *testing.T) {
	rows := Chunking(testEnv)
	if len(rows) < 30 {
		t.Fatalf("only %d chunking rows", len(rows))
	}
	foundTransfer := false
	for _, r := range rows {
		if r.LoadFraction <= 0 || r.LoadFraction > 1 {
			t.Errorf("%s.%s: load fraction %f", r.Contract, r.Function, r.LoadFraction)
		}
		if r.SkippedFraction < 0 || r.SkippedFraction >= 1 {
			t.Errorf("%s.%s: skipped fraction %f", r.Contract, r.Function, r.SkippedFraction)
		}
		if r.Contract == "TetherUSD" && r.Function == "transfer" {
			foundTransfer = true
			// The §3.4.2 headline: a small fraction of bytecode loads.
			if r.LoadFraction > 0.35 {
				t.Errorf("Tether transfer loads %.1f%% of bytecode", 100*r.LoadFraction)
			}
			if r.PreExecSteps == 0 {
				t.Error("Tether transfer has no pre-executed chunk")
			}
			if r.TotalSLOADs > 0 && r.PrefetchedSLOADs != r.TotalSLOADs {
				t.Errorf("Tether transfer prefetch %d/%d", r.PrefetchedSLOADs, r.TotalSLOADs)
			}
		}
	}
	if !foundTransfer {
		t.Fatal("no TetherUSD.transfer row")
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	if RenderFig12(Fig12(testEnv)) == "" ||
		RenderFig13(Fig13(testEnv)) == "" ||
		RenderTable7(Table7(testEnv)) == "" ||
		RenderTable6(Table6(testEnv)) == "" ||
		RenderChunking(Chunking(testEnv)) == "" {
		t.Fatal("renderer produced empty output")
	}
}

func TestTable1Shape(t *testing.T) {
	rows := Table1(testEnv)
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		// SCTs always cost disproportionately more than their count share.
		if r.OverheadShare <= r.SCTShare {
			t.Errorf("%s: overhead %.2f <= share %.2f", r.Year, r.OverheadShare, r.SCTShare)
		}
		if i > 0 && r.SCTShare > rows[i-1].SCTShare &&
			r.OverheadShare < rows[i-1].OverheadShare-0.01 {
			t.Errorf("overhead fell while share rose at %s", r.Year)
		}
	}
	// The 2021 point: ~68% of transactions cause the vast majority of
	// execution time (paper: 90.81%).
	last := rows[len(rows)-1]
	if last.OverheadShare < 0.8 {
		t.Errorf("2021 overhead share %.2f too low", last.OverheadShare)
	}
	if RenderTable1(rows) == "" {
		t.Error("empty rendering")
	}
}
