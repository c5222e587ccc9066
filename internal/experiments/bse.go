package experiments

import (
	"fmt"

	"mtpu/internal/core"
	"mtpu/internal/engine"
	"mtpu/internal/metrics"
)

// BSEDepRatios and BSEPUCounts reuse the optimistic sweep's grid so the
// two proof-of-extensibility rows in the report are directly comparable.
var (
	BSEDepRatios = STMDepRatios
	BSEPUCounts  = STMPUCounts
)

// BSEPoint is one (dep ratio, PU count) measurement of the
// batch-schedule-execute engine against the synchronous and
// spatio-temporal schedulers, all normalised to single-PU sequential
// execution. Batches is the number of conflict-free batches the DAG
// partitioned into (== its critical path length).
type BSEPoint struct {
	TargetRatio float64 `json:"target_ratio"`
	DepRatio    float64 `json:"dep_ratio"` // achieved ratio from the DAG
	PUs         int     `json:"pus"`
	Txs         int     `json:"txs"`
	Batches     int     `json:"batches"`

	SeqCycles  uint64 `json:"seq_cycles"` // single-PU sequential baseline
	SyncCycles uint64 `json:"sync_cycles"`
	STCycles   uint64 `json:"st_cycles"`
	BSECycles  uint64 `json:"bse_cycles"`

	SyncSpeedup float64 `json:"sync_speedup"`
	STSpeedup   float64 `json:"st_speedup"`
	BSESpeedup  float64 `json:"bse_speedup"`
}

// BSESweep measures the pre-scheduled batch-execute engine over the same
// dependency-ratio × PU-count grid as the optimistic sweep. Grid points
// fan out over env.Workers; each point writes only its own output slot.
func BSESweep(env *Env) []BSEPoint {
	out := make([]BSEPoint, len(BSEDepRatios)*len(BSEPUCounts))
	env.forEachPoint(len(out), func(i int) {
		pi := i % len(BSEPUCounts)
		ri := i / len(BSEPUCounts)
		target, pus := BSEDepRatios[ri], BSEPUCounts[pi]

		e := env.cache.Get(tokenSpec(SchedBlockSize, target))
		syncRes := env.replay(e, core.ModeSynchronous, pus)
		stRes := env.replay(e, core.ModeSpatialTemporal, pus)
		bseRes := env.replay(e, core.ModeBSE, pus)
		for _, r := range []*core.Result{syncRes, stRes, bseRes} {
			env.record("bse/"+r.Mode.String(), r.Pipeline, r.Cycles)
		}
		base := env.seqBaseline(e)

		out[i] = BSEPoint{
			TargetRatio: target,
			DepRatio:    e.Block.DAG.DependentRatio(),
			PUs:         pus,
			Txs:         len(e.Block.Transactions),
			Batches:     len(engine.BSEBatches(e.Block.DAG)),
			SeqCycles:   base,
			SyncCycles:  syncRes.Cycles,
			STCycles:    stRes.Cycles,
			BSECycles:   bseRes.Cycles,
			SyncSpeedup: float64(base) / float64(syncRes.Cycles),
			STSpeedup:   float64(base) / float64(stRes.Cycles),
			BSESpeedup:  float64(base) / float64(bseRes.Cycles),
		}
	})
	return out
}

// RenderBSE renders the sweep as a ratio × PU grid of speedups with the
// batch count that fixes the engine's barrier count.
func RenderBSE(points []BSEPoint) string {
	t := metrics.NewTable(
		fmt.Sprintf("batch-schedule-execute — speedup vs 1-PU sequential (%d txs)", SchedBlockSize),
		"dep ratio", "PUs", "batches", "sync", "spatial-temporal", "batch-schedule-execute")
	for _, p := range points {
		t.Row(fmt.Sprintf("%.1f", p.TargetRatio), p.PUs, p.Batches,
			metrics.X(p.SyncSpeedup), metrics.X(p.STSpeedup), metrics.X(p.BSESpeedup))
	}
	return t.String()
}
