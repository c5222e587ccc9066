package experiments

import (
	"fmt"

	"mtpu/internal/core"
	"mtpu/internal/metrics"
	"mtpu/internal/obs"
)

// STMDepRatios is the dependency-ratio grid of the optimistic-baseline
// sweep — the corners plus two interior points are enough to show the
// crossover against the DAG-driven schedulers.
var STMDepRatios = []float64{0, 0.3, 0.6, 1.0}

// STMPUCounts are the PU counts evaluated in the optimistic sweep.
var STMPUCounts = []int{2, 4, 8}

// STMPoint is one (dep ratio, PU count) measurement comparing the
// optimistic Block-STM executor against the synchronous and
// spatio-temporal DAG schedulers, all normalised to single-PU
// sequential execution.
type STMPoint struct {
	TargetRatio float64 `json:"target_ratio"`
	DepRatio    float64 `json:"dep_ratio"` // achieved ratio from the DAG
	PUs         int     `json:"pus"`
	Txs         int     `json:"txs"`

	SeqCycles  uint64 `json:"seq_cycles"` // single-PU sequential baseline
	SyncCycles uint64 `json:"sync_cycles"`
	STCycles   uint64 `json:"st_cycles"`
	STMCycles  uint64 `json:"stm_cycles"`

	SyncSpeedup float64 `json:"sync_speedup"`
	STSpeedup   float64 `json:"st_speedup"`
	STMSpeedup  float64 `json:"stm_speedup"`

	Stats obs.STMStats `json:"stm"`
}

// STMSweep measures the optimistic Block-STM baseline against the
// synchronous and spatio-temporal schedulers over the dependency-ratio ×
// PU-count grid. Grid points fan out over env.Workers; each point writes
// only its own output slot, so the result is identical to the serial
// sweep. The STM executor only reads the cache's genesis head and prices
// its write-set over it without committing, so concurrent points are
// safe.
func STMSweep(env *Env) []STMPoint {
	out := make([]STMPoint, len(STMDepRatios)*len(STMPUCounts))
	env.forEachPoint(len(out), func(i int) {
		pi := i % len(STMPUCounts)
		ri := i / len(STMPUCounts)
		target, pus := STMDepRatios[ri], STMPUCounts[pi]

		e := env.cache.Get(tokenSpec(SchedBlockSize, target))
		syncRes := env.replay(e, core.ModeSynchronous, pus)
		stRes := env.replay(e, core.ModeSpatialTemporal, pus)
		stmRes := env.replay(e, core.ModeBlockSTM, pus)
		for _, r := range []*core.Result{syncRes, stRes, stmRes} {
			env.record("stm/"+r.Mode.String(), r.Pipeline, r.Cycles)
		}
		base := env.seqBaseline(e)

		pt := STMPoint{
			TargetRatio: target,
			DepRatio:    e.Block.DAG.DependentRatio(),
			PUs:         pus,
			Txs:         len(e.Block.Transactions),
			SeqCycles:   base,
			SyncCycles:  syncRes.Cycles,
			STCycles:    stRes.Cycles,
			STMCycles:   stmRes.Cycles,
			SyncSpeedup: float64(base) / float64(syncRes.Cycles),
			STSpeedup:   float64(base) / float64(stRes.Cycles),
			STMSpeedup:  float64(base) / float64(stmRes.Cycles),
		}
		if stmRes.STM != nil {
			pt.Stats = *stmRes.STM
		}
		out[i] = pt
	})
	return out
}

// RenderSTM renders the sweep as a ratio × PU grid of speedups, one
// column group per executor, plus the abort counts that explain the
// optimistic executor's gap.
func RenderSTM(points []STMPoint) string {
	t := metrics.NewTable(
		fmt.Sprintf("optimistic baseline — speedup vs 1-PU sequential (%d txs)", SchedBlockSize),
		"dep ratio", "PUs", "sync", "spatial-temporal", "block-stm", "incarnations", "aborts")
	for _, p := range points {
		t.Row(fmt.Sprintf("%.1f", p.TargetRatio), p.PUs,
			metrics.X(p.SyncSpeedup), metrics.X(p.STSpeedup), metrics.X(p.STMSpeedup),
			p.Stats.Incarnations, p.Stats.Aborts)
	}
	return t.String()
}
