package experiments

import (
	"fmt"
	"slices"

	"mtpu/internal/core"
	"mtpu/internal/engine"
	"mtpu/internal/metrics"
	"mtpu/internal/obs"
	"mtpu/internal/workload"
)

// DepRatios is the dependent-transaction-ratio sweep of Figs. 14-16.
var DepRatios = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// SchedPUCounts are the PU counts evaluated in Figs. 14-16.
var SchedPUCounts = []int{1, 2, 4, 8}

// BaselineDepRatios and BaselinePUCounts are the sub-grid at which the
// scheduling sweep also replays the two software baselines, Block-STM
// and batch-schedule-execute. The corners plus two interior points are
// enough to show the crossover against the DAG-driven schedulers.
var (
	BaselineDepRatios = []float64{0, 0.3, 0.6, 1.0}
	BaselinePUCounts  = []int{2, 4, 8}
)

// SchedBlockSize is the transactions per block in the scheduling sweeps.
const SchedBlockSize = 192

// gridEngines are replayed at every grid point (Figs. 14-16);
// baselineEngines are added on the baseline sub-grid.
var (
	gridEngines     = []core.Mode{core.ModeSynchronous, core.ModeSpatialTemporal, core.ModeSTRedundancy, core.ModeSTHotspot}
	baselineEngines = []core.Mode{core.ModeBlockSTM, core.ModeBSE}
)

// SchedCell is one engine's replay at one grid point.
type SchedCell struct {
	Engine      string  `json:"engine"`
	Cycles      uint64  `json:"cycles"`
	Speedup     float64 `json:"speedup"` // vs single-PU sequential (ILP, no reuse)
	Utilization float64 `json:"utilization"`
	HitRatio    float64 `json:"hit_ratio"`
}

// SchedPoint is one (dep ratio, PU count) row of the scheduling grid:
// one cell per engine replayed there, all normalised to the block's
// single-PU sequential-ILP cycles.
type SchedPoint struct {
	TargetRatio float64 `json:"target_ratio"`
	DepRatio    float64 `json:"dep_ratio"` // achieved ratio from the DAG
	PUs         int     `json:"pus"`
	Txs         int     `json:"txs"`
	// Batches is the number of conflict-free batches batch-schedule-execute
	// partitions the DAG into (== its critical path length).
	Batches   int         `json:"batches"`
	SeqCycles uint64      `json:"seq_cycles"`
	Cells     []SchedCell `json:"cells"`
	// STM carries Block-STM's counters where it ran.
	STM *obs.STMStats `json:"stm,omitempty"`
}

// cell returns the row's cell for mode, if the sweep replayed it here.
func (p SchedPoint) cell(mode core.Mode) (SchedCell, bool) {
	for _, c := range p.Cells {
		if c.Engine == mode.String() {
			return c, true
		}
	}
	return SchedCell{}, false
}

// Cell returns the row's cell for mode; it panics when the sweep did
// not replay mode at this point.
func (p SchedPoint) Cell(mode core.Mode) SchedCell {
	c, ok := p.cell(mode)
	if !ok {
		panic(fmt.Sprintf("experiments: no %s cell at dep %.1f on %d PUs", mode, p.TargetRatio, p.PUs))
	}
	return c
}

// SchedulingSweep replays the dependency-ratio × PU-count grid once,
// the source of every scheduling table: each point replays the four
// Fig. 14-16 engines, and on the baseline sub-grid Block-STM and
// batch-schedule-execute as well. The baseline is the sequential
// execution of one PU (ModeSequentialILP), as in Fig. 14. Grid points
// fan out over env.Workers; each point writes only its own output slot,
// so the result is identical to the serial sweep. Block-STM only reads
// the cache's genesis head and prices its write-set over it without
// committing, so concurrent points are safe.
func SchedulingSweep(env *Env, puCounts []int, ratios []float64) []SchedPoint {
	out := make([]SchedPoint, len(ratios)*len(puCounts))
	env.forEachPoint(len(out), func(i int) {
		target, pus := ratios[i/len(puCounts)], puCounts[i%len(puCounts)]
		e := env.cache.Get(workload.Spec{Kind: "token", Txs: SchedBlockSize, Dep: target})
		base := env.seqBaseline(e)
		pt := SchedPoint{
			TargetRatio: target,
			DepRatio:    e.Block.DAG.DependentRatio(),
			PUs:         pus,
			Txs:         len(e.Block.Transactions),
			Batches:     len(engine.BSEBatches(e.Block.DAG)),
			SeqCycles:   base,
		}
		modes := gridEngines
		if slices.Contains(BaselineDepRatios, target) && slices.Contains(BaselinePUCounts, pus) {
			modes = slices.Concat(gridEngines, baselineEngines)
		}
		for _, mode := range modes {
			res := env.replay(e, mode, pus)
			env.record("sched/"+mode.String(), res.Pipeline, res.Cycles)
			pt.Cells = append(pt.Cells, SchedCell{
				Engine:      mode.String(),
				Cycles:      res.Cycles,
				Speedup:     float64(base) / float64(res.Cycles),
				Utilization: res.Utilization,
				HitRatio:    res.Pipeline.HitRatio(),
			})
			if res.STM != nil {
				pt.STM = res.STM
			}
		}
		out[i] = pt
	})
	return out
}

// RenderSchedPoints renders one engine's cells of a SchedulingSweep grid
// (ratio rows × PU columns, in the sweep's ratio-major order); metric
// selects Speedup ("speedup") or Utilization ("util"). It panics on a
// missing cell.
func RenderSchedPoints(title string, points []SchedPoint, mode core.Mode, metric string) string {
	var pus []int
	for _, p := range points {
		if p.TargetRatio != points[0].TargetRatio {
			break
		}
		pus = append(pus, p.PUs)
	}
	headers := []string{"dep ratio"}
	for _, n := range pus {
		headers = append(headers, fmt.Sprintf("%d PU", n))
	}
	t := metrics.NewTable(title, headers...)
	for row := range slices.Chunk(points, len(pus)) {
		cells := []any{fmt.Sprintf("%.1f", row[0].TargetRatio)}
		for _, p := range row {
			c := p.Cell(mode)
			if metric == "util" {
				cells = append(cells, c.Utilization)
			} else {
				cells = append(cells, metrics.X(c.Speedup))
			}
		}
		t.Row(cells...)
	}
	return t.String()
}

// RenderBaselines renders the baseline sub-grid of a SchedulingSweep:
// the two DAG-driven schedulers against Block-STM, with the abort
// counts that explain its gap, and batch-schedule-execute, with the
// batch count that fixes its barrier count.
func RenderBaselines(points []SchedPoint) string {
	t := metrics.NewTable(
		fmt.Sprintf("software baselines — speedup vs 1-PU sequential (%d txs)", SchedBlockSize),
		"dep ratio", "PUs", "batches", "sync", "spatial-temporal", "block-stm", "incarnations", "aborts",
		"batch-schedule-execute")
	for _, p := range points {
		stm, ok := p.cell(core.ModeBlockSTM)
		if !ok {
			continue
		}
		t.Row(fmt.Sprintf("%.1f", p.TargetRatio), p.PUs, p.Batches,
			metrics.X(p.Cell(core.ModeSynchronous).Speedup), metrics.X(p.Cell(core.ModeSpatialTemporal).Speedup),
			metrics.X(stm.Speedup), p.STM.Incarnations, p.STM.Aborts,
			metrics.X(p.Cell(core.ModeBSE).Speedup))
	}
	return t.String()
}
