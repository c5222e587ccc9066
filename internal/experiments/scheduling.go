package experiments

import (
	"fmt"

	"mtpu/internal/core"
	"mtpu/internal/metrics"
)

// DepRatios is the dependent-transaction-ratio sweep of Figs. 14-16.
var DepRatios = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// SchedPUCounts are the PU counts evaluated in Figs. 14-16.
var SchedPUCounts = []int{1, 2, 4, 8}

// SchedBlockSize is the transactions per block in the scheduling sweeps.
const SchedBlockSize = 192

// SchedPoint is one (mode, dep ratio, PU count) measurement.
type SchedPoint struct {
	Mode        core.Mode
	DepRatio    float64 // achieved ratio from the DAG
	TargetRatio float64
	PUs         int
	Speedup     float64 // vs single-PU sequential (ILP, no reuse)
	Utilization float64
	HitRatio    float64
}

// SchedulingSweep measures the given modes over the dependency-ratio ×
// PU-count grid. The baseline is the sequential execution of one PU
// (ModeSequentialILP), as in Fig. 14. Grid points fan out over
// env.Workers; each point writes only its own output slot, so the
// result is identical to the serial sweep.
func SchedulingSweep(env *Env, modes []core.Mode, puCounts []int, ratios []float64) []SchedPoint {
	out := make([]SchedPoint, len(ratios)*len(modes)*len(puCounts))
	env.forEachPoint(len(out), func(i int) {
		pi := i % len(puCounts)
		mi := (i / len(puCounts)) % len(modes)
		ri := i / (len(puCounts) * len(modes))
		target, mode, pus := ratios[ri], modes[mi], puCounts[pi]

		e := env.cache.Get(tokenSpec(SchedBlockSize, target))
		res := env.replay(e, mode, pus)
		env.record("sched/"+mode.String(), res.Pipeline, res.Cycles)
		out[i] = SchedPoint{
			Mode:        mode,
			DepRatio:    e.Block.DAG.DependentRatio(),
			TargetRatio: target,
			PUs:         pus,
			Speedup:     float64(env.seqBaseline(e)) / float64(res.Cycles),
			Utilization: res.Utilization,
			HitRatio:    res.Pipeline.HitRatio(),
		}
	})
	return out
}

// Fig14 compares synchronous execution against spatio-temporal
// scheduling (no reuse) — Fig. 14(a)/(b).
func Fig14(env *Env) []SchedPoint {
	return SchedulingSweep(env,
		[]core.Mode{core.ModeSynchronous, core.ModeSpatialTemporal},
		SchedPUCounts, DepRatios)
}

// Fig16 adds the redundancy and hotspot optimizations — Fig. 16(a)/(b).
func Fig16(env *Env) []SchedPoint {
	return SchedulingSweep(env,
		[]core.Mode{core.ModeSTRedundancy, core.ModeSTHotspot},
		SchedPUCounts, DepRatios)
}

// RenderSchedPoints renders one mode's speedup grid (ratio rows × PU
// columns); metric selects Speedup ("speedup") or Utilization ("util").
func RenderSchedPoints(title string, points []SchedPoint, mode core.Mode, metric string) string {
	headers := []string{"dep ratio"}
	for _, p := range SchedPUCounts {
		headers = append(headers, fmt.Sprintf("%d PU", p))
	}
	t := metrics.NewTable(title, headers...)
	byRatio := map[float64]map[int]SchedPoint{}
	for _, pt := range points {
		if pt.Mode != mode {
			continue
		}
		if byRatio[pt.TargetRatio] == nil {
			byRatio[pt.TargetRatio] = map[int]SchedPoint{}
		}
		byRatio[pt.TargetRatio][pt.PUs] = pt
	}
	for _, r := range DepRatios {
		row, ok := byRatio[r]
		if !ok {
			continue
		}
		cells := []any{fmt.Sprintf("%.1f", r)}
		for _, p := range SchedPUCounts {
			pt := row[p]
			if metric == "util" {
				cells = append(cells, pt.Utilization)
			} else {
				cells = append(cells, metrics.X(pt.Speedup))
			}
		}
		t.Row(cells...)
	}
	return t.String()
}
