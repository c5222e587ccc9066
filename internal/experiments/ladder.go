package experiments

import (
	"fmt"

	"mtpu/internal/arch"
	"mtpu/internal/core"
	"mtpu/internal/engine"
	"mtpu/internal/metrics"
)

// LadderDepRatio and LadderPUs fix the reference block of the
// registry-enumerated mode ladder.
const (
	LadderDepRatio = 0.3
	LadderPUs      = 4
)

// LadderRow is one registered engine measured on the reference block.
// The rows cover the engine registry in registration order, so a newly
// registered engine appears here (and in `mtpu-bench ladder`) with no
// further wiring.
type LadderRow struct {
	Mode    core.Mode `json:"-"`
	Name    string    `json:"name"`
	Cycles  uint64    `json:"cycles"`
	Speedup float64   `json:"speedup"` // vs the first registered engine
	Util    float64   `json:"util"`
}

// Ladder replays the reference block under every registered engine.
// Rows fan out over env.Workers; the speedup column is computed after
// the barrier so row order never affects it.
func Ladder(env *Env) []LadderRow {
	e := env.cache.Get(tokenSpec(SchedBlockSize, LadderDepRatio))
	acc := core.New(arch.DefaultConfig())
	acc.LearnHotspots(e.Traces, 8)

	modes := engine.Modes()
	out := make([]LadderRow, len(modes))
	env.forEachPoint(len(modes), func(i int) {
		m := modes[i]
		res, err := acc.ReplayWith(e.Block, e.Traces, e.Receipts, e.Digest, m,
			core.ReplayOpts{NumPUs: LadderPUs, Head: env.cache.head, Tel: env.Tel})
		if err != nil {
			panic(err)
		}
		env.record("ladder/"+m.String(), res.Pipeline, res.Cycles)
		out[i] = LadderRow{Mode: m, Name: m.String(), Cycles: res.Cycles, Util: res.Utilization}
	})
	base := out[0].Cycles
	for i := range out {
		out[i].Speedup = float64(base) / float64(out[i].Cycles)
	}
	return out
}

// RenderLadder renders the registry-enumerated comparison.
func RenderLadder(rows []LadderRow) string {
	t := metrics.NewTable(
		fmt.Sprintf("mode ladder — every registered engine (%d txs, dep %.1f, %d PUs)",
			SchedBlockSize, LadderDepRatio, LadderPUs),
		"engine", "cycles", "speedup", "util")
	for _, r := range rows {
		t.Row(r.Name, r.Cycles, metrics.X(r.Speedup), metrics.Float(r.Util))
	}
	return t.String()
}
