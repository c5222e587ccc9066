package experiments

import (
	"fmt"
	"time"

	"mtpu/internal/arch"
	"mtpu/internal/core"
	"mtpu/internal/engine"
	"mtpu/internal/metrics"
	"mtpu/internal/mvstate"
	"mtpu/internal/workload"
)

// Shape of the scenario sweep: every mainnet-shaped Zipfian scenario,
// chained over ScenarioSweepBlocks blocks, replayed by every registered
// engine at each PU count. Skew 1.2 sits at the top of the mainnet
// account-popularity range, where the hotspot optimization's TOP-N
// skew assumption (§2.2.1) should pay off or visibly fail.
const (
	ScenarioSweepBlocks = 5
	ScenarioSweepTxs    = 32
	ScenarioSweepSkew   = 1.2
)

// ScenarioPUs are the PU counts the sweep crosses with each scenario.
var ScenarioPUs = []int{2, 8}

// ScenarioPoint is one (scenario, engine, PU-count) cell: the summed
// simulated cycles of the chained replay, the speedup against the first
// registered engine at the same cell, and the host-side simulated tx/s
// of the whole prepare→replay→commit chain.
type ScenarioPoint struct {
	Scenario string  `json:"scenario"`
	Engine   string  `json:"engine"`
	PUs      int     `json:"pus"`
	Blocks   int     `json:"blocks"`
	Txs      int     `json:"txs"`
	Skew     float64 `json:"skew"`
	Cycles   uint64  `json:"cycles"`
	Speedup  float64 `json:"speedup"` // vs the first registered engine
	TxPerSec float64 `json:"tx_per_sec"`
}

// ScenarioSweep replays every scenario chain under every registered
// engine at every PU count. Each cell opens its own scenario stream and
// mvstate store (chains are stateful; sharing one across engines would
// leak learned hotspots and head state between cells), so cells are
// independent and fan out over env.Workers. Speedups are computed after
// the barrier so row order never affects them.
func ScenarioSweep(env *Env) []ScenarioPoint {
	modes := engine.Modes()
	type cell struct {
		scenario string
		pus      int
	}
	var grid []cell
	for _, s := range workload.Scenarios {
		for _, pus := range ScenarioPUs {
			grid = append(grid, cell{s, pus})
		}
	}
	out := make([]ScenarioPoint, len(grid)*len(modes))
	env.forEachPoint(len(grid), func(gi int) {
		pt := grid[gi]
		spec := workload.Spec{
			Kind:   pt.scenario,
			Blocks: ScenarioSweepBlocks,
			Txs:    ScenarioSweepTxs,
			Skew:   ScenarioSweepSkew,
			Seed:   env.Seed,
		}
		for mi, m := range modes {
			src, err := spec.OpenSource()
			if err != nil {
				panic(err)
			}
			acc := core.New(arch.DefaultConfig())
			store := mvstate.NewStore(src.Genesis(), nil)
			var cycles uint64
			txs := 0
			start := time.Now()
			for {
				b, ok := src.Next()
				if !ok {
					break
				}
				head := store.Head()
				prep, err := core.PrepareBlock(head, b)
				if err != nil {
					panic(err)
				}
				digest := prep.DigestAt(head, b.Header.Coinbase)
				res, err := acc.ReplayWith(b, prep.Traces, prep.Receipts, digest, m,
					core.ReplayOpts{NumPUs: pt.pus, Head: head, Tel: env.Tel})
				if err != nil {
					panic(err)
				}
				env.record("scenarios/"+pt.scenario+"/"+m.String(), res.Pipeline, res.Cycles)
				cycles += res.Cycles
				txs += len(b.Transactions)
				// The Contract Table learns across the chain, exactly as
				// the stream service does between blocks.
				acc.LearnHotspots(prep.Traces, 8)
				store.Commit(prep.WriteKeys, prep.WriteVals, b.Header.Coinbase, &prep.Fees)
			}
			wall := time.Since(start).Seconds()
			if wall <= 0 {
				wall = 1e-9 // timer granularity floor keeps tx/s finite
			}
			out[gi*len(modes)+mi] = ScenarioPoint{
				Scenario: pt.scenario, Engine: m.String(), PUs: pt.pus,
				Blocks: spec.Blocks, Txs: spec.Txs, Skew: spec.Skew,
				Cycles: cycles, TxPerSec: float64(txs) / wall,
			}
		}
	})
	for gi := range grid {
		base := out[gi*len(modes)].Cycles
		for mi := range modes {
			p := &out[gi*len(modes)+mi]
			p.Speedup = float64(base) / float64(p.Cycles)
		}
	}
	return out
}

// RenderScenarios renders the headline scenario × engine × PU table
// followed by the hotspot-optimization delta per scenario.
func RenderScenarios(points []ScenarioPoint) string {
	t := metrics.NewTable(
		fmt.Sprintf("mainnet-shaped scenarios — every engine × PU count (%d blocks × %d txs, skew %.1f)",
			ScenarioSweepBlocks, ScenarioSweepTxs, ScenarioSweepSkew),
		"scenario", "engine", "PUs", "cycles", "speedup", "sim tx/s")
	for _, p := range points {
		t.Row(p.Scenario, p.Engine, p.PUs, p.Cycles, metrics.X(p.Speedup), int(p.TxPerSec))
	}
	return t.String() + "\n" + renderScenarioHotspotDelta(points)
}

// renderScenarioHotspotDelta isolates the paper's hotspot optimization:
// spatial-temporal+redundancy with and without the Contract Table, per
// scenario and PU count. Positive deltas are cycles the TOP-N skew
// assumption saved; negative ones are where it visibly fails.
func renderScenarioHotspotDelta(points []ScenarioPoint) string {
	type key struct {
		scenario string
		pus      int
	}
	red := map[key]ScenarioPoint{}
	hot := map[key]ScenarioPoint{}
	var order []key
	for _, p := range points {
		k := key{p.Scenario, p.PUs}
		switch p.Engine {
		case "spatial-temporal+redundancy":
			red[k] = p
			order = append(order, k)
		case "spatial-temporal+redundancy+hotspot":
			hot[k] = p
		}
	}
	t := metrics.NewTable(
		"hotspot-optimization delta (spatial-temporal+redundancy → +hotspot)",
		"scenario", "PUs", "cycles w/o", "cycles with", "delta")
	for _, k := range order {
		r, okR := red[k]
		h, okH := hot[k]
		if !okR || !okH {
			continue
		}
		delta := 100 * (float64(r.Cycles) - float64(h.Cycles)) / float64(r.Cycles)
		t.Row(k.scenario, k.pus, r.Cycles, h.Cycles, fmt.Sprintf("%+.1f%%", delta))
	}
	return t.String()
}
