package experiments

import (
	"strings"
	"time"

	"mtpu/internal/arch"
	"mtpu/internal/core"
	"mtpu/internal/metrics"
	"mtpu/internal/workload"
)

// PerfPoint is one host-side throughput measurement of the simulator hot
// loop: how many transactions (and instructions) the timing model replays
// per wall-second. Unlike every other artifact, these numbers measure the
// simulator itself, not the simulated hardware — they are the experiment-
// scale budget of ROADMAP item 5 and the regression gate of `make perf`.
type PerfPoint struct {
	Name string `json:"name"`
	// Txs and Instructions are the per-repetition simulated volume.
	Txs          int    `json:"txs"`
	Instructions uint64 `json:"instructions"`
	// Reps is how many repetitions the calibrated loop ran.
	Reps   int     `json:"reps"`
	WallMS float64 `json:"wall_ms"`
	// TxPerSec is the headline metric: simulated transactions per
	// wall-second (Txs × Reps / wall).
	TxPerSec float64 `json:"tx_per_sec"`
	// InstrPerSec is simulated instructions per wall-second.
	InstrPerSec float64 `json:"instr_per_sec"`
}

// DefaultPerfWall is the default per-point measurement budget: reps are
// calibrated so each point runs at least this long, which keeps the tx/s
// estimate stable without making `make perf` slow. Profile-guided runs
// raise it (mtpu-bench -perf-wall) so the hot loop dominates setup in
// the CPU profile.
const DefaultPerfWall = 250 * time.Millisecond

// perfCase is one measurable hot-loop workload. run executes exactly one
// repetition (replaying txs transactions) and returns the instructions
// it simulated.
type perfCase struct {
	name string
	txs  int
	run  func() uint64
}

// replayCase builds a full-replay perf case: one repetition is one
// Env.replay of the scheduling grid's token block at dep under the mode
// — scheduling, PU/pipeline replay and result assembly included, exactly
// what the sweep experiments pay per grid point.
func replayCase(name string, env *Env, dep float64, mode core.Mode, pus int) perfCase {
	entry := env.cache.Get(workload.Spec{Kind: "token", Txs: SchedBlockSize, Dep: dep})
	return perfCase{
		name: name,
		txs:  len(entry.Block.Transactions),
		run:  func() uint64 { return env.replay(entry, mode, pus).Instructions },
	}
}

// PerfSweep measures simulated-tx/s over the hot-loop workload classes:
// the fig13-class single-PU pipeline batch replay (DB cache + fill
// unit), the fig14-class scheduled multi-PU replays (spatio-temporal
// scheduler + discrete-event engine), the fig16-class reuse replay
// (shared State Buffer), and the optimistic Block-STM replay (functional
// re-execution + multi-version reads). Points always run serially — the
// wall clock is the measurement — so env.Workers is ignored.
func PerfSweep(env *Env) []PerfPoint { return PerfSweepOnly(env, "") }

// PerfSweepOnly is PerfSweep restricted to points whose name contains
// only (empty runs everything) — the profiling aid behind mtpu-bench
// -perf-only, so a CPU profile isolates one workload class.
func PerfSweepOnly(env *Env, only string) []PerfPoint {
	// Cases are built lazily so a -perf-only profile contains only the
	// selected workload's setup (trace building hashes enough to drown
	// the hot loop in a whole-process profile otherwise).
	cases := []struct {
		name  string
		build func() perfCase
	}{
		{"fig13/pipeline-batch", func() perfCase { return pipelineBatchCase(env) }},
		{"fig14/st-dep0.3-4pu", func() perfCase {
			return replayCase("fig14/st-dep0.3-4pu", env, 0.3, core.ModeSpatialTemporal, 4)
		}},
		{"fig14/st-dep0.6-8pu", func() perfCase {
			return replayCase("fig14/st-dep0.6-8pu", env, 0.6, core.ModeSpatialTemporal, 8)
		}},
		{"fig16/redundancy-dep0.3-4pu", func() perfCase {
			return replayCase("fig16/redundancy-dep0.3-4pu", env, 0.3, core.ModeSTRedundancy, 4)
		}},
		{"stm/dep0.3-4pu", func() perfCase {
			return replayCase("stm/dep0.3-4pu", env, 0.3, core.ModeBlockSTM, 4)
		}},
	}
	minWall := env.PerfWall
	if minWall <= 0 {
		minWall = DefaultPerfWall
	}
	var out []PerfPoint
	for _, c := range cases {
		if only != "" && !strings.Contains(c.name, only) {
			continue
		}
		out = append(out, measure(c.build(), minWall))
	}
	return out
}

// pipelineBatchCase replays the TOP-8 same-contract batches through one
// warmed pipeline — the fig13-class inner loop with no scheduler around
// it, isolating the per-instruction replay cost.
func pipelineBatchCase(env *Env) perfCase {
	txs := 0
	entries := make([]*cacheEntry, len(Top8Names))
	for i, name := range Top8Names {
		entries[i] = env.batch(name, Fig13BatchSize)
		txs += Fig13BatchSize
	}
	cfg := arch.DefaultConfig()
	return perfCase{
		name: "fig13/pipeline-batch",
		txs:  txs,
		run: func() uint64 {
			var instr uint64
			for _, e := range entries {
				st := runPipeline(cfg, e.PlainPlans(), 1)
				instr += st.Instructions
			}
			return instr
		},
	}
}

// measure calibrates and times one case: a warmup repetition (also the
// instruction count), then batches of repetitions until the point has
// run for at least perfMinWall.
func measure(c perfCase, minWall time.Duration) PerfPoint {
	instr := c.run() // warmup + instruction count
	reps := 0
	start := time.Now()
	batch := 1
	for {
		for i := 0; i < batch; i++ {
			c.run()
		}
		reps += batch
		if el := time.Since(start); el >= minWall {
			wall := el.Seconds()
			return PerfPoint{
				Name:         c.name,
				Txs:          c.txs,
				Instructions: instr,
				Reps:         reps,
				WallMS:       wall * 1000,
				TxPerSec:     float64(c.txs) * float64(reps) / wall,
				InstrPerSec:  float64(instr) * float64(reps) / wall,
			}
		} else if el > 0 {
			// Grow the batch so the loop re-checks the clock a handful of
			// times per point rather than per repetition.
			remaining := minWall - el
			perRep := el / time.Duration(reps)
			if perRep <= 0 {
				perRep = time.Microsecond
			}
			batch = int(remaining/perRep)/2 + 1
		}
	}
}

// RenderPerf formats the perf sweep.
func RenderPerf(points []PerfPoint) string {
	t := metrics.NewTable("Perf — simulator hot-loop throughput (host wall clock)",
		"workload", "txs/rep", "reps", "wall ms", "tx/s", "Minstr/s")
	for _, p := range points {
		t.Row(p.Name, p.Txs, p.Reps, p.WallMS, p.TxPerSec, p.InstrPerSec/1e6)
	}
	return t.String()
}
