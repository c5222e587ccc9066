package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"mtpu/internal/arch"
	"mtpu/internal/core"
	"mtpu/internal/metrics"
	"mtpu/internal/mvstate"
	"mtpu/internal/state"
	"mtpu/internal/types"
	"mtpu/internal/workload"
)

// PerfPoint is one measurement of the simulator hot loop: the work one
// repetition does, counted, and how fast the host did it, timed. The
// counts are what `make perf` gates — the simulated ones exactly, the
// allocation ones within a tolerance — because they move only when the
// code does; the rates measure the host as much as the code and are
// reported, not gated.
type PerfPoint struct {
	Name string `json:"name"`
	// Txs, Instructions, Cycles and RefillScans are the per-repetition
	// simulated work: transactions, EVM instructions replayed (executed
	// by the decode, for a case without a replay), the makespan (summed
	// over the batches of a pipeline case; 0 without a replay) and the
	// scheduler's refill candidates (sched.Result.RefillScans).
	Txs          int    `json:"txs"`
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	RefillScans  uint64 `json:"refill_scans"`
	// MallocsPerRep and BytesPerRep are the heap allocations of one
	// repetition, read from runtime.MemStats around the measured loop.
	// They depend on the toolchain but not on host speed or load.
	MallocsPerRep float64 `json:"mallocs_per_rep"`
	BytesPerRep   float64 `json:"bytes_per_rep"`
	// Reps is how many repetitions the calibrated loop ran.
	Reps   int     `json:"reps"`
	WallMS float64 `json:"wall_ms"`
	// TxPerSec is simulated transactions per wall-second
	// (Txs × Reps / wall).
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

// perfWork is the simulated work of one repetition.
type perfWork struct {
	instructions, cycles, refillScans uint64
}

// perfCase is one measurable hot-loop workload. run executes exactly one
// repetition (over txs transactions) and returns the work it simulated.
type perfCase struct {
	name string
	txs  int
	run  func() perfWork
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
		run: func() perfWork {
			res := env.replay(entry, mode, pus)
			return perfWork{res.Instructions, res.Cycles, res.Sched.RefillScans}
		},
	}
}

// PerfSweep measures the hot-loop workload classes: the fig13-class
// single-PU pipeline batch replay (DB cache + fill unit), the
// fig14-class scheduled multi-PU replays (spatio-temporal scheduler +
// discrete-event engine), the fig16-class reuse replay (shared State
// Buffer), the optimistic Block-STM replay (functional re-execution +
// multi-version reads), and the block-stream service's per-block state
// work at a large head (decode, digest pricing, fold). Points always run
// serially — the wall clock and the process-wide allocation counters
// are the measurement — so env.Workers is ignored.
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
		{"stream/decode-digest-fold-4096acct", func() perfCase { return foldCase(env) }},
	}
	minWall := env.PerfWall
	if minWall <= 0 {
		minWall = DefaultPerfWall
	}
	// One P for the measurement: the replays run on one goroutine, and
	// the sync.Pools that recycle pipelines and processors keep an object
	// in the private slot of the P that put it, invisible to a goroutine
	// the scheduler has moved to another P. With several Ps such a move
	// costs a fresh pipeline now and then, which shows as load-dependent
	// noise in the allocation counts; with one it never happens.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
		run: func() perfWork {
			var w perfWork
			for _, e := range entries {
				st := runPipeline(cfg, e.PlainPlans(), 1)
				w.instructions += st.Instructions
				w.cycles += st.Cycles
			}
			return w
		},
	}
}

// The fold case's block shape is the block-stream benchmark's
// large-state workload: 32-transaction token blocks over 4096 accounts,
// a head large enough that a per-block cost proportional to the state,
// rather than to the block's write-set, dominates the repetition.
const (
	foldTxs      = 32
	foldAccounts = 4096
)

// foldCase is the service's per-block state work at a large head: decode
// the first block of a token chain from its RLP, execute it against the
// store head (core.PrepareBlock), price its digest and fold its
// write-set into the store. The fold is then undone by folding the
// write-set's pre-images back, so every repetition starts from the same
// head; the case panics if the head digest does not return.
func foldCase(env *Env) perfCase {
	spec := workload.Spec{Kind: "token", Blocks: 1, Txs: foldTxs, Dep: 0.3,
		Seed: env.Seed, Accounts: foldAccounts}
	src, err := spec.OpenSource()
	if err != nil {
		panic(fmt.Sprintf("experiments: fold case: %v", err))
	}
	b, _ := src.Next()
	raw := b.EncodeRLP()
	store := mvstate.NewStore(src.Genesis(), nil)
	start := store.HeadDigest()
	return perfCase{
		name: "stream/decode-digest-fold-4096acct",
		txs:  len(b.Transactions),
		run: func() perfWork {
			block, err := types.DecodeBlockRLP(raw)
			if err != nil {
				panic(fmt.Sprintf("experiments: fold case: %v", err))
			}
			head := store.Head()
			prep, err := core.PrepareBlock(head, block)
			if err != nil {
				panic(fmt.Sprintf("experiments: fold case: %v", err))
			}
			coinbase := block.Header.Coinbase
			prep.DigestAt(head, coinbase)
			undoKeys := append(prep.WriteKeys[:len(prep.WriteKeys):len(prep.WriteKeys)],
				state.AccessKey{Kind: state.AccessBalance, Addr: coinbase})
			undoVals := make([]mvstate.Value, len(undoKeys))
			for i, k := range undoKeys {
				undoVals[i] = preImage(head, k)
			}
			store.Commit(prep.WriteKeys, prep.WriteVals, coinbase, &prep.Fees)
			store.Commit(undoKeys, undoVals, coinbase, nil)
			if store.HeadDigest() != start {
				panic("experiments: fold case: undoing the fold did not restore the head")
			}
			var w perfWork
			for _, t := range prep.Traces {
				w.instructions += uint64(t.InstructionCount())
			}
			return w
		},
	}
}

// preImage reads k's value at sn in the form Store.Commit folds.
func preImage(sn *mvstate.Snapshot, k state.AccessKey) mvstate.Value {
	var v mvstate.Value
	switch k.Kind {
	case state.AccessBalance:
		v.Word.Set(sn.GetBalance(k.Addr))
	case state.AccessNonce:
		v.U64 = sn.GetNonce(k.Addr)
	case state.AccessCode:
		v.Code = sn.GetCode(k.Addr)
		v.Hash = sn.GetCodeHash(k.Addr)
	case state.AccessStorage:
		v.Word = sn.GetState(k.Addr, k.Slot)
	}
	return v
}

// measure calibrates and times one case: a warmup repetition (also the
// work count), then batches of repetitions until the point has run for
// at least minWall. The allocation counters are read around the
// repetitions only, so the warmup's one-time costs stay out of them.
func measure(c perfCase, minWall time.Duration) PerfPoint {
	w := c.run() // warmup + work count
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reps := 0
	start := time.Now()
	batch := 1
	for {
		for i := 0; i < batch; i++ {
			c.run()
		}
		reps += batch
		if el := time.Since(start); el >= minWall {
			runtime.ReadMemStats(&after)
			wall := el.Seconds()
			return PerfPoint{
				Name:          c.name,
				Txs:           c.txs,
				Instructions:  w.instructions,
				Cycles:        w.cycles,
				RefillScans:   w.refillScans,
				MallocsPerRep: float64(after.Mallocs-before.Mallocs) / float64(reps),
				BytesPerRep:   float64(after.TotalAlloc-before.TotalAlloc) / float64(reps),
				Reps:          reps,
				WallMS:        wall * 1000,
				TxPerSec:      float64(c.txs) * float64(reps) / wall,
				InstrPerSec:   float64(w.instructions) * float64(reps) / wall,
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

// RenderPerf formats the perf sweep: the counted work per repetition,
// then the host rates.
func RenderPerf(points []PerfPoint) string {
	t := metrics.NewTable("Perf — simulator hot loop: work per repetition (counted) and host throughput (wall clock)",
		"workload", "txs/rep", "instr/rep", "cycles/rep", "scans/rep", "mallocs/rep", "KB/rep",
		"reps", "wall ms", "tx/s", "Minstr/s")
	for _, p := range points {
		t.Row(p.Name, p.Txs, p.Instructions, p.Cycles, p.RefillScans, p.MallocsPerRep, p.BytesPerRep/1024,
			p.Reps, p.WallMS, p.TxPerSec, p.InstrPerSec/1e6)
	}
	return t.String()
}
