// Batch-Schedule-Execute (Hay & Friedman, 2024): consensus pre-schedules
// the block by greedily partitioning the dependency DAG into
// conflict-free batches; execution then runs each batch
// barrier-synchronized across the PUs with no run-time scheduling
// decisions at all. It is the deterministic counterpart to both
// ModeSynchronous (which forms rounds dynamically from completions) and
// ModeBlockSTM (which discovers conflicts at run time) — the whole
// schedule is a pure function of the DAG.
package engine

import (
	"mtpu/internal/arch"
	"mtpu/internal/arch/pu"
	"mtpu/internal/hotspot"
	"mtpu/internal/sched"
	"mtpu/internal/types"
)

// BSEBatches greedily partitions the DAG into conflict-free batches:
// batch(tx) = 1 + max over dependencies batch(dep), i.e. transactions
// are grouped by longest dependency-path depth. No batch contains a DAG
// edge (an edge always crosses batch levels), so every batch may run
// fully in parallel; the number of batches equals the DAG's critical
// path length. Within a batch, transactions keep block order. Exported
// so experiments can report measured batch counts.
func BSEBatches(dag *types.DAG) [][]int {
	n := dag.Len()
	if n == 0 {
		return nil
	}
	level := make([]int, n)
	maxLevel := 0
	// DAG edges are strictly forward (types.DAG.AddEdge enforces
	// from < to), so one block-order pass settles every level.
	for tx := 0; tx < n; tx++ {
		l := 0
		for _, d := range dag.Deps[tx] {
			if level[d]+1 > l {
				l = level[d] + 1
			}
		}
		level[tx] = l
		if l > maxLevel {
			maxLevel = l
		}
	}
	batches := make([][]int, maxLevel+1)
	for tx, l := range level {
		batches[l] = append(batches[l], tx)
	}
	return batches
}

// bseEngine executes the precomputed batches: within a batch each
// transaction is dispatched (in block order) to the PU that frees up
// earliest, PUs run their share back-to-back, and the next batch starts
// only after the slowest PU of the current one finishes — the barrier.
type bseEngine struct{}

func (bseEngine) Name() string { return "batch-schedule-execute" }

func (bseEngine) Configure(cfg arch.Config) arch.Config {
	cfg.ReuseContext = false
	return cfg
}

func (bseEngine) Plans(_ *hotspot.ContractTable, traces []*arch.TxTrace, prebuilt []*pu.Plan) ([]*pu.Plan, int) {
	return plainPlans(traces, prebuilt)
}

func (bseEngine) Run(block *types.Block, _ []*arch.TxTrace, env *Env) (Result, error) {
	numPUs := env.Cfg.NumPUs
	overhead := env.Cfg.ScheduleOverhead
	res := sched.Result{BusyCycles: make([]uint64, numPUs)}
	busyUntil := make([]uint64, numPUs)
	var now uint64
	for _, batch := range BSEBatches(block.DAG) {
		for p := range busyUntil {
			busyUntil[p] = now
		}
		batchEnd := now
		for _, tx := range batch {
			// Earliest-available PU, lowest index on ties — deterministic,
			// and dispatch order (hence PU microarchitectural state) is
			// fixed by block order within the batch.
			p := 0
			for q := 1; q < numPUs; q++ {
				if busyUntil[q] < busyUntil[p] {
					p = q
				}
			}
			cost := env.Dispatch(p, tx) + overhead
			start := busyUntil[p]
			end := start + cost
			res.Dispatches = append(res.Dispatches, sched.Dispatch{Tx: tx, PU: p, Start: start, End: end})
			res.BusyCycles[p] += cost
			busyUntil[p] = end
			if end > batchEnd {
				batchEnd = end
			}
		}
		now = batchEnd
	}
	res.Makespan = now
	return Result{Sched: res}, nil
}

func (bseEngine) Verify() Verification { return VerifyDAGOrder }
