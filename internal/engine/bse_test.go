package engine_test

import (
	"reflect"
	"testing"

	"mtpu/internal/arch"
	"mtpu/internal/contracts"
	"mtpu/internal/core"
	"mtpu/internal/engine"
	"mtpu/internal/state"
	"mtpu/internal/types"
	"mtpu/internal/workload"
)

// TestBSEBatchesProperties: no batch contains a DAG edge, every
// transaction appears exactly once, batch count equals the critical
// path length, and the partition is deterministic.
func TestBSEBatchesProperties(t *testing.T) {
	for _, dep := range []float64{0, 0.3, 0.6, 1.0} {
		_, block := buildBlock(t, 71, 96, dep)
		batches := engine.BSEBatches(block.DAG)

		if got, want := len(batches), block.DAG.CriticalPathLen(); got != want {
			t.Errorf("dep=%.1f: %d batches, critical path %d", dep, got, want)
		}

		seen := make(map[int]int) // tx -> batch level
		total := 0
		for l, batch := range batches {
			if len(batch) == 0 {
				t.Errorf("dep=%.1f: empty batch %d", dep, l)
			}
			for _, tx := range batch {
				if prev, dup := seen[tx]; dup {
					t.Fatalf("dep=%.1f: tx %d in batches %d and %d", dep, tx, prev, l)
				}
				seen[tx] = l
				total++
			}
		}
		if total != block.DAG.Len() {
			t.Errorf("dep=%.1f: partition covers %d of %d txs", dep, total, block.DAG.Len())
		}
		// Every DAG edge crosses batch levels in the right direction.
		for tx, deps := range block.DAG.Deps {
			for _, d := range deps {
				if seen[d] >= seen[tx] {
					t.Errorf("dep=%.1f: edge %d→%d within/against batches (%d vs %d)",
						dep, d, tx, seen[d], seen[tx])
				}
			}
		}

		if again := engine.BSEBatches(block.DAG); !reflect.DeepEqual(batches, again) {
			t.Errorf("dep=%.1f: partition not deterministic", dep)
		}
	}
}

func TestBSEBatchesEmptyDAG(t *testing.T) {
	if got := engine.BSEBatches(types.NewDAG(0)); got != nil {
		t.Errorf("empty DAG produced batches %v", got)
	}
}

// replayBSE runs one block under BSE and fails the test unless the
// schedule passes the DAG-order verifier.
func replayBSE(t *testing.T, genesis *state.StateDB, block *types.Block) *core.Result {
	t.Helper()
	acc := core.New(arch.DefaultConfig())
	traces, receipts, digest, err := core.CollectTraces(genesis, block)
	if err != nil {
		t.Fatal(err)
	}
	res, err := acc.Replay(block, traces, receipts, digest, engine.ModeBSE)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyScheduleAt(headOf(genesis), block, res); err != nil {
		t.Fatalf("BSE schedule rejected: %v", err)
	}
	return res
}

// TestBSEVerifiesOnHotspotSkew: every transaction hammers the same
// contract — the worst case for any batch partition that confused
// contract contention with DAG dependence.
func TestBSEVerifiesOnHotspotSkew(t *testing.T) {
	g := workload.NewGenerator(73, 512)
	genesis := g.Genesis()
	block := g.Batch(g.Contract("TetherUSD"), 64)
	if _, err := workload.BuildDAG(genesis, block); err != nil {
		t.Fatal(err)
	}
	res := replayBSE(t, genesis, block)
	if res.GasUsed == 0 {
		t.Fatal("no gas consumed")
	}
	t.Logf("hotspot-skewed: %d batches, %d cycles, util %.2f",
		len(engine.BSEBatches(block.DAG)), res.Cycles, res.Utilization)
}

// TestBSEVerifiesOnDepOne: a dep-1.0 token block — every transaction
// depends on some earlier one — still partitions into exactly
// critical-path-many batches and verifies.
func TestBSEVerifiesOnDepOne(t *testing.T) {
	genesis, block := buildBlock(t, 79, 48, 1.0)
	batches := engine.BSEBatches(block.DAG)
	if got, want := len(batches), block.DAG.CriticalPathLen(); got != want {
		t.Fatalf("dep=1.0 block split into %d batches, critical path %d", got, want)
	}
	replayBSE(t, genesis, block)
}

// TestBSEVerifiesOnFullChain: a pure dependency chain (every transfer
// spends the previous one's output) degenerates to one transaction per
// batch — the barrier must still produce a valid, fully sequential
// schedule.
func TestBSEVerifiesOnFullChain(t *testing.T) {
	g := workload.NewGenerator(81, 8)
	genesis := g.Genesis()
	// Consecutive transfers from one sender conflict on its nonce and
	// balance, so the DAG is a single 32-long chain.
	sink := types.BytesToAddress([]byte{0xbe, 0xef})
	var txs []*types.Transaction
	for i := 0; i < 32; i++ {
		txs = append(txs, g.PlainTransfer(contracts.TokenOwner, sink, 1))
	}
	block := types.NewBlock(g.Header(), txs)
	if _, err := workload.BuildDAG(genesis, block); err != nil {
		t.Fatal(err)
	}
	batches := engine.BSEBatches(block.DAG)
	if len(batches) != len(txs) {
		t.Fatalf("chain split into %d batches for %d txs", len(batches), len(txs))
	}
	res := replayBSE(t, genesis, block)
	// Sequential execution: dispatches must not overlap in time.
	for i := 1; i < len(res.Sched.Dispatches); i++ {
		prev, cur := res.Sched.Dispatches[i-1], res.Sched.Dispatches[i]
		if cur.Start < prev.End {
			t.Fatalf("chain dispatches overlap: %+v then %+v", prev, cur)
		}
	}
}

// TestBSERespectsBarriers: in the replayed schedule no transaction of
// batch k+1 starts before every transaction of batch k has ended.
func TestBSERespectsBarriers(t *testing.T) {
	genesis, block := buildBlock(t, 83, 120, 0.5)
	res := replayBSE(t, genesis, block)
	batchOf := make(map[int]int)
	batches := engine.BSEBatches(block.DAG)
	for l, batch := range batches {
		for _, tx := range batch {
			batchOf[tx] = l
		}
	}
	batchEnd := make([]uint64, len(batches))
	for _, d := range res.Sched.Dispatches {
		if d.End > batchEnd[batchOf[d.Tx]] {
			batchEnd[batchOf[d.Tx]] = d.End
		}
	}
	for _, d := range res.Sched.Dispatches {
		if l := batchOf[d.Tx]; l > 0 && d.Start < batchEnd[l-1] {
			t.Errorf("tx %d (batch %d) started at %d before barrier %d",
				d.Tx, l, d.Start, batchEnd[l-1])
		}
	}
}
