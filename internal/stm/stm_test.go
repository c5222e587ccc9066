package stm

import (
	"testing"

	"mtpu/internal/evm"
	"mtpu/internal/mvstate"
	"mtpu/internal/state"
	"mtpu/internal/types"
	"mtpu/internal/workload"
)

// fixedCost charges a constant per execution, keeping timing tests
// independent of the PU model.
type fixedCost struct{ c uint64 }

func (f fixedCost) Dispatch(pu, tx int) uint64 { return f.c }

// testBlock builds a workload block with its DAG and sequential golden
// results, and the genesis as a store head to execute it over.
func testBlock(t *testing.T, build func(g *workload.Generator) *types.Block) (*mvstate.Snapshot, *types.Block, []*types.Receipt, types.Hash) {
	t.Helper()
	g := workload.NewGenerator(7, 1024)
	genesis := g.Genesis()
	block := build(g)
	if _, err := workload.BuildDAG(genesis, block); err != nil {
		t.Fatal(err)
	}
	st := genesis.Copy()
	receipts, err := evm.ExecuteBlockSequential(st, block, nil)
	if err != nil {
		t.Fatal(err)
	}
	return mvstate.NewStore(genesis, nil).Head(), block, receipts, st.Digest()
}

func matrix(t *testing.T) map[string]func(g *workload.Generator) *types.Block {
	t.Helper()
	return map[string]func(g *workload.Generator) *types.Block{
		"token-dep0":   func(g *workload.Generator) *types.Block { return g.TokenBlock(96, 0) },
		"token-dep0.5": func(g *workload.Generator) *types.Block { return g.TokenBlock(96, 0.5) },
		"token-dep1.0": func(g *workload.Generator) *types.Block { return g.TokenBlock(96, 1.0) },
		"mixed-dep0.3": func(g *workload.Generator) *types.Block { return g.MixedBlock(96, 0.3) },
		"erc20-0.8":    func(g *workload.Generator) *types.Block { return g.ERC20Block(96, 0.8) },
		// Hotspot-skewed: every transaction hits one contract.
		"batch-hotspot": func(g *workload.Generator) *types.Block { return g.Batch(g.Contract("TetherUSD"), 64) },
	}
}

func TestExecuteMatchesSequential(t *testing.T) {
	for name, build := range matrix(t) {
		t.Run(name, func(t *testing.T) {
			head, block, receipts, digest := testBlock(t, build)
			for _, pus := range []int{1, 2, 4, 8} {
				cfg := Config{NumPUs: pus, ScheduleOverhead: 4, ValidateBase: 8, ValidatePerKey: 2}
				res, err := Execute(block, head, cfg, fixedCost{100})
				if err != nil {
					t.Fatalf("pus=%d: %v", pus, err)
				}
				if res.Digest != digest {
					t.Fatalf("pus=%d: digest %s != sequential %s", pus, res.Digest, digest)
				}
				for i, r := range res.Receipts {
					if r.GasUsed != receipts[i].GasUsed || r.Status != receipts[i].Status {
						t.Fatalf("pus=%d: receipt %d diverged (gas %d vs %d, status %d vs %d)",
							pus, i, r.GasUsed, receipts[i].GasUsed, r.Status, receipts[i].Status)
					}
				}
				checkInvariants(t, block, res, pus)
			}
		})
	}
}

func checkInvariants(t *testing.T, block *types.Block, res *Result, pus int) {
	t.Helper()
	s := res.Stats
	n := len(block.Transactions)
	if s.Txs != n {
		t.Errorf("pus=%d: stats txs %d != %d", pus, s.Txs, n)
	}
	if s.Incarnations-s.Aborts != n {
		t.Errorf("pus=%d: incarnations %d - aborts %d != txs %d", pus, s.Incarnations, s.Aborts, n)
	}
	if s.Aborts != s.EstimateAborts+s.ValidationFails {
		t.Errorf("pus=%d: aborts %d != estimate %d + validation %d", pus, s.Aborts, s.EstimateAborts, s.ValidationFails)
	}
	if got := s.ExecCycles + s.ValidateCycles + s.IdleCycles; got != uint64(pus)*res.Makespan {
		t.Errorf("pus=%d: cycle terms %d != pus×makespan %d", pus, got, uint64(pus)*res.Makespan)
	}
	if s.WastedCycles > s.ExecCycles {
		t.Errorf("pus=%d: wasted %d > exec %d", pus, s.WastedCycles, s.ExecCycles)
	}
	var busy uint64
	for _, b := range res.BusyCycles {
		busy += b
	}
	if busy != s.ExecCycles+s.ValidateCycles {
		t.Errorf("pus=%d: busy %d != exec+validate %d", pus, busy, s.ExecCycles+s.ValidateCycles)
	}
	// Every runtime-detected conflict must lie inside the consensus DAG's
	// transitive closure.
	for _, c := range res.Conflicts {
		if !block.DAG.HasPath(c.From, c.To) {
			t.Errorf("pus=%d: conflict %d→%d outside DAG closure", pus, c.From, c.To)
		}
	}
}

// TestIndependentBlockNoAborts: with dependency ratio 0 every transaction
// commits its first incarnation.
func TestIndependentBlockNoAborts(t *testing.T) {
	head, block, _, digest := testBlock(t, func(g *workload.Generator) *types.Block {
		return g.TokenBlock(64, 0)
	})
	res, err := Execute(block, head, Config{NumPUs: 4, ScheduleOverhead: 4, ValidateBase: 8, ValidatePerKey: 2}, fixedCost{100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != digest {
		t.Fatalf("digest mismatch")
	}
	if res.Stats.Aborts != 0 {
		t.Errorf("independent block aborted %d times (conflicts %v)", res.Stats.Aborts, res.Conflicts)
	}
	if res.Stats.Incarnations != len(block.Transactions) {
		t.Errorf("incarnations %d != txs %d", res.Stats.Incarnations, len(block.Transactions))
	}
}

// TestDependentChainAborts: a fully chained block on several PUs must
// discover conflicts at run time (that is the cost the consensus DAG
// avoids).
func TestDependentChainAborts(t *testing.T) {
	head, block, _, digest := testBlock(t, func(g *workload.Generator) *types.Block {
		return g.TokenBlock(64, 1.0)
	})
	res, err := Execute(block, head, Config{NumPUs: 4, ScheduleOverhead: 4, ValidateBase: 8, ValidatePerKey: 2}, fixedCost{100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != digest {
		t.Fatalf("digest mismatch")
	}
	if res.Stats.Aborts == 0 {
		t.Error("fully dependent block on 4 PUs executed without a single abort")
	}
	if len(res.Conflicts) == 0 {
		t.Error("no runtime conflicts detected on a dep-ratio-1.0 block")
	}
}

func TestExecuteEmptyBlock(t *testing.T) {
	genesis := state.New()
	block := types.NewBlock(types.BlockHeader{}, nil)
	res, err := Execute(block, mvstate.NewStore(genesis, nil).Head(), Config{NumPUs: 2}, fixedCost{1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 || res.Digest != genesis.Digest() {
		t.Errorf("empty block: makespan %d digest %s", res.Makespan, res.Digest)
	}
}

func TestExecuteRejectsZeroPUs(t *testing.T) {
	genesis := state.New()
	block := types.NewBlock(types.BlockHeader{}, nil)
	if _, err := Execute(block, mvstate.NewStore(genesis, nil).Head(), Config{NumPUs: 0}, fixedCost{1}); err == nil {
		t.Fatal("expected error for NumPUs=0")
	}
}
