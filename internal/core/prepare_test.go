package core

import (
	"testing"

	"mtpu/internal/arch"
	"mtpu/internal/evm"
	"mtpu/internal/mvstate"
	"mtpu/internal/workload"
)

// TestPrepareBlockDAGMatchesReplayConflicts decodes a chained stream of
// every scenario shape and holds each block's rebuilt DAG to
// workload.VerifyDAG — the independent pairwise derivation from a
// sequential replay: no missing edge, no spurious one.
func TestPrepareBlockDAGMatchesReplayConflicts(t *testing.T) {
	for _, name := range workload.Scenarios {
		src, err := workload.ScenarioSpec{Scenario: name, Blocks: 4, Txs: 40, Skew: 1.2, Seed: 23}.Open()
		if err != nil {
			t.Fatal(err)
		}
		pre := src.Genesis().Copy() // sequential pre-state of the next block
		store := mvstate.NewStore(src.Genesis(), nil)
		edges := 0
		for i := 0; ; i++ {
			block, ok := src.Next()
			if !ok {
				break
			}
			prep, err := PrepareBlock(store.Head(), block)
			if err != nil {
				t.Fatalf("%s block %d: %v", name, i, err)
			}
			if err := workload.VerifyDAG(pre, block); err != nil {
				t.Fatalf("%s block %d: %v", name, i, err)
			}
			for _, deps := range block.DAG.Deps {
				edges += len(deps)
			}
			store.Commit(prep.WriteKeys, prep.WriteVals, block.Header.Coinbase, &prep.Fees)
			if _, _, _, err := CollectTracesOn(pre, block); err != nil {
				t.Fatalf("%s block %d: %v", name, i, err)
			}
		}
		if edges == 0 {
			t.Fatalf("%s: no conflict edge in the whole stream; the check proves nothing", name)
		}
	}
}

// TestDecodedTracesAreInterned holds both decode paths to what the
// timing model now assumes of every trace: one symbol table per block,
// every step carrying the CodeID of its own code address, and every
// storage or state-query step carrying a TouchID.
func TestDecodedTracesAreInterned(t *testing.T) {
	for _, name := range workload.Scenarios {
		src, err := workload.ScenarioSpec{Scenario: name, Blocks: 1, Txs: 40, Skew: 1.2, Seed: 29}.Open()
		if err != nil {
			t.Fatal(err)
		}
		block, _ := src.Next()
		collected, _, _, err := CollectTraces(src.Genesis(), block)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := PrepareBlock(mvstate.SnapshotOf(src.Genesis()), block)
		if err != nil {
			t.Fatal(err)
		}
		for path, traces := range map[string][]*arch.TxTrace{"CollectTraces": collected, "PrepareBlock": prep.Traces} {
			steps := 0
			for i, tr := range traces {
				if tr.Syms == nil || tr.Syms != traces[0].Syms {
					t.Fatalf("%s %s: trace %d does not share the block's symbol table", name, path, i)
				}
				for j := range tr.Steps {
					s := &tr.Steps[j]
					steps++
					if s.CodeID < 1 || tr.Syms.CodeAddr(s.CodeID) != s.CodeAddr {
						t.Fatalf("%s %s: trace %d step %d (%s) has code id %d for %s", name, path, i, j, s.Op, s.CodeID, s.CodeAddr)
					}
					touches := s.Op == evm.SLOAD || s.Op == evm.SSTORE || s.Op.Unit() == evm.FUStateQuery
					if touches && s.TouchID < 1 {
						t.Fatalf("%s %s: trace %d step %d (%s) has no touch id", name, path, i, j, s.Op)
					}
				}
			}
			if steps == 0 {
				t.Fatalf("%s %s: no steps; the check proves nothing", name, path)
			}
		}
	}
}
