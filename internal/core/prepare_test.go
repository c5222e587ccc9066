package core

import (
	"testing"

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
