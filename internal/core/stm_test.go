package core

import (
	"strings"
	"testing"

	"mtpu/internal/arch"
	"mtpu/internal/obs"
)

func TestModeBlockSTMMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name string
		dep  float64
	}{
		{"dep0", 0}, {"dep0.3", 0.3}, {"dep1.0", 1.0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			genesis, block := buildBlock(t, 29, 96, tc.dep)
			acc := New(arch.DefaultConfig())
			traces, receipts, digest, err := CollectTraces(genesis, block)
			if err != nil {
				t.Fatal(err)
			}
			for _, pus := range []int{2, 4, 8} {
				res, err := acc.ReplayWith(block, traces, receipts, digest, ModeBlockSTM,
					ReplayOpts{NumPUs: pus, Head: headOf(genesis)})
				if err != nil {
					t.Fatalf("pus=%d: %v", pus, err)
				}
				if res.StateDigest != digest {
					t.Fatalf("pus=%d: digest mismatch", pus)
				}
				if res.Cycles == 0 || res.Utilization <= 0 {
					t.Errorf("pus=%d: empty timing result (cycles=%d util=%f)", pus, res.Cycles, res.Utilization)
				}
				if res.STM == nil {
					t.Fatalf("pus=%d: missing STM stats", pus)
				}
				s := res.STM
				if s.Incarnations-s.Aborts != len(block.Transactions) {
					t.Errorf("pus=%d: incarnations %d - aborts %d != txs %d",
						pus, s.Incarnations, s.Aborts, len(block.Transactions))
				}
				if got := s.ExecCycles + s.ValidateCycles + s.IdleCycles; got != uint64(pus)*res.Cycles {
					t.Errorf("pus=%d: cycle terms %d != pus×makespan %d", pus, got, uint64(pus)*res.Cycles)
				}
				if err := VerifySTMConflicts(block.DAG, res.STMConflicts); err != nil {
					t.Errorf("pus=%d: %v", pus, err)
				}
			}
		})
	}
}

func TestModeBlockSTMRequiresGenesis(t *testing.T) {
	genesis, block := buildBlock(t, 29, 32, 0.3)
	acc := New(arch.DefaultConfig())
	traces, receipts, digest, err := CollectTraces(genesis, block)
	if err != nil {
		t.Fatal(err)
	}
	_, err = acc.ReplayWith(block, traces, receipts, digest, ModeBlockSTM, ReplayOpts{Genesis: genesis})
	if err == nil || !strings.Contains(err.Error(), "ReplayOpts.Head") {
		t.Fatalf("block-stm without ReplayOpts.Head: err = %v, want one naming the field", err)
	}
}

// TestModeBlockSTMObsReport: the instrumentation report carries the STM
// section and keeps the per-PU cycle accounting invariant (validation and
// scheduling land in the sched bucket, idle fills to the makespan).
func TestModeBlockSTMObsReport(t *testing.T) {
	genesis, block := buildBlock(t, 29, 96, 0.5)
	acc := New(arch.DefaultConfig())
	traces, receipts, digest, err := CollectTraces(genesis, block)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	res, err := acc.ReplayWith(block, traces, receipts, digest, ModeBlockSTM,
		ReplayOpts{NumPUs: 4, Head: headOf(genesis), Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs == nil || res.Obs.STM == nil {
		t.Fatal("obs report missing STM section")
	}
	if res.Obs.Schema != obs.SchemaVersion {
		t.Errorf("schema %d != %d", res.Obs.Schema, obs.SchemaVersion)
	}
	for _, c := range res.Obs.PUs {
		if c.Accounted() != c.Total {
			t.Errorf("PU %d: accounted %d != total %d", c.PU, c.Accounted(), c.Total)
		}
	}
	if res.Obs.Render() == "" {
		t.Error("empty rendered report")
	}
}
