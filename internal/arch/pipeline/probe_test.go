package pipeline_test

import (
	"testing"

	"mtpu/internal/arch"
	"mtpu/internal/arch/pipeline"
	"mtpu/internal/arch/pu"
	"mtpu/internal/core"
	"mtpu/internal/workload"
)

// TestProbeUpperBound prints Fig. 12-style numbers: per-contract IPC and
// speedup at 100% DB-cache hit for F&D / +DF / +IF. Run with -v to tune.
func TestProbeUpperBound(t *testing.T) {
	g := workload.NewGenerator(101, 4096)
	genesis := g.Genesis()

	variants := []struct {
		name      string
		fwd, fold bool
	}{
		{"F&D", false, false},
		{"+DF", true, false},
		{"+IF", true, true},
	}

	for _, c := range g.Contracts {
		if c.Name == "TokenReceiver" {
			continue
		}
		block := g.Batch(c, 48)
		traces, _, _, err := core.CollectTraces(genesis, block)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}

		// Scalar pipeline cycles (baseline).
		scfg := arch.ScalarConfig()
		spipe := pipeline.New(scfg)
		for _, tr := range traces {
			p := pu.PlainPlan(tr)
			spipe.Execute(p.Steps, p.Ann, p.Hot, pipeline.FlatMem{Cfg: scfg})
		}
		scalarCycles := spipe.Stats().Cycles

		line := c.Name + ":"
		for _, v := range variants {
			cfg := arch.DefaultConfig()
			cfg.DBCacheEntries = 0 // unbounded
			cfg.EnableForwarding = v.fwd
			cfg.EnableFolding = v.fold
			pipe := pipeline.New(cfg)
			// Pass 1: fill. Pass 2: measure (100% hit upper bound).
			for pass := 0; pass < 2; pass++ {
				if pass == 1 {
					pipe.ResetStats()
				}
				for _, tr := range traces {
					p := pu.PlainPlan(tr)
					pipe.Execute(p.Steps, p.Ann, p.Hot, pipeline.FlatMem{Cfg: cfg})
				}
			}
			st := pipe.Stats()
			line += "  " + v.name + " ipc=" + f2(st.IPC()) +
				" spd=" + f2(float64(scalarCycles)/float64(st.Cycles)) +
				" hit=" + f2(st.HitRatio())
		}
		t.Log(line)
	}
}

func f2(v float64) string {
	return string([]byte{byte('0' + int(v)%10), '.', byte('0' + int(v*10)%10), byte('0' + int(v*100)%10)})
}
