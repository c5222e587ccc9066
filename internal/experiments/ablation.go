package experiments

import (
	"fmt"

	"mtpu/internal/arch"
	"mtpu/internal/core"
	"mtpu/internal/metrics"
	"mtpu/internal/workload"
)

// AblationRow is one knob setting and the full-system speedup under it.
type AblationRow struct {
	Knob    string
	Setting string
	Speedup float64 // ModeSTHotspot (4 PUs) vs scalar baseline
}

// ablationSpec is one knob setting to measure.
type ablationSpec struct {
	knob    string
	setting string
	mutate  func(*arch.Config)
}

// ablationSpecs enumerates the rows of the ablation sweep.
func ablationSpecs() []ablationSpec {
	specs := []ablationSpec{
		{"baseline", "full design", func(*arch.Config) {}},
		{"ILP", "no DB cache (F&D off)", func(c *arch.Config) {
			c.EnableDBCache = false
			c.EnableForwarding = false
			c.EnableFolding = false
		}},
		{"ILP", "no forwarding (DF off)", func(c *arch.Config) {
			c.EnableForwarding = false
			c.EnableFolding = false
		}},
		{"ILP", "no folding (IF off)", func(c *arch.Config) {
			c.EnableFolding = false
		}},
	}
	for _, m := range []int{1, 2, 4, 8, 16} {
		m := m
		specs = append(specs, ablationSpec{"window m", itoa(m), func(c *arch.Config) {
			c.CandidateWindow = m
		}})
	}
	for _, r := range []int{1, 2, 8} {
		r := r
		specs = append(specs, ablationSpec{"residency", itoa(r), func(c *arch.Config) {
			c.ContractResidency = r
		}})
	}
	for _, s := range []int{16, 256, 4096} {
		s := s
		specs = append(specs, ablationSpec{"state buffer", itoa(s), func(c *arch.Config) {
			c.StateBufferSlots = s
		}})
	}
	for _, o := range []uint64{0, 4, 64, 512} {
		o := o
		specs = append(specs, ablationSpec{"sched overhead", fmt.Sprintf("%d cyc", o), func(c *arch.Config) {
			c.ScheduleOverhead = o
		}})
	}
	for _, e := range []int{64, 512, 2048} {
		e := e
		specs = append(specs, ablationSpec{"DB entries", itoa(e), func(c *arch.Config) {
			c.DBCacheEntries = e
		}})
	}
	return specs
}

// Ablations sweeps the design choices DESIGN.md calls out, one at a
// time, on a fixed mixed-dependency token block: the ILP features
// (DB cache / forwarding / folding), the candidate window m, the
// Call_Contract residency, the State Buffer capacity and the scheduling
// overhead. Every row answers "what does the full system lose if this
// piece is weakened?". Knob settings fan out over env.Workers; they
// share one cached trace set and one scalar reference.
func Ablations(env *Env) []AblationRow {
	e := env.cache.Get(workload.Spec{Kind: "token", Txs: 160, Dep: 0.3})

	// Scalar reference is independent of the knobs under test.
	scalar := float64(env.replay(e, core.ModeScalar, 1).Cycles)

	specs := ablationSpecs()
	rows := make([]AblationRow, len(specs))
	env.forEachPoint(len(specs), func(i int) {
		spec := specs[i]
		cfg := arch.DefaultConfig()
		spec.mutate(&cfg)
		acc := core.New(cfg)
		acc.LearnHotspots(e.Traces, 8)
		res, err := acc.Replay(e.Block, e.Traces, e.Receipts, e.Digest, core.ModeSTHotspot)
		if err != nil {
			panic(err)
		}
		rows[i] = AblationRow{Knob: spec.knob, Setting: spec.setting, Speedup: scalar / float64(res.Cycles)}
	})
	return rows
}

// RenderAblations formats the ablation report.
func RenderAblations(rows []AblationRow) string {
	t := metrics.NewTable("Ablations — full-system speedup (4 PUs, ST+redundancy+hotspot, dep 0.3)",
		"knob", "setting", "speedup")
	for _, r := range rows {
		t.Row(r.Knob, r.Setting, metrics.X(r.Speedup))
	}
	return t.String()
}
