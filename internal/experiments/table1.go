package experiments

import (
	"mtpu/internal/arch"
	"mtpu/internal/arch/pipeline"
	"mtpu/internal/arch/pu"
	"mtpu/internal/metrics"
	"mtpu/internal/workload"
)

// Table1Row reproduces the execution-overhead row of Table 1: the share
// of total execution time attributable to smart-contract transactions at
// a given SCT count share (Ethereum 2017-2021 moved from 37% SCTs/72%
// overhead to 68% SCTs/91% overhead).
type Table1Row struct {
	Year          string
	SCTShare      float64
	OverheadShare float64
}

// table1Years mirrors the paper's Ethereum statistics.
var table1Years = []struct {
	year  string
	share float64
}{
	{"2017", 0.3723},
	{"2018", 0.5057},
	{"2019", 0.6352},
	{"2020", 0.6794},
	{"2021", 0.6840},
}

// Table1 measures the SCT execution-overhead share on a scalar PU for
// each year's SCT count share. Years fan out over env.Workers.
func Table1(env *Env) []Table1Row {
	rows := make([]Table1Row, len(table1Years))
	env.forEachPoint(len(rows), func(i int) {
		y := table1Years[i]
		e := env.cache.Get(workload.Spec{Kind: "sct", Txs: 200, Share: y.share})
		cfg := arch.ScalarConfig()
		unit := pu.New(0, cfg)
		mem := pipeline.FlatMem{Cfg: cfg}
		var sct, total uint64
		for j, plan := range e.PlainPlans() {
			c := unit.Run(plan, mem).Total
			total += c
			if !e.Traces[j].IsTransfer {
				sct += c
			}
		}
		rows[i] = Table1Row{
			Year:          y.year,
			SCTShare:      y.share,
			OverheadShare: float64(sct) / float64(total),
		}
	})
	return rows
}

// RenderTable1 formats the Table 1 data.
func RenderTable1(rows []Table1Row) string {
	headers := []string{""}
	for _, r := range rows {
		headers = append(headers, r.Year)
	}
	t := metrics.NewTable("Table 1 — SCT share vs execution-overhead share (scalar PU)", headers...)
	share := []any{"Proportion of SCTs"}
	over := []any{"Execution overhead of SCTs"}
	for _, r := range rows {
		share = append(share, metrics.Pct(r.SCTShare))
		over = append(over, metrics.Pct(r.OverheadShare))
	}
	t.Row(share...)
	t.Row(over...)
	return t.String()
}
