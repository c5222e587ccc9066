package experiments

import (
	"fmt"

	"mtpu/internal/core"
	"mtpu/internal/metrics"
	"mtpu/internal/workload"
)

// ERC20Shares is the Table 8 sweep (proportion of ERC-20 transactions).
var ERC20Shares = []float64{1.0, 0.8, 0.6, 0.4, 0.2, 0.0}

// CompareBlockSize is the transactions per block in Tables 8/9.
const CompareBlockSize = 160

// Table8Row compares BPU and MTPU single-core speedups (over a scalar
// GSC-like engine) at one ERC-20 share.
type Table8Row struct {
	ERC20Share  float64
	BPUSpeedup  float64
	MTPUSpeedup float64
}

// Table8 reproduces the single-core BPU-vs-MTPU comparison. Shares fan
// out over env.Workers.
func Table8(env *Env) []Table8Row {
	erc20Addrs, erc20Sels := erc20AppSet(env.Gen)
	rows := make([]Table8Row, len(ERC20Shares))
	env.forEachPoint(len(rows), func(i int) {
		share := ERC20Shares[i]
		e := env.cache.Get(workload.Spec{Kind: "erc20", Txs: CompareBlockSize, Share: share})
		scalarRes := env.replay(e, core.ModeScalar, 1)
		mtpuRes := env.replay(e, core.ModeSTHotspot, 1)

		flags := erc20Flags(e.Block.Transactions, erc20Addrs, erc20Sels)
		bpu := newBPU(1, e.Traces, flags)
		bpuRes := bpu.RunSequential(len(e.Traces))

		rows[i] = Table8Row{
			ERC20Share:  share,
			BPUSpeedup:  float64(scalarRes.Cycles) / float64(bpuRes.Makespan),
			MTPUSpeedup: float64(scalarRes.Cycles) / float64(mtpuRes.Cycles),
		}
	})
	return rows
}

// RenderTable8 formats the Table 8 data.
func RenderTable8(rows []Table8Row) string {
	headers := []string{""}
	for _, r := range rows {
		headers = append(headers, fmt.Sprintf("%.0f%%", r.ERC20Share*100))
	}
	t := metrics.NewTable("Table 8 — BPU vs MTPU, single core, by ERC-20 share", headers...)
	bpu := []any{"BPU"}
	mtpu := []any{"MTPU"}
	for _, r := range rows {
		bpu = append(bpu, metrics.X(r.BPUSpeedup))
		mtpu = append(mtpu, metrics.X(r.MTPUSpeedup))
	}
	t.Row(bpu...)
	t.Row(mtpu...)
	return t.String()
}

// Table9Ratios is the Table 9 dependent-transaction sweep.
var Table9Ratios = []float64{1.0, 0.8, 0.6, 0.4, 0.2, 0.0}

// Table9Row compares quad-core BPU and MTPU at one dependency ratio.
type Table9Row struct {
	DepRatio    float64
	BPUSpeedup  float64
	MTPUSpeedup float64
}

// Table9 reproduces the quad-core comparison over dependency ratios.
// Ratios fan out over env.Workers.
func Table9(env *Env) []Table9Row {
	erc20Addrs, erc20Sels := erc20AppSet(env.Gen)
	rows := make([]Table9Row, len(Table9Ratios))
	env.forEachPoint(len(rows), func(i int) {
		ratio := Table9Ratios[i]
		e := env.cache.Get(workload.Spec{Kind: "mixed", Txs: CompareBlockSize, Dep: ratio})
		scalarRes := env.replay(e, core.ModeScalar, 1)
		mtpuRes := env.replay(e, core.ModeSTHotspot, 4)

		flags := erc20Flags(e.Block.Transactions, erc20Addrs, erc20Sels)
		bpu := newBPU(4, e.Traces, flags)
		bpuRes := bpu.RunSynchronous(e.Block.DAG)

		rows[i] = Table9Row{
			DepRatio:    ratio,
			BPUSpeedup:  float64(scalarRes.Cycles) / float64(bpuRes.Makespan),
			MTPUSpeedup: float64(scalarRes.Cycles) / float64(mtpuRes.Cycles),
		}
	})
	return rows
}

// RenderTable9 formats the Table 9 data.
func RenderTable9(rows []Table9Row) string {
	headers := []string{""}
	for _, r := range rows {
		headers = append(headers, fmt.Sprintf("%.0f%%", r.DepRatio*100))
	}
	t := metrics.NewTable("Table 9 — BPU vs MTPU, quad core, by dependent-tx ratio", headers...)
	bpu := []any{"BPU"}
	mtpu := []any{"MTPU"}
	for _, r := range rows {
		bpu = append(bpu, metrics.X(r.BPUSpeedup))
		mtpu = append(mtpu, metrics.X(r.MTPUSpeedup))
	}
	t.Row(bpu...)
	t.Row(mtpu...)
	return t.String()
}
