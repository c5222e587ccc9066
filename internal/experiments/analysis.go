package experiments

import (
	"fmt"

	"mtpu/internal/arch"
	"mtpu/internal/contracts"
	"mtpu/internal/core"
	"mtpu/internal/evm"
	"mtpu/internal/hotspot"
	"mtpu/internal/metrics"
	"mtpu/internal/types"
)

// Table2Case identifies one (contract, function) of Table 2.
type Table2Case struct {
	Contract string
	Function string
	Args     []any
	Value    uint64
	Caller   int // workload account index
}

// Table2Cases mirrors the paper's four examples (CryptoCat →
// CryptoAuction archetype).
var Table2Cases = []Table2Case{
	{Contract: "TetherUSD", Function: "transfer", Args: []any{workloadAccount(1), uint64(10)}},
	{Contract: "WETH9", Function: "withdraw", Args: []any{uint64(100)}},
	{Contract: "CryptoAuction", Function: "createSaleAuction", Args: []any{uint64(1 << 21), uint64(500)}},
	{Contract: "Ballot", Function: "vote", Args: []any{uint64(1)}},
}

func workloadAccount(i int) types.Address {
	var b [20]byte
	b[0] = 0xAC
	b[19] = byte(i)
	return types.Address(b)
}

// Table2Row reports the bytecode share of one invocation's loaded context.
type Table2Row struct {
	Contract, Function string
	BytecodeBytes      int
	OtherBytes         int
	BytecodeShare      float64
}

// fixedContextBytes approximates the fixed-length transaction and block
// header parameters of Table 4 loaded for every execution: nonce,
// gas fields, from, to, value, data length, plus the header words the
// environment instructions can read.
const fixedContextBytes = 104

// Table2 measures the proportion of bytecode in the loaded execution
// context for the paper's four example invocations.
func Table2(env *Env) []Table2Row {
	var rows []Table2Row
	for _, tc := range Table2Cases {
		c := env.Gen.Contract(tc.Contract)
		from := workloadAccount(200 + len(rows))
		input := contracts.EncodeCall(c.Function(tc.Function), tc.Args...)
		to := c.Address
		tx := &types.Transaction{
			Nonce: 0, GasPrice: 1, GasLimit: 2_000_000,
			From: from, To: &to, Data: input,
		}
		tx.Value.SetUint64(tc.Value)
		block := types.NewBlock(env.Gen.Header(), []*types.Transaction{tx})
		prep, err := core.PrepareBlock(env.cache.head, block)
		if err != nil {
			panic(fmt.Sprintf("experiments: table2 %s.%s: %v", tc.Contract, tc.Function, err))
		}
		t := prep.Traces[0]
		bytecode := 0
		for _, cl := range t.CodeLoads {
			bytecode += cl.CodeBytes
		}
		slots := map[types.Hash]bool{}
		queries := 0
		for _, s := range t.Steps {
			switch {
			case s.Op == evm.SLOAD || s.Op == evm.SSTORE:
				_, slot := t.Syms.TouchKey(s.TouchID)
				slots[slot] = true
			case s.Op.Unit() == evm.FUStateQuery:
				queries++
			}
		}
		other := fixedContextBytes + len(input) + 32*len(slots) + 32*queries
		rows = append(rows, Table2Row{
			Contract:      tc.Contract,
			Function:      tc.Function,
			BytecodeBytes: bytecode,
			OtherBytes:    other,
			BytecodeShare: float64(bytecode) / float64(bytecode+other),
		})
	}
	return rows
}

// RenderTable2 formats the Table 2 data.
func RenderTable2(rows []Table2Row) string {
	t := metrics.NewTable("Table 2 — bytecode share of the loaded execution context",
		"Contract", "Function", "Bytecode(B)", "Other(B)", "Bytecode%")
	for _, r := range rows {
		t.Row(r.Contract, r.Function, r.BytecodeBytes, r.OtherBytes,
			metrics.Pct(r.BytecodeShare))
	}
	return t.String()
}

// Table6Row is one contract's dynamic instruction mix by functional unit.
type Table6Row struct {
	Contract string
	// Shares indexed by evm.FuncUnit (fractions of executed instructions).
	Shares [evm.NumFuncUnits]float64
}

// Table6 measures the executed-instruction breakdown of the TOP-8
// contracts over their entry-function batches. Contracts fan out over
// env.Workers.
func Table6(env *Env) []Table6Row {
	rows := make([]Table6Row, len(Top8Names))
	env.forEachPoint(len(rows), func(i int) {
		name := Top8Names[i]
		traces := env.batchTraces(name, 32)
		var counts [evm.NumFuncUnits]int
		total := 0
		for _, tr := range traces {
			for _, s := range tr.Steps {
				u := s.Op.Unit()
				if int(u) < evm.NumFuncUnits {
					counts[u]++
					total++
				}
			}
		}
		row := Table6Row{Contract: name}
		for u := 0; u < evm.NumFuncUnits; u++ {
			row.Shares[u] = float64(counts[u]) / float64(total)
		}
		rows[i] = row
	})
	return rows
}

// RenderTable6 formats the Table 6 data.
func RenderTable6(rows []Table6Row) string {
	headers := []string{"Contract"}
	for u := 0; u < evm.NumFuncUnits; u++ {
		headers = append(headers, evm.FuncUnit(u).String())
	}
	t := metrics.NewTable("Table 6 — executed instruction breakdown by functional unit", headers...)
	var avg [evm.NumFuncUnits]float64
	for _, r := range rows {
		cells := []any{r.Contract}
		for u := 0; u < evm.NumFuncUnits; u++ {
			cells = append(cells, metrics.Pct(r.Shares[u]))
			avg[u] += r.Shares[u]
		}
		t.Row(cells...)
	}
	cells := []any{"Avg"}
	for u := 0; u < evm.NumFuncUnits; u++ {
		cells = append(cells, metrics.Pct(avg[u]/float64(len(rows))))
	}
	t.Row(cells...)
	return t.String()
}

// ChunkingRow reports the §3.4 hotspot analysis for one (contract,
// function): the fraction of bytecode loaded after chunking plus
// pre-execution (the paper reports 8.2% for TetherToken transfer), and
// the instruction reductions.
type ChunkingRow struct {
	Contract, Function string
	LoadFraction       float64
	PreExecSteps       int
	TotalSteps         int
	SkippedFraction    float64
	PrefetchedSLOADs   int
	TotalSLOADs        int
}

// Chunking analyzes every TOP-8 entry function observed in a mixed
// batch. Contracts fan out over env.Workers; per-contract row groups are
// flattened in Top8Names order so the output is order-independent.
func Chunking(env *Env) []ChunkingRow {
	groups := make([][]ChunkingRow, len(Top8Names))
	env.forEachPoint(len(groups), func(gi int) {
		name := Top8Names[gi]
		c := env.Gen.Contract(name)
		traces := env.batchTraces(name, 40)
		var rows []ChunkingRow
		table := hotspot.NewContractTable()
		samples := map[[4]byte]*arch.TxTrace{}
		for _, tr := range traces {
			if tr.HasSelector {
				table.Learn(tr)
				if samples[tr.Selector] == nil {
					samples[tr.Selector] = tr
				}
			}
		}
		for _, key := range table.Keys() {
			info := table.Lookup(key.Addr, key.Selector)
			sample := samples[key.Selector]
			if sample == nil {
				continue
			}
			fn, ok := c.FunctionBySelector(key.Selector)
			if !ok {
				continue
			}
			plan := table.Plan(sample)
			slTotal, slPref := 0, 0
			for i := range plan.Steps {
				if plan.Steps[i].Op == evm.SLOAD {
					slTotal++
					if i < len(plan.Ann) && plan.Ann[i].Prefetched {
						slPref++
					}
				}
			}
			rows = append(rows, ChunkingRow{
				Contract:         name,
				Function:         fn.Name,
				LoadFraction:     info.LoadFractionOf(key.Addr),
				PreExecSteps:     info.PreExecLen,
				TotalSteps:       len(sample.Steps),
				SkippedFraction:  float64(plan.SkippedInstructions) / float64(len(sample.Steps)),
				PrefetchedSLOADs: slPref,
				TotalSLOADs:      slTotal,
			})
		}
		groups[gi] = rows
	})
	var rows []ChunkingRow
	for _, g := range groups {
		rows = append(rows, g...)
	}
	return rows
}

// RenderChunking formats the hotspot-analysis report.
func RenderChunking(rows []ChunkingRow) string {
	t := metrics.NewTable("§3.4 — hotspot chunking, pre-execution, elimination and prefetch",
		"Contract", "Function", "Load%", "PreExec", "Steps", "Skipped%", "Prefetch")
	for _, r := range rows {
		t.Row(r.Contract, r.Function, metrics.Pct(r.LoadFraction), r.PreExecSteps,
			r.TotalSteps, metrics.Pct(r.SkippedFraction),
			fmt.Sprintf("%d/%d", r.PrefetchedSLOADs, r.TotalSLOADs))
	}
	return t.String()
}
