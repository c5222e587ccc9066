package hotspot_test

import (
	"testing"

	"mtpu/internal/arch"
	"mtpu/internal/contracts"
	"mtpu/internal/core"
	"mtpu/internal/evm"
	"mtpu/internal/hotspot"
	"mtpu/internal/state"
	"mtpu/internal/workload"
)

// fixture collects traces for a same-contract batch.
func fixture(t *testing.T, name string, n int) (*workload.Generator, *state.StateDB, []*arch.TxTrace) {
	t.Helper()
	g := workload.NewGenerator(321, 1024)
	genesis := g.Genesis()
	block := g.Batch(g.Contract(name), n)
	traces, _, _, err := core.CollectTraces(genesis, block)
	if err != nil {
		t.Fatal(err)
	}
	return g, genesis, traces
}

func TestLearnBuildsEntries(t *testing.T) {
	_, _, traces := fixture(t, "TetherUSD", 30)
	table := hotspot.NewContractTable()
	for _, tr := range traces {
		table.Learn(tr)
	}
	if table.Len() < 5 {
		t.Fatalf("only %d entries for a 6-function batch", table.Len())
	}
	keys := table.Keys()
	for i := 1; i < len(keys); i++ {
		if string(keys[i-1].Selector[:]) >= string(keys[i].Selector[:]) &&
			keys[i-1].Addr == keys[i].Addr {
			t.Fatal("keys not deterministic/sorted")
		}
	}
}

func TestLearnIgnoresTransfersAndEmpty(t *testing.T) {
	table := hotspot.NewContractTable()
	if table.Learn(&arch.TxTrace{IsTransfer: true}) != nil {
		t.Fatal("transfer learned")
	}
	if table.Learn(&arch.TxTrace{HasSelector: true}) != nil {
		t.Fatal("empty trace learned")
	}
	if table.Len() != 0 {
		t.Fatal("table not empty")
	}
}

func TestPreExecCoversCompareAndCheck(t *testing.T) {
	g, _, traces := fixture(t, "TetherUSD", 30)
	table := hotspot.NewContractTable()
	for _, tr := range traces {
		table.Learn(tr)
	}
	tether := g.Contract("TetherUSD")
	info := table.Lookup(tether.Address, tether.Function("transfer").Selector)
	if info == nil {
		t.Fatal("no transfer entry")
	}
	if info.PreExecLen < 10 {
		t.Fatalf("pre-exec covers only %d steps", info.PreExecLen)
	}
	// The pre-executed prefix must contain no storage or context work.
	for _, tr := range traces {
		if !tr.HasSelector || tr.Selector != tether.Function("transfer").Selector {
			continue
		}
		for i := 0; i < info.PreExecLen && i < len(tr.Steps); i++ {
			u := tr.Steps[i].Op.Unit()
			if u == evm.FUStorage || u == evm.FUContext {
				t.Fatalf("pre-executed step %d is %s", i, tr.Steps[i].Op)
			}
		}
		break
	}
}

func TestPlanNeverSkipsEffectfulInstructions(t *testing.T) {
	for _, name := range []string{"TetherUSD", "UniswapV2Router02", "OpenSea",
		"MainchainGatewayProxy", "LinkToken"} {
		_, _, traces := fixture(t, name, 24)
		table := hotspot.NewContractTable()
		for _, tr := range traces {
			table.Learn(tr)
		}
		for _, tr := range traces {
			plan := table.Plan(tr)
			// Build the kept-step multiset and check what was dropped.
			kept := map[int]bool{}
			j := 0
			for i := range tr.Steps {
				if j < len(plan.Steps) && plan.Steps[j] == tr.Steps[i] {
					kept[i] = true
					j++
				}
			}
			info := table.Lookup(tr.Contract, tr.Selector)
			if info == nil {
				continue
			}
			for i, s := range tr.Steps {
				if kept[i] || i < info.PreExecLen {
					continue
				}
				switch s.Op.Unit() {
				case evm.FUStorage, evm.FUContext, evm.FUControl, evm.FUBranch:
					if s.Op != evm.JUMPDEST {
						t.Fatalf("%s: skipped effectful %s at step %d", name, s.Op, i)
					}
				}
			}
		}
	}
}

func TestPlanUnknownContractPassesThrough(t *testing.T) {
	_, _, traces := fixture(t, "TetherUSD", 6)
	table := hotspot.NewContractTable() // empty: nothing learned
	for _, tr := range traces {
		plan := table.Plan(tr)
		if plan.SkippedInstructions != 0 || len(plan.Steps) != len(tr.Steps) {
			t.Fatal("unlearned trace was modified")
		}
	}
}

func TestLoadFractionBounds(t *testing.T) {
	_, _, traces := fixture(t, "TetherUSD", 30)
	table := hotspot.NewContractTable()
	for _, tr := range traces {
		table.Learn(tr)
	}
	for _, key := range table.Keys() {
		info := table.Lookup(key.Addr, key.Selector)
		f := info.LoadFractionOf(key.Addr)
		if f <= 0 || f > 1 {
			t.Fatalf("load fraction %f out of range", f)
		}
		// The hotspot headline: far less than the full bytecode loads.
		if f > 0.6 {
			t.Errorf("load fraction %.2f suspiciously high for %x", f, key.Selector)
		}
	}
	// Unknown address defaults to full load.
	info := table.Lookup(contracts.TetherAddr, contracts.NewTether().Function("transfer").Selector)
	if info.LoadFractionOf(contracts.WETHAddr) != 1 {
		t.Fatal("unknown address load fraction != 1")
	}
}

func TestPrefetchMarksOnlyStateReads(t *testing.T) {
	_, _, traces := fixture(t, "TetherUSD", 30)
	table := hotspot.NewContractTable()
	for _, tr := range traces {
		table.Learn(tr)
	}
	for _, tr := range traces {
		plan := table.Plan(tr)
		for i, a := range plan.Ann {
			if !a.Prefetched {
				continue
			}
			op := plan.Steps[i].Op
			if op != evm.SLOAD && op.Unit() != evm.FUStateQuery {
				t.Fatalf("prefetch annotation on %s", op)
			}
		}
	}
}

func TestMergeIntersectsAcrossPaths(t *testing.T) {
	// Learning transfer traces with different branch behaviour (different
	// balances) must keep only universally valid annotations; Samples
	// counts the merges.
	g, _, traces := fixture(t, "TetherUSD", 40)
	table := hotspot.NewContractTable()
	count := 0
	sel := g.Contract("TetherUSD").Function("transfer").Selector
	for _, tr := range traces {
		if tr.HasSelector && tr.Selector == sel {
			table.Learn(tr)
			count++
		}
	}
	info := table.Lookup(g.Contract("TetherUSD").Address, sel)
	if info.Samples != count {
		t.Fatalf("samples %d, want %d", info.Samples, count)
	}
}

func TestProxyGetsNoPreExec(t *testing.T) {
	// The proxy's top frame delegatecalls before any dispatch; its
	// Compare chunk cannot be pre-executed.
	g, _, traces := fixture(t, "FiatTokenProxy", 12)
	table := hotspot.NewContractTable()
	for _, tr := range traces {
		table.Learn(tr)
	}
	proxy := g.Contract("FiatTokenProxy")
	for _, f := range proxy.Functions {
		if info := table.Lookup(proxy.Address, f.Selector); info != nil {
			if info.PreExecLen != 0 {
				t.Fatalf("%s: proxy pre-exec %d", f.Name, info.PreExecLen)
			}
		}
	}
}

func TestOptimizedPlanIsSmallerButNotEmpty(t *testing.T) {
	_, _, traces := fixture(t, "Dai", 24)
	table := hotspot.NewContractTable()
	for _, tr := range traces {
		table.Learn(tr)
	}
	for _, tr := range traces {
		if !tr.HasSelector {
			continue
		}
		plan := table.Plan(tr)
		if len(plan.Steps) >= len(tr.Steps) {
			t.Fatalf("no reduction: %d vs %d", len(plan.Steps), len(tr.Steps))
		}
		if len(plan.Steps) == 0 {
			t.Fatal("plan emptied the transaction")
		}
		if plan.SkippedInstructions+len(plan.Steps) != len(tr.Steps) {
			t.Fatalf("step accounting: %d + %d != %d",
				plan.SkippedInstructions, len(plan.Steps), len(tr.Steps))
		}
	}
}
