package experiments

import (
	"testing"

	"mtpu/internal/arch"
	"mtpu/internal/core"
	"mtpu/internal/types"
	"mtpu/internal/workload"
)

func blockAndTraces(t *testing.T, share float64) (*workload.Generator, []*arch.TxTrace, *types.Block) {
	t.Helper()
	g := workload.NewGenerator(55, 2048)
	genesis := g.Genesis()
	block := g.ERC20Block(60, share)
	if _, err := workload.BuildDAG(genesis, block); err != nil {
		t.Fatal(err)
	}
	traces, _, _, err := core.CollectTraces(genesis, block)
	if err != nil {
		t.Fatal(err)
	}
	return g, traces, block
}

func flags(g *workload.Generator, block *types.Block) []bool {
	tether := g.Contract("TetherUSD")
	addrs := map[types.Address]bool{tether.Address: true}
	sels := map[[4]byte]bool{tether.Function("transfer").Selector: true}
	return erc20Flags(block.Transactions, addrs, sels)
}

func TestERC20FlagsSelectivity(t *testing.T) {
	g, _, block := blockAndTraces(t, 0.5)
	fs := flags(g, block)
	count := 0
	tether := g.Contract("TetherUSD").Address
	for i, tx := range block.Transactions {
		isTransfer := tx.To != nil && *tx.To == tether
		if fs[i] != isTransfer {
			t.Fatalf("tx %d flag %v, to=%s", i, fs[i], tx.To)
		}
		if fs[i] {
			count++
		}
	}
	if count != 30 {
		t.Fatalf("%d flagged, want 30", count)
	}
}

func TestAppEngineAcceleratesFlagged(t *testing.T) {
	g, traces, block := blockAndTraces(t, 1.0)
	fs := flags(g, block)

	all := newBPU(1, traces, fs)
	resFast := all.RunSequential(len(traces))

	none := newBPU(1, traces, make([]bool, len(traces)))
	resSlow := none.RunSequential(len(traces))

	ratio := float64(resSlow.Makespan) / float64(resFast.Makespan)
	// All transactions flagged → ratio approaches bpuAppSpeedup
	// (diluted only by the fixed per-tx context-load time).
	if ratio < bpuAppSpeedup*0.5 || ratio > bpuAppSpeedup*1.05 {
		t.Fatalf("app-engine ratio %.2f, expected near %.2f", ratio, bpuAppSpeedup)
	}
}

func TestBPUSynchronousParallelism(t *testing.T) {
	g, traces, block := blockAndTraces(t, 0.0)
	fs := flags(g, block)
	single := newBPU(1, traces, fs).RunSequential(len(traces))
	quadEngine := newBPU(4, traces, fs)
	quad := quadEngine.RunSynchronous(block.DAG)
	sp := float64(single.Makespan) / float64(quad.Makespan)
	if sp < 1.5 {
		t.Fatalf("quad BPU speedup %.2f", sp)
	}
	if quad.Makespan == 0 {
		t.Fatal("zero makespan")
	}
}

func TestDispatchCostNeverZero(t *testing.T) {
	// Even a maximally accelerated transaction costs at least one cycle.
	g := workload.NewGenerator(77, 256)
	genesis := g.Genesis()
	block := g.ERC20Block(4, 1.0)
	traces, _, _, err := core.CollectTraces(genesis, block)
	if err != nil {
		t.Fatal(err)
	}
	fs := make([]bool, len(traces))
	for i := range fs {
		fs[i] = true
	}
	b := newBPU(1, traces, fs)
	for i := range traces {
		if c := b.Dispatch(0, i); c == 0 {
			t.Fatalf("tx %d cost 0", i)
		}
	}
}
