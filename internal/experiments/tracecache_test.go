package experiments

import (
	"sync"
	"testing"

	"mtpu/internal/core"
	"mtpu/internal/workload"
)

// newTestCache is a small cache over its own generator's genesis.
func newTestCache() *traceCache {
	return newTraceCache(7, 512, workload.NewGenerator(7, 512).Genesis())
}

// TestEntryMatchesSequentialOracle holds the one-pass decode at the
// cache's head to the from-scratch oracles, for every spec kind: the
// receipts, digest and per-trace instruction counts of a sequential run
// over a genesis copy, and — for the scheduled kinds — the pairwise
// conflict derivation of workload.VerifyDAG.
func TestEntryMatchesSequentialOracle(t *testing.T) {
	genesis := workload.NewGenerator(7, 512).Genesis()
	c := newTraceCache(7, 512, genesis)
	specs := []workload.Spec{
		{Kind: "token", Txs: 48, Dep: 0.5}, {Kind: "erc20", Txs: 48, Share: 0.5}, {Kind: "mixed", Txs: 48, Dep: 0.4},
		{Kind: "sct", Txs: 48, Share: 0.6}, {Kind: "batch", Txs: 24, Contract: "TetherUSD"},
	}
	for _, spec := range specs {
		e := c.Get(spec)
		traces, receipts, digest, err := core.CollectTracesOn(genesis.Copy(), e.Block)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if e.Digest != digest {
			t.Errorf("%+v: entry digest %s != sequential %s", spec, e.Digest, digest)
		}
		if len(e.Receipts) != len(receipts) || len(e.Traces) != len(traces) {
			t.Fatalf("%+v: %d receipts / %d traces, sequential %d / %d",
				spec, len(e.Receipts), len(e.Traces), len(receipts), len(traces))
		}
		for i, r := range receipts {
			if got := e.Receipts[i]; got.Status != r.Status || got.GasUsed != r.GasUsed {
				t.Errorf("%+v: tx %d status %d / gas %d, sequential %d / %d",
					spec, i, got.Status, got.GasUsed, r.Status, r.GasUsed)
			}
			if got, want := e.Traces[i].InstructionCount(), traces[i].InstructionCount(); got != want {
				t.Errorf("%+v: tx %d traced %d instructions, sequential %d", spec, i, got, want)
			}
		}
		if scheduled(spec) {
			if err := workload.VerifyDAG(genesis, e.Block); err != nil {
				t.Errorf("%+v: %v", spec, err)
			}
		}
	}
}

func TestGetMemoizes(t *testing.T) {
	c := newTestCache()
	spec := workload.Spec{Kind: "token", Txs: 32, Dep: 0.5}
	a := c.Get(spec)
	b := c.Get(spec)
	if a != b {
		t.Fatal("repeat Get returned a different entry")
	}
	// The cache pins the seed and account pool to its own.
	spec.Seed, spec.Accounts = 99, 64
	if c.Get(spec) != a {
		t.Fatal("Get keyed on the caller's seed or account pool")
	}
	if hits, misses := c.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 2/1", hits, misses)
	}
	if len(a.Traces) != len(a.Block.Transactions) {
		t.Fatalf("%d traces for %d transactions", len(a.Traces), len(a.Block.Transactions))
	}
	if a.Block.DAG == nil {
		t.Fatal("token entry is missing its DAG")
	}
}

func TestGetConcurrent(t *testing.T) {
	c := newTestCache()
	specs := []workload.Spec{
		{Kind: "token", Txs: 24, Dep: 0.3}, {Kind: "erc20", Txs: 24, Share: 0.5}, {Kind: "mixed", Txs: 24, Dep: 0.4},
		{Kind: "sct", Txs: 24, Share: 0.6}, {Kind: "batch", Txs: 12, Contract: "TetherUSD"},
	}
	const goroutines = 8
	entries := make([][]*cacheEntry, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := make([]*cacheEntry, len(specs))
			for i, s := range specs {
				got[i] = c.Get(s)
			}
			entries[g] = got
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range specs {
			if entries[g][i] != entries[0][i] {
				t.Fatalf("goroutine %d got a different entry for %+v", g, specs[i])
			}
		}
	}
	if _, misses := c.Stats(); misses != int64(len(specs)) {
		t.Fatalf("misses = %d, want %d (each spec built once)", misses, len(specs))
	}
}

func TestSpecIndependentOfCallOrder(t *testing.T) {
	// Each spec builds from a fresh generator, so the same spec yields
	// the same workload no matter what was requested before it.
	a := newTestCache()
	first := a.Get(workload.Spec{Kind: "token", Txs: 32, Dep: 0.5})

	b := newTestCache()
	b.Get(workload.Spec{Kind: "erc20", Txs: 24, Share: 0.5})
	b.Get(workload.Spec{Kind: "batch", Txs: 8, Contract: "Dai"})
	second := b.Get(workload.Spec{Kind: "token", Txs: 32, Dep: 0.5})

	if first.Digest != second.Digest {
		t.Fatalf("digest depends on call order: %x vs %x", first.Digest, second.Digest)
	}
	if len(first.Traces) != len(second.Traces) {
		t.Fatalf("trace counts differ: %d vs %d", len(first.Traces), len(second.Traces))
	}
}

func TestPlainPlans(t *testing.T) {
	c := newTestCache()
	e := c.Get(workload.Spec{Kind: "batch", Txs: 8, Contract: "TetherUSD"})
	p1 := e.PlainPlans()
	p2 := e.PlainPlans()
	if len(p1) != len(e.Traces) {
		t.Fatalf("%d plans for %d traces", len(p1), len(e.Traces))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("PlainPlans rebuilt plans on second call")
		}
		if p1[i].Trace != e.Traces[i] {
			t.Fatalf("plan %d does not wrap trace %d", i, i)
		}
	}
}
