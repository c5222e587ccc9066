package hotspot_test

import (
	"bytes"
	"reflect"
	"testing"

	"mtpu/internal/arch"
	"mtpu/internal/core"
	"mtpu/internal/difftest"
	"mtpu/internal/hotspot"
	"mtpu/internal/types"
	"mtpu/internal/workload"
)

// chainTraces replays a chained block source sequentially and returns
// every block's traces in stream order.
func chainTraces(t *testing.T, src *workload.Stream) []*arch.TxTrace {
	t.Helper()
	st := src.Genesis().Copy()
	var traces []*arch.TxTrace
	for {
		b, ok := src.Next()
		if !ok {
			return traces
		}
		batch, _, _, err := core.CollectTracesOn(st, b)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, batch...)
	}
}

// specTraces returns the traces of one difftest spec, single block or
// chain.
func specTraces(t *testing.T, spec difftest.Spec) []*arch.TxTrace {
	t.Helper()
	if spec.Workload.Blocks > 0 {
		src, err := spec.Workload.OpenSource()
		if err != nil {
			t.Fatal(err)
		}
		return chainTraces(t, src)
	}
	genesis, block, err := spec.Workload.Generate()
	if err != nil {
		t.Fatal(err)
	}
	traces, _, _, err := core.CollectTraces(genesis, block)
	if err != nil {
		t.Fatal(err)
	}
	return traces
}

// failingTraces returns traces of TetherUSD calls that leave the usual
// path: the same batch as the fixture, but every third transaction runs
// out of gas part-way through its entry function and every fourth moves
// more than its sender holds.
func failingTraces(t *testing.T) []*arch.TxTrace {
	t.Helper()
	g := workload.NewGenerator(99, 1024)
	genesis := g.Genesis()
	block := g.Batch(g.Contract("TetherUSD"), 48)
	for i, tx := range block.Transactions {
		switch {
		case i%3 == 0:
			tx.GasLimit = 21000 + uint64(16*len(tx.Data)) + 400 + uint64(i)*37
		case i%4 == 0 && len(tx.Data) >= 36:
			for j := len(tx.Data) - 32; j < len(tx.Data); j++ {
				tx.Data[j] = 0xff
			}
		}
	}
	traces, receipts, _, err := core.CollectTraces(genesis, block)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, r := range receipts {
		if r.Status != types.ReceiptSuccess {
			failed++
		}
	}
	if failed < 8 {
		t.Fatalf("only %d of %d doctored transactions failed; the fixture no longer leaves the usual path", failed, len(receipts))
	}
	return traces
}

// memoCorpus is every trace sequence the memo is checked on: the
// difftest grid and corpus (which include all five scenario shapes),
// longer runs of the five scenario generators, and failing calls.
func memoCorpus(t *testing.T) map[string][]*arch.TxTrace {
	t.Helper()
	out := make(map[string][]*arch.TxTrace)
	grid, err := difftest.LoadGrid("../difftest/testdata/grid.json")
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := difftest.CorpusSpecs("../difftest/testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	var all []*arch.TxTrace
	for _, spec := range append(grid, corpus...) {
		all = append(all, specTraces(t, spec)...)
	}
	out["difftest"] = all
	for _, name := range workload.Scenarios {
		src, err := workload.Spec{Kind: name, Blocks: 8, Txs: 48, Skew: 1.2, Seed: 31}.OpenSource()
		if err != nil {
			t.Fatal(err)
		}
		out["scenario-"+name] = chainTraces(t, src)
	}
	out["failing"] = failingTraces(t)
	return out
}

// sameTable requires the memoised table to hold exactly what the
// analyse-every-trace reference holds.
func sameTable(t *testing.T, name string, got, want *hotspot.ContractTable) {
	t.Helper()
	if !reflect.DeepEqual(got.Keys(), want.Keys()) {
		t.Fatalf("%s: tables hold different keys", name)
	}
	for _, k := range want.Keys() {
		g, w := got.Lookup(k.Addr, k.Selector), want.Lookup(k.Addr, k.Selector)
		if g.PreExecLen != w.PreExecLen || g.Samples != w.Samples ||
			!reflect.DeepEqual(g.Flags, w.Flags) || !reflect.DeepEqual(g.LoadFrac, w.LoadFrac) {
			t.Fatalf("%s: entry %x/%x differs from the reference", name, k.Addr, k.Selector)
		}
	}
	gj, err := got.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	wj, err := want.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gj, wj) {
		t.Fatalf("%s: persisted tables differ", name)
	}
}

// TestLearnMemoMatchesAnalyzingEveryTrace is the memo's exactness
// property: over every corpus sequence, forwards and backwards, the
// table Learn builds equals the one built by analysing every trace, and
// the two counters account for every trace either of them accepted.
func TestLearnMemoMatchesAnalyzingEveryTrace(t *testing.T) {
	var sawReuse, sawManyPaths bool
	for name, traces := range memoCorpus(t) {
		reversed := make([]*arch.TxTrace, len(traces))
		for i, tr := range traces {
			reversed[len(traces)-1-i] = tr
		}
		for _, seq := range [][]*arch.TxTrace{traces, reversed} {
			memo, ref := hotspot.NewContractTable(), hotspot.NewContractTable()
			for _, tr := range seq {
				memo.Learn(tr)
				ref.LearnAnalyzingEveryTrace(tr)
			}
			sameTable(t, name, memo, ref)
			analyzed, reused := memo.LearnCounts()
			if analyzed+reused != memo.Samples() || memo.Samples() != ref.Samples() {
				t.Fatalf("%s: analyzed %d + reused %d, samples %d, reference samples %d",
					name, analyzed, reused, memo.Samples(), ref.Samples())
			}
			sawReuse = sawReuse || reused > 0
			sawManyPaths = sawManyPaths || analyzed > uint64(memo.Len())
		}
	}
	if !sawReuse || !sawManyPaths {
		t.Fatalf("corpus too tame: reuse seen %v, an entry with several paths seen %v", sawReuse, sawManyPaths)
	}
}

// TestLearnMemoInterleavedPaths feeds A, B, A for two paths of one entry:
// B's merge in between must not make the second A anything but a no-op.
func TestLearnMemoInterleavedPaths(t *testing.T) {
	var a, b *arch.TxTrace
	first := make(map[hotspot.Key]*arch.TxTrace)
	for _, tr := range failingTraces(t) {
		if !tr.HasSelector || len(tr.Steps) == 0 {
			continue
		}
		k := hotspot.Key{Addr: tr.Contract, Selector: tr.Selector}
		if prev := first[k]; prev == nil {
			first[k] = tr
		} else if hotspot.PathHash(prev) != hotspot.PathHash(tr) {
			a, b = prev, tr
			break
		}
	}
	if a == nil {
		t.Fatal("no entry with two execution paths in the fixture")
	}
	memo, ref := hotspot.NewContractTable(), hotspot.NewContractTable()
	for _, tr := range []*arch.TxTrace{a, b, a, b, b, a} {
		memo.Learn(tr)
		ref.LearnAnalyzingEveryTrace(tr)
		sameTable(t, "A,B,A", memo, ref)
	}
	if analyzed, reused := memo.LearnCounts(); analyzed != 2 || reused != 4 {
		t.Fatalf("analyzed %d reused %d, want 2 and 4", analyzed, reused)
	}
}

// TestLearnAfterRestore round-trips a table through its persisted form
// and keeps learning: the restored table remembers no paths, re-analyses
// each on first sight, and ends equal to a table that never stopped.
func TestLearnAfterRestore(t *testing.T) {
	traces := determinismTraces(t)
	half := len(traces) / 2
	whole := learn(traces)

	data, err := learn(traces[:half]).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	restored := hotspot.NewContractTable()
	if err := restored.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces[half:] {
		restored.Learn(tr)
	}
	sameTable(t, "restored", restored, whole)
	analyzed, reused := restored.LearnCounts()
	if analyzed == 0 || analyzed+reused != uint64(len(traces)-half) {
		t.Fatalf("restored table analyzed %d reused %d of %d traces", analyzed, reused, len(traces)-half)
	}
}

// TestLearnKnownPathAllocatesNothing guards the warm path: recognising
// a merged path hashes and compares in place.
func TestLearnKnownPathAllocatesNothing(t *testing.T) {
	_, _, traces := fixture(t, "TetherUSD", 30)
	table := learn(traces)
	if allocs := testing.AllocsPerRun(20, func() {
		for _, tr := range traces {
			table.Learn(tr)
		}
	}); allocs != 0 {
		t.Fatalf("warm Learn allocates %.0f times per pass", allocs)
	}
	if _, reused := table.LearnCounts(); reused == 0 {
		t.Fatal("warm passes never reused a path")
	}
}
