package hotspot_test

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"mtpu/internal/arch"
	"mtpu/internal/arch/pipeline"
	"mtpu/internal/arch/pu"
	"mtpu/internal/evm"
	"mtpu/internal/hotspot"
	"mtpu/internal/types"
)

// refPC keys the reference annotation sets by code address and pc.
type refPC struct {
	addr types.Address
	pc   uint64
}

// refEntry is one Contract Table entry as per-(address, pc) sets, read
// back from the persisted form.
type refEntry struct {
	preExecLen               int
	skip, constOps, prefetch map[refPC]bool
	loadFrac                 map[types.Address]float64
}

// refTable decodes table's persisted JSON into reference entries.
func refTable(t *testing.T, table *hotspot.ContractTable) map[hotspot.Key]*refEntry {
	t.Helper()
	blob, err := table.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	type pc struct {
		Addr string `json:"addr"`
		PC   uint64 `json:"pc"`
	}
	var entries []struct {
		Addr, Selector           string
		PreExecLen               int
		Skip, ConstOps, Prefetch []pc
		LoadFrac                 map[string]float64
	}
	if err := json.Unmarshal(blob, &entries); err != nil {
		t.Fatal(err)
	}
	addr := func(s string) types.Address {
		raw, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return types.BytesToAddress(raw)
	}
	set := func(list []pc) map[refPC]bool {
		m := make(map[refPC]bool, len(list))
		for _, p := range list {
			m[refPC{addr(p.Addr), p.PC}] = true
		}
		return m
	}
	out := make(map[hotspot.Key]*refEntry, len(entries))
	for _, e := range entries {
		key := hotspot.Key{Addr: addr(e.Addr)}
		sel, err := hex.DecodeString(e.Selector)
		if err != nil {
			t.Fatal(err)
		}
		copy(key.Selector[:], sel)
		ref := &refEntry{
			preExecLen: e.PreExecLen,
			skip:       set(e.Skip),
			constOps:   set(e.ConstOps),
			prefetch:   set(e.Prefetch),
			loadFrac:   make(map[types.Address]float64),
		}
		for a, f := range e.LoadFrac {
			ref.loadFrac[addr(a)] = f
		}
		out[key] = ref
	}
	return out
}

// checkPlans requires table.Plan to equal, for every trace, the plan the
// per-(address, pc) sets give: the same issued steps, annotations,
// skipped count and load scaling. Hotspot plans must also hold exactly
// the steps they keep.
func checkPlans(t *testing.T, name string, table *hotspot.ContractTable, traces []*arch.TxTrace) {
	t.Helper()
	refs := refTable(t, table)
	for n, tr := range traces {
		got := table.Plan(tr)
		ref := refs[hotspot.Key{Addr: tr.Contract, Selector: tr.Selector}]
		if !tr.HasSelector || ref == nil {
			if len(got.Steps) != len(tr.Steps) || len(got.Steps) > 0 && &got.Steps[0] != &tr.Steps[0] ||
				got.Ann != nil || got.SkippedInstructions != 0 {
				t.Fatalf("%s: trace %d has no entry but its plan is not plain", name, n)
			}
			continue
		}
		var steps []evm.Step
		var ann []pipeline.Annotation
		for i := range tr.Steps {
			k := refPC{tr.Syms.CodeAddr(tr.Steps[i].CodeID), tr.Steps[i].PC}
			if i < ref.preExecLen || ref.skip[k] {
				continue
			}
			steps = append(steps, tr.Steps[i])
			ann = append(ann, pipeline.Annotation{Prefetched: ref.prefetch[k], ConstOperands: ref.constOps[k]})
		}
		switch {
		case len(got.Steps) != len(steps) || cap(got.Steps) != len(steps) || cap(got.Ann) != len(ann):
			t.Fatalf("%s: trace %d plans %d steps (cap %d, %d annotations), reference %d",
				name, n, len(got.Steps), cap(got.Steps), cap(got.Ann), len(steps))
		case len(steps) > 0 && (!reflect.DeepEqual(got.Steps, steps) || !reflect.DeepEqual(got.Ann, ann)):
			t.Fatalf("%s: trace %d: steps or annotations differ from the reference", name, n)
		case got.SkippedInstructions != len(tr.Steps)-len(steps):
			t.Fatalf("%s: trace %d skips %d, reference %d", name, n, got.SkippedInstructions, len(tr.Steps)-len(steps))
		case !reflect.DeepEqual(got.LoadScale, ref.loadFrac):
			t.Fatalf("%s: trace %d: load scaling differs from the reference", name, n)
		}
	}
}

// TestPlanMatchesPCSetReference learns every memo corpus sequence (the
// difftest grid and corpus, the scenario chains and failing calls) and
// compares the plans at half way and at the end, so tables whose entries
// merged diverging paths in between are planned twice.
func TestPlanMatchesPCSetReference(t *testing.T) {
	for name, traces := range memoCorpus(t) {
		table := hotspot.NewContractTable()
		for i, tr := range traces {
			table.Learn(tr)
			if i == len(traces)/2 {
				checkPlans(t, name+"/half", table, traces)
			}
		}
		checkPlans(t, name, table, traces)
	}
}

// TestPlanProxySharedPCs plans FiatTokenProxy calls: the proxy and its
// implementation run under two code addresses whose pcs overlap, and
// the annotations of one must not leak into the other.
func TestPlanProxySharedPCs(t *testing.T) {
	_, _, traces := fixture(t, "FiatTokenProxy", 20)
	table := learn(traces)
	checkPlans(t, "proxy", table, traces)

	refs := refTable(t, table)
	for _, tr := range traces {
		ref := refs[hotspot.Key{Addr: tr.Contract, Selector: tr.Selector}]
		if ref == nil {
			continue
		}
		byPC := make(map[uint64]types.Address)
		for _, s := range tr.Steps {
			code := tr.Syms.CodeAddr(s.CodeID)
			other, ok := byPC[s.PC]
			if !ok {
				byPC[s.PC] = code
				continue
			}
			a, b := refPC{other, s.PC}, refPC{code, s.PC}
			if other != code && (ref.skip[a] != ref.skip[b] || ref.constOps[a] != ref.constOps[b]) {
				return // a shared pc annotated differently under the two addresses
			}
		}
	}
	t.Fatal("no pc shared by the proxy and its implementation carries different annotations; the case is not exercised")
}

// TestPlanPCBeyondRow plans a learned trace extended by steps whose pcs
// lie past every row the entry holds, under a known and an unknown code
// address: they carry no annotation and are kept.
func TestPlanPCBeyondRow(t *testing.T) {
	_, _, traces := fixture(t, "TetherUSD", 20)
	table := learn(traces)
	base := traces[0]
	ext := *base
	ext.Steps = append([]evm.Step(nil), base.Steps...)
	stranger := types.HexToAddress("0x00000000000000000000000000000000000fee01")
	for _, addr := range []types.Address{base.Contract, stranger} {
		id := base.Syms.CodeID(addr)
		ext.Steps = append(ext.Steps,
			evm.Step{PC: 1 << 16, Op: evm.PUSH1, Depth: 1, CodeID: id},
			evm.Step{PC: 1<<16 + 2, Op: evm.POP, Depth: 1, CodeID: id})
	}
	checkPlans(t, "beyond", table, []*arch.TxTrace{base, &ext})
	plain, extended := table.Plan(base), table.Plan(&ext)
	if len(extended.Steps) != len(plain.Steps)+4 {
		t.Fatalf("extended trace plans %d steps, want %d", len(extended.Steps), len(plain.Steps)+4)
	}
}

// TestPlanAfterDivergingMerge plans one entry's two execution paths
// before and after the second is merged: the merge narrows the flags,
// and both plans must follow.
func TestPlanAfterDivergingMerge(t *testing.T) {
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
	key := hotspot.Key{Addr: a.Contract, Selector: a.Selector}
	table := hotspot.NewContractTable()
	table.Learn(a)
	checkPlans(t, "A", table, []*arch.TxTrace{a, b})
	refA := refTable(t, table)[key]
	table.Learn(b)
	checkPlans(t, "A+B", table, []*arch.TxTrace{a, b})
	refAB := refTable(t, table)[key]
	refB := refTable(t, learn([]*arch.TxTrace{b}))[key]

	// The merged flags are exactly those both paths hold.
	narrowed := false
	for i, sets := range [][3]map[refPC]bool{
		{refA.skip, refB.skip, refAB.skip},
		{refA.constOps, refB.constOps, refAB.constOps},
		{refA.prefetch, refB.prefetch, refAB.prefetch},
	} {
		both := make(map[refPC]bool)
		for k := range sets[0] {
			if sets[1][k] {
				both[k] = true
			}
		}
		if !reflect.DeepEqual(sets[2], both) {
			t.Fatalf("annotation set %d after the merge is not the intersection of the two paths' sets", i)
		}
		narrowed = narrowed || len(both) < len(sets[0])
	}
	if !narrowed {
		t.Fatal("merging the second path narrowed no annotation; the case is not exercised")
	}
}

// TestMarshalJSONGolden pins the persisted format: a table learned from
// diverging TetherUSD paths and the FiatTokenProxy batch serialises to
// the committed bytes, which the map-per-annotation representation the
// per-code flags replaced wrote for the same traces.
func TestMarshalJSONGolden(t *testing.T) {
	_, _, proxy := fixture(t, "FiatTokenProxy", 20)
	table := learn(append(failingTraces(t), proxy...))
	got, err := table.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/table.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("persisted table differs from testdata/table.golden.json (%d bytes, want %d)", len(got), len(want))
	}
}

// resolvedStep is a planned step with its ids replaced by the keys they
// name, so plans from blocks with different symbol tables compare.
type resolvedStep struct {
	step        evm.Step
	code, touch types.Address
	slot        types.Hash
}

func resolvedSteps(p *pu.Plan) []resolvedStep {
	out := make([]resolvedStep, len(p.Steps))
	for i, s := range p.Steps {
		r := resolvedStep{code: p.Trace.Syms.CodeAddr(s.CodeID)}
		if s.TouchID != 0 {
			r.touch, r.slot = p.Trace.Syms.TouchKey(s.TouchID)
		}
		s.CodeID, s.TouchID = 0, 0
		r.step = s
		out[i] = r
	}
	return out
}

// TestLearnAcrossBlocksResolvesCodeIDs learns a FiatTokenProxy batch,
// then offers the same paths from a later block whose symbol table
// interns the proxy and its implementation under other code ids. The
// Contract Table outlives blocks, so every path must count as merged —
// no new analysis — and every plan must equal the first block's once
// ids are resolved.
func TestLearnAcrossBlocksResolvesCodeIDs(t *testing.T) {
	_, _, blockA := fixture(t, "FiatTokenProxy", 20)
	blockB := hotspot.RenumberCodeIDs(blockA)
	a0, b0 := blockA[0], blockB[0]
	if a0.Syms.CodeAddr(a0.Steps[0].CodeID) != b0.Syms.CodeAddr(b0.Steps[0].CodeID) ||
		a0.Steps[0].CodeID == b0.Steps[0].CodeID {
		t.Fatal("the two blocks do not intern the contract under different ids; the case is not exercised")
	}

	table := learn(blockA)
	analyzed, reused := table.LearnCounts()
	for _, tr := range blockB {
		table.Learn(tr)
	}
	if a, r := table.LearnCounts(); a != analyzed || r != reused+uint64(len(blockB)) {
		t.Fatalf("block B: analysed %d more and reused %d more of %d traces, want 0 and all",
			a-analyzed, r-reused, len(blockB))
	}
	for i := range blockA {
		pa, pb := table.Plan(blockA[i]), table.Plan(blockB[i])
		switch {
		case len(pa.Steps) == len(blockA[i].Steps):
			t.Fatalf("trace %d: plan skips nothing; the case is not exercised", i)
		case !reflect.DeepEqual(resolvedSteps(pa), resolvedSteps(pb)):
			t.Fatalf("trace %d: planned steps differ between the blocks", i)
		case !reflect.DeepEqual(pa.Ann, pb.Ann) || !reflect.DeepEqual(pa.LoadScale, pb.LoadScale) ||
			pa.SkippedInstructions != pb.SkippedInstructions:
			t.Fatalf("trace %d: annotations, load scaling or skip count differ between the blocks", i)
		}
	}
}
