package hotspot_test

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"mtpu/internal/arch"
	"mtpu/internal/hotspot"
)

// determinismTraces returns a trace set spanning several (contract,
// selector) keys so the table's sorted views have real work to do.
func determinismTraces(t *testing.T) []*arch.TxTrace {
	t.Helper()
	var traces []*arch.TxTrace
	for _, name := range []string{"TetherUSD", "Dai"} {
		_, _, batch := fixture(t, name, 20)
		traces = append(traces, batch...)
	}
	return traces
}

func learn(traces []*arch.TxTrace) *hotspot.ContractTable {
	table := hotspot.NewContractTable()
	for _, tr := range traces {
		table.Learn(tr)
	}
	return table
}

// TestKeysDeterministic pins the sort.Slice in ContractTable.Keys: the
// comparator must impose a total order, so repeated calls — and tables
// built from permuted learn orders — agree exactly.
func TestKeysDeterministic(t *testing.T) {
	traces := determinismTraces(t)
	forward := learn(traces)

	reversed := make([]*arch.TxTrace, len(traces))
	for i, tr := range traces {
		reversed[len(traces)-1-i] = tr
	}
	backward := learn(reversed)

	if forward.Len() < 5 {
		t.Fatalf("only %d entries; fixture too small to exercise ordering", forward.Len())
	}
	for run := 0; run < 2; run++ {
		if !reflect.DeepEqual(forward.Keys(), backward.Keys()) {
			t.Fatalf("run %d: key order depends on learn order", run)
		}
	}
}

// TestMarshalJSONDeterministic pins the pcSetOut sort in persist.go:
// serializing the same table twice, or tables learned in opposite
// orders, must produce byte-identical JSON. Learn's merge operations
// (min PreExecLen, set intersection, max LoadFrac) are all commutative,
// so any divergence here is an ordering bug, not a data difference.
func TestMarshalJSONDeterministic(t *testing.T) {
	traces := determinismTraces(t)
	forward := learn(traces)

	reversed := make([]*arch.TxTrace, len(traces))
	for i, tr := range traces {
		reversed[len(traces)-1-i] = tr
	}
	backward := learn(reversed)

	a1, err := forward.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := forward.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a1, a2) {
		t.Fatal("repeated MarshalJSON on one table differs")
	}
	b1, err := backward.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a1, b1) {
		t.Fatal("MarshalJSON depends on learn order")
	}

	// Round-trip stability: a restored table serializes identically.
	restored := hotspot.NewContractTable()
	if err := restored.UnmarshalJSON(a1); err != nil {
		t.Fatal(err)
	}
	r1, err := restored.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a1, r1) {
		t.Fatal("round-tripped table serializes differently")
	}
}

// TestLearnScheduleIndependent feeds one table from a single goroutine
// and another from several that take turns in whatever order the
// scheduler grants the lock. Which trace of a path arrives first — and
// so which one is analysed and which only counted — differs between
// runs; the tables and their learn accounting must not.
func TestLearnScheduleIndependent(t *testing.T) {
	traces := determinismTraces(t)
	serial := learn(traces)
	want, err := serial.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	wantAnalyzed, wantReused := serial.LearnCounts()

	for run := 0; run < 4; run++ {
		const workers = 4
		table := hotspot.NewContractTable()
		var mu sync.Mutex
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(traces); i += workers {
					mu.Lock()
					table.Learn(traces[i])
					mu.Unlock()
					runtime.Gosched()
				}
			}(w)
		}
		wg.Wait()
		got, err := table.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d: table depends on the goroutine schedule", run)
		}
		if a, r := table.LearnCounts(); a != wantAnalyzed || r != wantReused {
			t.Fatalf("run %d: analyzed %d reused %d, serial feed had %d and %d", run, a, r, wantAnalyzed, wantReused)
		}
	}
}
