package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"mtpu/internal/arch"
	"mtpu/internal/sched"
	"mtpu/internal/types"
)

// TestTopAddressesPermutationInvariant pins the sort.Slice comparator in
// topAddresses: with heavy count ties, repeated calls over the same map
// (whose iteration order Go randomizes per call) must agree exactly.
func TestTopAddressesPermutationInvariant(t *testing.T) {
	counts := make(map[types.Address]int)
	for i := byte(0); i < 24; i++ {
		counts[types.BytesToAddress([]byte{i})] = int(i) % 3 // eight-way ties
	}
	want := topAddresses(counts, 10)
	for run := 0; run < 20; run++ {
		got := topAddresses(counts, 10)
		if len(got) != len(want) {
			t.Fatalf("run %d: %d addresses, want %d", run, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("run %d: position %d is %s, want %s", run, i, got[i], want[i])
			}
		}
	}
	// The declared order: count desc, address asc within ties.
	for i := 1; i < len(want); i++ {
		ci, cj := counts[want[i-1]], counts[want[i]]
		if ci < cj || (ci == cj && string(want[i-1][:]) >= string(want[i][:])) {
			t.Fatalf("order violated at %d: %v", i, want)
		}
	}
}

// TestLearnHotspotsPermutedTraces feeds the same trace set in forward
// and reversed order: the hotspot list and the learned Contract Table
// (via its canonical JSON form) must be identical, because Learn's merge
// operations are commutative and every ordering choice is sorted.
func TestLearnHotspotsPermutedTraces(t *testing.T) {
	genesis, block := buildBlock(t, 53, 80, 0.2)
	traces, _, _, err := CollectTraces(genesis, block)
	if err != nil {
		t.Fatal(err)
	}
	reversed := make([]*arch.TxTrace, len(traces))
	for i, tr := range traces {
		reversed[len(traces)-1-i] = tr
	}

	a1, a2 := New(arch.DefaultConfig()), New(arch.DefaultConfig())
	h1 := a1.LearnHotspots(traces, 8)
	h2 := a2.LearnHotspots(reversed, 8)
	if len(h1) != len(h2) {
		t.Fatalf("hotspot counts differ: %d vs %d", len(h1), len(h2))
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("hotspot %d differs under permuted traces: %s vs %s", i, h1[i], h2[i])
		}
	}
	j1, err := json.Marshal(a1.Table)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(a2.Table)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("learned Contract Table depends on trace order")
	}
}

// TestVerifySchedulePermutedDispatches pins the dispatch sort inside
// VerifySchedule: the verifier normalizes dispatch order itself, so a
// shuffled (but otherwise honest) dispatch list must still verify, and
// repeatedly so.
func TestVerifySchedulePermutedDispatches(t *testing.T) {
	genesis, block := buildBlock(t, 59, 60, 0.5)
	acc := New(arch.DefaultConfig())
	res, err := acc.Execute(genesis, block, ModeSpatialTemporal)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for run := 0; run < 3; run++ {
		shuffled := *res
		shuffled.Sched.Dispatches = append([]sched.Dispatch{}, res.Sched.Dispatches...)
		rng.Shuffle(len(shuffled.Sched.Dispatches), func(i, j int) {
			d := shuffled.Sched.Dispatches
			d[i], d[j] = d[j], d[i]
		})
		if err := VerifyScheduleAt(headOf(genesis), block, &shuffled); err != nil {
			t.Fatalf("run %d: shuffled honest schedule rejected: %v", run, err)
		}
	}
}
