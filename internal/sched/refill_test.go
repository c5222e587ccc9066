package sched

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mtpu/internal/types"
)

// refillScan is the window refill as §3.2 states it, and as the
// scheduler ran it before the ready lists: for every free slot, scan
// every transaction, keep the eligible ones not yet admitted, and take
// the largest key (same-contract bonus, then 2·V), the lowest index on
// ties. It is the reference the incremental refill is checked against.
func refillScan(s *stState) {
	s.runningEpoch++
	for _, tx := range s.runningTx {
		if tx >= 0 {
			s.runningMark[s.cids[tx]] = s.runningEpoch
		}
	}
	for {
		slot := s.tables.FreeSlot()
		if slot < 0 {
			return
		}
		best := -1
		bestKey := math.MinInt
		for tx := 0; tx < s.dag.Len(); tx++ {
			if s.admitted[tx] || s.completed[tx] || s.running[tx] || !eligible(s, tx) {
				continue
			}
			key := s.value(tx) * 2
			if s.runningMark[s.cids[tx]] == s.runningEpoch {
				key += s.dag.Len() * 4
			}
			if key > bestKey {
				best, bestKey = tx, key
			}
		}
		s.scans += uint64(s.dag.Len())
		if best < 0 {
			return
		}
		s.admitted[best] = true
		tx := best
		s.tables.Write(slot, tx, s.value(tx),
			func(p int) bool { return s.dependsOnPU(p, tx) },
			func(p int) bool { return s.redundantWithPU(p, tx) })
	}
}

// eligible reports whether every dependency is completed or running —
// the §3.2.1 admission rule.
func eligible(s *stState, tx int) bool {
	for _, d := range s.dag.Deps[tx] {
		if !s.completed[d] && !s.running[d] {
			return false
		}
	}
	return true
}

// costEngine charges a fixed per-transaction cost plus one cycle on odd
// PUs, so PU assignment shows in the schedule.
type costEngine struct{ costs []uint64 }

func (e costEngine) Dispatch(pu, tx int) uint64 { return e.costs[tx] + uint64(pu&1) }

// randomBlock draws an n-transaction DAG in a random topological order
// (so dependencies point both up and down the index range, and repeat),
// contracts from a pool of k where id 0 is the zero address, and costs
// from a small range so completions tie.
func randomBlock(r *rand.Rand, n, k, density int) (*types.DAG, []types.Address, []uint64) {
	order := r.Perm(n)
	dag := types.NewDAG(n)
	for i, tx := range order {
		for j := 0; j < i; j++ {
			if r.Intn(100) < density {
				d := order[r.Intn(i)]
				dag.Deps[tx] = append(dag.Deps[tx], d)
				if r.Intn(8) == 0 {
					dag.Deps[tx] = append(dag.Deps[tx], d) // duplicate edge
				}
			}
		}
	}
	contracts := make([]types.Address, n)
	costs := make([]uint64, n)
	for tx := range contracts {
		if id := r.Intn(k + 1); id > 0 {
			contracts[tx] = types.BytesToAddress([]byte{byte(id)})
		}
		costs[tx] = uint64(1 + r.Intn(6))
	}
	return dag, contracts, costs
}

// checkRefillVsScan schedules one block with both refills and requires
// identical results: every dispatch, the refill-scan count, the
// redundancy steers and the per-PU busy cycles.
func checkRefillVsScan(t *testing.T, seed int64, n, k, density, pus, window int, overhead uint64) {
	t.Helper()
	dag, contracts, costs := randomBlock(rand.New(rand.NewSource(seed)), n, k, density)
	e := costEngine{costs: costs}
	got := spatialTemporal(dag, contracts, pus, window, overhead, e, nil, (*stState).refill)
	want := spatialTemporal(dag, contracts, pus, window, overhead, e, nil, refillScan)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d n %d contracts %d density %d pus %d window %d: incremental refill\n%+v\nfull scan\n%+v",
			seed, n, k, density, pus, window, got, want)
	}
}

// FuzzRefillVsScan holds the ready-list refill to the full-scan rule
// over random DAGs, contract assignments, window sizes and PU counts.
func FuzzRefillVsScan(f *testing.F) {
	f.Add(int64(1), uint8(32), uint8(3), uint8(10), uint8(4), uint8(8), uint8(0))
	f.Add(int64(2), uint8(64), uint8(1), uint8(30), uint8(8), uint8(1), uint8(3))
	f.Add(int64(3), uint8(48), uint8(12), uint8(2), uint8(2), uint8(16), uint8(1))
	f.Add(int64(4), uint8(17), uint8(0), uint8(50), uint8(1), uint8(2), uint8(0))
	f.Add(int64(5), uint8(64), uint8(64), uint8(5), uint8(7), uint8(3), uint8(2))
	f.Add(int64(6), uint8(1), uint8(1), uint8(0), uint8(1), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n, k, density, pus, window, overhead uint8) {
		checkRefillVsScan(t, seed, int(n%96), int(k%16), int(density%60), 1+int(pus%9), 1+int(window%20), uint64(overhead%4))
	})
}

// TestRefillVsScanSweep runs the fuzz property over a fixed grid, so the
// plain test run covers every window and PU shape the sweeps use.
func TestRefillVsScanSweep(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, pus := range []int{1, 2, 4, 8} {
			for _, window := range []int{1, 4, 8, 16} {
				for _, density := range []int{0, 3, 15} {
					checkRefillVsScan(t, seed, 40, 5, density, pus, window, 0)
				}
			}
		}
	}
}
