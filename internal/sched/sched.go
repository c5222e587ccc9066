// Package sched implements the transaction scheduling algorithms of the
// paper: the spatio-temporal scheduling of §3.2 (asynchronous PU-driven
// selection over a candidate window, steered by the Scheduling Table's
// dependency and redundancy bitmaps and the Transaction Table's locks and
// redundancy values), plus the synchronous (barrier) and sequential
// baselines it is evaluated against in Figs. 14-16.
package sched

import (
	"fmt"
	"math"

	"mtpu/internal/obs"
	"mtpu/internal/types"
)

// Engine abstracts the hardware the scheduler drives: Dispatch simulates
// the transaction on the PU (mutating its microarchitectural state, so
// redundant transactions landing on the same PU naturally reuse its DB
// cache and contexts) and returns the cycle cost. Redundancy steering is
// handled by the Scheduling Table itself (table.go).
type Engine interface {
	Dispatch(pu, tx int) uint64
}

// Dispatch records one scheduled execution.
type Dispatch struct {
	Tx, PU     int
	Start, End uint64
}

// Result summarizes one scheduled block execution.
type Result struct {
	Makespan   uint64
	Dispatches []Dispatch
	// BusyCycles per PU, for the utilization of Fig. 15.
	BusyCycles []uint64
	// RedundantSteers counts selections that matched the PU's last
	// contract (the Re-bit fast path of §3.2.2).
	RedundantSteers int
	// RefillScans is the number of candidates the §3.2 full-scan rule
	// would examine to refill the window: every transaction of the
	// block, once per slot-fill attempt. It is an exact count of the
	// algorithm, not of host work: the refill itself keeps per-contract
	// ready lists and costs O(contracts) per slot. Zero for the
	// sequential and synchronous baselines, which have no candidate
	// window.
	RefillScans uint64
}

// Utilization returns busy/(PUs × makespan), the Fig. 15 metric.
func (r Result) Utilization() float64 {
	if r.Makespan == 0 || len(r.BusyCycles) == 0 {
		return 0
	}
	var busy uint64
	for _, b := range r.BusyCycles {
		busy += b
	}
	return float64(busy) / (float64(r.Makespan) * float64(len(r.BusyCycles)))
}

// Sequential executes every transaction in block order on PU 0.
func Sequential(n int, e Engine) Result {
	res := Result{BusyCycles: make([]uint64, 1)}
	var now uint64
	for tx := 0; tx < n; tx++ {
		cost := e.Dispatch(0, tx)
		res.Dispatches = append(res.Dispatches, Dispatch{Tx: tx, PU: 0, Start: now, End: now + cost})
		now += cost
	}
	res.Makespan = now
	res.BusyCycles[0] = now
	return res
}

// Synchronous executes the block in barrier rounds: each round takes up
// to numPUs transactions whose dependencies have all completed, runs them
// in parallel, and waits for the slowest before starting the next round —
// the conventional software approach of §4.3's first comparison point.
func Synchronous(dag *types.DAG, numPUs int, overhead uint64, e Engine) Result {
	n := dag.Len()
	res := Result{BusyCycles: make([]uint64, numPUs)}
	completed := make([]bool, n)
	done := 0
	var now uint64

	for done < n {
		// Collect this round's ready set in block order.
		var round []int
		for tx := 0; tx < n && len(round) < numPUs; tx++ {
			if completed[tx] {
				continue
			}
			ready := true
			for _, d := range dag.Deps[tx] {
				if !completed[d] {
					ready = false
					break
				}
			}
			if ready {
				round = append(round, tx)
			}
		}
		if len(round) == 0 {
			panic("sched: no ready transactions — cyclic DAG")
		}
		var roundEnd uint64
		for i, tx := range round {
			cost := e.Dispatch(i, tx) + overhead
			end := now + cost
			res.Dispatches = append(res.Dispatches, Dispatch{Tx: tx, PU: i, Start: now, End: end})
			res.BusyCycles[i] += cost
			if end > roundEnd {
				roundEnd = end
			}
		}
		for _, tx := range round {
			completed[tx] = true
		}
		done += len(round)
		now = roundEnd
	}
	res.Makespan = now
	return res
}

// stState is the CPU-side bookkeeping around the Fig. 6 hardware tables:
// which transactions have completed or are running (and on which PU),
// plus the per-contract remaining-invocation counts behind the V values.
// Contracts are interned once at construction into dense ids (cid 0 is
// reserved for the zero address, which never matches redundancy), so
// the per-pick hot loops index arrays instead of hashing addresses.
//
// Admission (§3.2.1) needs every dependency completed or running, and a
// transaction only moves from pending to running to completed, so
// eligibility changes only when a dependency is dispatched. The state
// keeps, per transaction, the number of dependencies not yet dispatched;
// dispatch decrements the dependents and files each one that reaches
// zero on its contract's ready list. A refill then compares contracts,
// not transactions.
type stState struct {
	dag *types.DAG

	// cids holds each transaction's dense contract id; remaining counts
	// pending+running transactions per cid (a transaction's V value is
	// remaining[cid]-1).
	cids      []uint32
	remaining []int32

	// completed, running and admitted are each transaction's Fig. 6
	// status, as the §3.2 full-scan admission rule reads it; the refill
	// itself reads the ready lists below.
	completed []bool
	running   []bool
	admitted  []bool
	runningTx []int // per PU; -1 when idle

	// waiting counts each transaction's dependencies not yet dispatched
	// (a duplicated edge counts twice); dependents[depStart[d]:
	// depStart[d+1]] lists the transactions that name d as a dependency,
	// once per edge.
	waiting    []int32
	depStart   []int32
	dependents []int32

	// ready holds the eligible transactions not yet admitted to the
	// window, bucketed by contract: cid c's are ready[head[c]:tail[c]],
	// in ascending index order. Each transaction is filed once, so a
	// bucket sized to its contract's transaction count never overflows.
	ready      []int32
	head, tail []int32

	tables *Tables

	// lastCid is the contract each PU ran last (0 = none/zero address).
	lastCid []uint32

	// runningMark is refill's scratch set of running contracts: cid c is
	// a member iff runningMark[c] == runningEpoch. Bumping the epoch
	// empties the set without clearing — the fix for the map that was
	// rebuilt on every pick.
	runningMark  []uint32
	runningEpoch uint32

	// scans accumulates Result.RefillScans.
	scans uint64
}

func newSTState(dag *types.DAG, contracts []types.Address, numPUs, m int) *stState {
	n := dag.Len()
	s := &stState{
		dag:       dag,
		cids:      make([]uint32, n),
		completed: make([]bool, n),
		running:   make([]bool, n),
		admitted:  make([]bool, n),
		runningTx: make([]int, numPUs),
		waiting:   make([]int32, n),
		depStart:  make([]int32, n+1),
		tables:    NewTables(numPUs, m),
		lastCid:   make([]uint32, numPUs),
	}
	for i := range s.runningTx {
		s.runningTx[i] = -1
	}
	// Intern contracts in first-appearance order; the one map here is
	// the only address hashing the scheduler ever does.
	ids := make(map[types.Address]uint32, len(contracts))
	var zero types.Address
	ids[zero] = 0
	for tx, c := range contracts {
		id, ok := ids[c]
		if !ok {
			id = uint32(len(ids))
			ids[c] = id
		}
		s.cids[tx] = id
	}
	s.remaining = make([]int32, len(ids))
	for _, id := range s.cids {
		s.remaining[id]++
	}
	s.runningMark = make([]uint32, len(ids))

	// Reverse adjacency in one flat array, bucketed by dependency.
	for tx, deps := range dag.Deps {
		s.waiting[tx] = int32(len(deps))
		for _, d := range deps {
			s.depStart[d+1]++
		}
	}
	for d := 0; d < n; d++ {
		s.depStart[d+1] += s.depStart[d]
	}
	s.dependents = make([]int32, s.depStart[n])
	fill := append([]int32(nil), s.depStart[:n]...)
	for tx, deps := range dag.Deps {
		for _, d := range deps {
			s.dependents[fill[d]] = int32(tx)
			fill[d]++
		}
	}

	s.ready = make([]int32, n)
	s.head = make([]int32, len(ids))
	s.tail = make([]int32, len(ids))
	var base int32
	for c, count := range s.remaining {
		s.head[c], s.tail[c] = base, base
		base += count
	}
	for tx, deps := range dag.Deps {
		if len(deps) == 0 {
			c := s.cids[tx]
			s.ready[s.tail[c]] = int32(tx)
			s.tail[c]++
		}
	}
	return s
}

// value is the Transaction Table V entry: how many more times the
// transaction's contract will be executed.
func (s *stState) value(tx int) int {
	return int(s.remaining[s.cids[tx]]) - 1
}

// markDispatched counts tx's dispatch against each of its dependents,
// filing those left with no undispatched dependency as ready.
func (s *stState) markDispatched(tx int) {
	for _, c := range s.dependents[s.depStart[tx]:s.depStart[tx+1]] {
		s.waiting[c]--
		if s.waiting[c] != 0 {
			continue
		}
		// Insert in index order; dependents usually arrive ascending,
		// so the walk from the back stops at once.
		cid := s.cids[c]
		i := s.tail[cid]
		for ; i > s.head[cid] && s.ready[i-1] > c; i-- {
			s.ready[i] = s.ready[i-1]
		}
		s.ready[i] = c
		s.tail[cid]++
	}
}

// dependsOn reports a DAG edge from the tx running on PU p to tx.
func (s *stState) dependsOnPU(p, tx int) bool {
	r := s.runningTx[p]
	if r < 0 {
		return false
	}
	for _, d := range s.dag.Deps[tx] {
		if d == r {
			return true
		}
	}
	return false
}

// redundantWithPU reports whether tx calls the contract PU p ran last
// (cid 0 — idle or the zero address — never matches).
func (s *stState) redundantWithPU(p, tx int) bool {
	c := s.lastCid[p]
	return c != 0 && s.cids[tx] == c
}

// refill tops the candidate window up (step 4 of Fig. 6): transactions
// calling the same contract as one currently being executed are
// prioritized, then larger V (§3.2.1), then the lower block index. The
// key depends only on the contract, so the best candidate is the head
// of the best contract's ready list.
func (s *stState) refill() {
	s.runningEpoch++
	for _, tx := range s.runningTx {
		if tx >= 0 {
			s.runningMark[s.cids[tx]] = s.runningEpoch
		}
	}
	n := s.dag.Len()
	for {
		slot := s.tables.FreeSlot()
		if slot < 0 {
			return
		}
		// The full-scan rule of §3.2 examines every transaction per slot.
		s.scans += uint64(n)
		best := -1
		bestKey := math.MinInt
		for c, h := range s.head {
			if h == s.tail[c] {
				continue
			}
			key := 2 * (int(s.remaining[c]) - 1)
			if s.runningMark[c] == s.runningEpoch {
				key += n * 4 // same-contract priority dominates
			}
			if first := int(s.ready[h]); key > bestKey || key == bestKey && first < best {
				best, bestKey = first, key
			}
		}
		if best < 0 {
			return
		}
		s.head[s.cids[best]]++
		s.admitted[best] = true
		tx := best
		s.tables.Write(slot, tx, s.value(tx),
			func(p int) bool { return s.dependsOnPU(p, tx) },
			func(p int) bool { return s.redundantWithPU(p, tx) })
	}
}

// dispatch selects a transaction for PU p through the tables and updates
// the Scheduling Table for the new running set.
func (s *stState) dispatch(p int) Pick {
	pk := s.tables.SelectPick(p)
	tx := pk.Tx
	if tx < 0 {
		return pk
	}
	s.running[tx] = true
	s.runningTx[p] = tx
	s.lastCid[p] = s.cids[tx]
	s.markDispatched(tx)
	s.tables.SetRunning(p,
		func(cand int) bool {
			for _, d := range s.dag.Deps[cand] {
				if d == tx {
					return true
				}
			}
			return false
		},
		func(cand int) bool { return s.cids[cand] == s.cids[tx] })
	return pk
}

// complete retires PU p's transaction.
func (s *stState) complete(p int) {
	tx := s.runningTx[p]
	s.runningTx[p] = -1
	s.running[tx] = false
	s.completed[tx] = true
	s.remaining[s.cids[tx]]--
	s.tables.ClearRunning(p)
}

// SpatialTemporal runs the spatio-temporal scheduling algorithm of §3.2
// as a discrete-event simulation: PUs asynchronously pull the best
// candidate when they free up; the CPU refills the window off the
// critical path.
func SpatialTemporal(dag *types.DAG, contracts []types.Address, numPUs, window int, overhead uint64, e Engine) Result {
	return SpatialTemporalObs(dag, contracts, numPUs, window, overhead, e, nil)
}

// SpatialTemporalObs is SpatialTemporal emitting scheduler events —
// pick classification and window occupancy at each selection — to sink
// when it is non-nil. The schedule itself is identical either way.
func SpatialTemporalObs(dag *types.DAG, contracts []types.Address, numPUs, window int, overhead uint64, e Engine, sink obs.Sink) Result {
	return spatialTemporal(dag, contracts, numPUs, window, overhead, e, sink, (*stState).refill)
}

// spatialTemporal is the scheduling loop with the window refill passed
// in, so tests can run it with the full-scan refill it replaced.
func spatialTemporal(dag *types.DAG, contracts []types.Address, numPUs, window int, overhead uint64, e Engine, sink obs.Sink, refill func(*stState)) Result {
	n := dag.Len()
	if len(contracts) != n {
		panic(fmt.Sprintf("sched: %d contracts for %d transactions", len(contracts), n))
	}
	res := Result{BusyCycles: make([]uint64, numPUs)}
	if n == 0 {
		return res
	}
	s := newSTState(dag, contracts, numPUs, window)
	refill(s)

	puBusyUntil := make([]uint64, numPUs)
	var now uint64
	done := 0

	for done < n {
		// Give work to every idle PU, in PU order (deterministic).
		for p := 0; p < numPUs; p++ {
			if s.runningTx[p] >= 0 {
				continue
			}
			pk := s.dispatch(p)
			tx := pk.Tx
			if tx < 0 {
				continue
			}
			if pk.Redundant {
				res.RedundantSteers++
			}
			if sink != nil {
				sink.SchedPick(p, now, pk.Kind(), pk.Occupied)
			}
			cost := e.Dispatch(p, tx) + overhead
			puBusyUntil[p] = now + cost
			res.Dispatches = append(res.Dispatches, Dispatch{Tx: tx, PU: p, Start: now, End: now + cost})
			res.BusyCycles[p] += cost
			// CPU writes replacement candidates into the freed slot.
			refill(s)
		}

		// Advance to the next completion.
		next := uint64(math.MaxUint64)
		for p := 0; p < numPUs; p++ {
			if s.runningTx[p] >= 0 && puBusyUntil[p] < next {
				next = puBusyUntil[p]
			}
		}
		if next == math.MaxUint64 {
			panic("sched: deadlock — idle PUs with pending transactions (cyclic DAG?)")
		}
		now = next
		for p := 0; p < numPUs; p++ {
			if s.runningTx[p] >= 0 && puBusyUntil[p] == now {
				s.complete(p)
				done++
			}
		}
		// Completions admit nothing new — a running dependency already
		// counts as cleared — but the §3.2 flow refills here too, and
		// RefillScans counts it.
		refill(s)
	}
	res.Makespan = now
	res.RefillScans = s.scans
	return res
}
