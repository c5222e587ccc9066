package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mtpu/internal/arch"
	"mtpu/internal/arch/pu"
	"mtpu/internal/core"
	"mtpu/internal/mvstate"
	"mtpu/internal/state"
	"mtpu/internal/types"
	"mtpu/internal/workload"
)

// The trace cache memoizes the expensive, deterministic inputs the
// sweeps share: the generated block with its conflict DAG, the golden
// sequential traces and receipts, the post-block state digest, the
// per-transaction plain execution plans, and the replay context — an
// accelerator that learned the block's hotspots and the single-PU
// sequential-ILP baseline (Env.replay, Env.seqBaseline).
//
// Every entry is keyed by its single-block workload.Spec, whose seed and
// account pool the cache pins to its own, and built from a fresh
// generator through the spec's own dispatch (workload.Spec.Block), so a
// spec maps to the same block no matter which experiment asks first or
// how many ask concurrently — the property that lets the scheduling
// grid and the perf sweep share one functional-EVM pass per TokenBlock,
// and lets the parallel sweep runner produce output byte-identical to
// the serial one.
//
// Each spec is decoded once, by core.PrepareBlock at the cache's head:
// the head of a store over the genesis that never commits. That is one
// EVM pass over a buffered view with no copy of the genesis, and the
// digest is priced over the head's accumulator in O(write-set)
// (Prepared.DigestAt). TestEntryMatchesSequentialOracle holds entries to
// the from-scratch oracles, core.CollectTracesOn and workload.VerifyDAG.
//
// A cache is safe for concurrent use. Entries are immutable after
// construction; callers must treat the returned blocks, traces and plans
// as read-only.

// scheduled reports whether the sweeps schedule the spec's block against
// its conflict DAG. Such a block may contain no reverted transaction
// (workload.BuildDAG's rule); batches and SCT mixes are replayed
// sequentially and are exempt.
func scheduled(s workload.Spec) bool {
	switch s.Kind {
	case "token", "erc20", "mixed":
		return true
	}
	return false
}

// cacheEntry is one memoized workload: the block and everything the
// timing model needs to replay it. All fields are read-only after get
// returns.
type cacheEntry struct {
	Block    *types.Block
	Traces   []*arch.TxTrace
	Receipts []*types.Receipt
	Digest   types.Hash

	plansOnce sync.Once
	plans     []*pu.Plan

	accOnce sync.Once
	acc     *core.Accelerator

	baseOnce sync.Once
	base     uint64
}

// PlainPlans returns the unoptimized execution plan of every trace,
// built once per entry (instead of once per mode replayed) and shared by
// every caller — plans are read-only during replay. The plans carry a
// shared fill-segmentation memo: cached entries are replayed across
// many modes and repetitions, so the canonical segmentation is computed
// once here instead of once per pipeline.
func (e *cacheEntry) PlainPlans() []*pu.Plan {
	e.plansOnce.Do(func() {
		e.plans = pu.PlainPlans(e.Traces)
		pu.AttachFillMemo(arch.DefaultConfig(), e.plans)
	})
	return e.plans
}

// accelerator returns the entry's replay context: a default-config
// accelerator whose Contract Table learned the entry's own traces, built
// once and then only read, so every sweep point replaying the entry
// shares it concurrently. Only the hotspot engine reads the table.
func (e *cacheEntry) accelerator() *core.Accelerator {
	e.accOnce.Do(func() {
		e.acc = core.New(arch.DefaultConfig())
		e.acc.LearnHotspots(e.Traces, 8)
	})
	return e.acc
}

// traceCache memoizes entries per spec. Use newTraceCache.
type traceCache struct {
	seed     int64
	accounts int
	// head is the genesis as a store snapshot: the pre-block state of
	// every entry and of Table 2's single-call blocks, which Block-STM
	// replays read through ReplayOpts.Head.
	head *mvstate.Snapshot

	mu sync.Mutex
	// entries is keyed by the spec's canonical String: Drop makes
	// workload.Spec non-comparable.
	entries map[string]*cacheSlot

	hits, misses atomic.Int64
}

// cacheSlot decouples the map lock from entry construction: concurrent
// gets of the same spec block on the slot's once while different specs
// build in parallel.
type cacheSlot struct {
	once  sync.Once
	entry *cacheEntry
}

// newTraceCache returns a cache generating workloads from seed over
// accounts funded accounts. genesis must be the state a generator with
// these parameters produces; the cache copies it into a store once and
// only ever reads that store's head.
func newTraceCache(seed int64, accounts int, genesis *state.StateDB) *traceCache {
	return &traceCache{
		seed:     seed,
		accounts: accounts,
		head:     mvstate.NewStore(genesis, nil).Head(),
		entries:  make(map[string]*cacheSlot),
	}
}

// Stats returns how many gets were served from memory vs built.
func (c *traceCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Get returns the entry for spec with its seed and account pool set to
// the cache's, building it on first use. Concurrent calls for the same
// spec share one build.
func (c *traceCache) Get(spec workload.Spec) *cacheEntry {
	spec.Seed, spec.Accounts = c.seed, c.accounts
	key := spec.String()
	c.mu.Lock()
	s := c.entries[key]
	if s == nil {
		s = &cacheSlot{}
		c.entries[key] = s
	}
	c.mu.Unlock()

	built := false
	s.once.Do(func() {
		s.entry = c.build(spec)
		built = true
	})
	if built {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	return s.entry
}

// build generates the spec's block from a fresh generator (so the result
// is independent of every other spec) and decodes it once at the head.
func (c *traceCache) build(spec workload.Spec) *cacheEntry {
	block, err := spec.Block()
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	prep, err := core.PrepareBlock(c.head, block)
	if err != nil {
		panic(fmt.Sprintf("experiments: decode %s: %v", spec, err))
	}
	if scheduled(spec) {
		for i, r := range prep.Receipts {
			if r.Status != types.ReceiptSuccess {
				panic(fmt.Sprintf("experiments: decode %s: tx %d reverted", spec, i))
			}
		}
	}
	return &cacheEntry{
		Block:    block,
		Traces:   prep.Traces,
		Receipts: prep.Receipts,
		Digest:   prep.DigestAt(c.head, block.Header.Coinbase),
	}
}
