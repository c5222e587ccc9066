package stream

import (
	"time"

	"mtpu/internal/core"
	"mtpu/internal/mvstate"
	"mtpu/internal/types"
)

// prefetched is the prefetch/decode stage's output for one block:
// everything the execute and commit stages need, built while the
// previous block was still executing. The decode is speculative — it
// ran against a pinned snapshot of the head that earlier in-flight
// blocks may since have advanced — so it carries the snapshot height
// and the decode error (if any) instead of deciding validity itself;
// the execute stage revalidates against the exact pre-state and
// re-decodes when the speculation was stale.
type prefetched struct {
	block *types.Block
	// prep is the decode product (traces, receipts, write-set, base
	// read-set, rebuilt DAG); nil when err is set.
	prep *core.Prepared
	// err is the decode failure at the pinned snapshot. It is not final:
	// the execute stage retries at the true pre-state before counting
	// the block invalid.
	err error
	// digest is the post-block state digest at the exact chained
	// pre-state — filled by the execute stage, not here.
	digest   types.Hash
	accepted time.Time
	seq      uint64
}

// prefetch decodes one block a stage ahead of execution against a
// pinned snapshot of the current head: a single sequential EVM pass
// over a buffered view (no state copy) that records per-transaction
// access sets, rebuilds the conflict DAG, and collects instruction
// traces, receipts and the block's net write-set. Execution plans are
// not built here: what a plan holds depends on the engine (and, for the
// hotspot engine, on the Contract Table at replay time), so the engine
// builds them inside the replay.
//
// prefetch never rejects a block: validity is a property of the true
// chained pre-state, which may still be several folds away while this
// stage runs ahead.
func prefetch(store *mvstate.Store, block *types.Block) *prefetched {
	snap := store.Pin()
	defer snap.Close()
	pre := &prefetched{block: block}
	pre.prep, pre.err = core.PrepareBlock(snap, block)
	return pre
}
