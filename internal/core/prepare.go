package core

import (
	"fmt"

	"mtpu/internal/arch"
	"mtpu/internal/evm"
	"mtpu/internal/mvstate"
	"mtpu/internal/state"
	"mtpu/internal/types"
	"mtpu/internal/uint256"
)

// Prepared is the decode product of one block against one pre-state
// snapshot: everything the replay, verification and commit layers need,
// produced by a single sequential EVM pass over a buffered view (no copy
// of the pre-state is ever made).
type Prepared struct {
	// Traces and Receipts are the golden sequential results, aligned
	// with the block's transactions.
	Traces   []*arch.TxTrace
	Receipts []*types.Receipt
	// WriteKeys/WriteVals are the block's net write-set in first-write
	// order — the input to mvstate.Store.Commit. The coinbase balance is
	// carved out; its aggregate credit is Fees.
	WriteKeys []state.AccessKey
	WriteVals []mvstate.Value
	Fees      uint256.Int
	// BaseReads are the keys the decode resolved from the snapshot —
	// the read-set a speculative decode revalidates against later folds
	// (mvstate.Store.Invalidated).
	BaseReads []state.AccessKey
	// Height is the snapshot height the block was decoded at.
	Height uint64
}

// PrepareBlock decodes block against head: one sequential EVM pass over
// an mvstate view that simultaneously records per-transaction access
// sets (for the conflict DAG), collects instruction traces and receipts,
// and accumulates the block's net write-set. The block's DAG is rebuilt
// from the observed access sets — callers treat block input as
// untrusted, so every engine downstream schedules against conflicts the
// sequential replay actually proved.
//
// The coinbase balance is touched by every transaction's gas payment;
// treating it as a conflict would serialize the whole block, so the
// view carves it out of access sets and write-set alike — matching
// workload.BuildDAG and the commutative-reward treatment every engine
// applies.
func PrepareBlock(head *mvstate.Snapshot, block *types.Block) (*Prepared, error) {
	n := len(block.Transactions)
	if n == 0 {
		return nil, fmt.Errorf("core: empty block")
	}
	ov := mvstate.NewOverlay(head, block.Header.Coinbase)
	e := evm.New(evm.NewBlockContext(block.Header), ov)
	col := arch.NewCollector()
	e.Tracer = wrapCollector(col)

	traces := make([]*arch.TxTrace, n)
	receipts := make([]*types.Receipt, n)
	reads := make([]state.AccessSet, n)
	writes := make([]state.AccessSet, n)
	for i, tx := range block.Transactions {
		col.Begin(tx)
		ov.BeginTxRecord()
		r, err := evm.ApplyTransaction(e, tx, i)
		rd, wr := ov.EndTxRecord()
		if err != nil {
			return nil, fmt.Errorf("core: tx %d invalid: %w", i, err)
		}
		reads[i], writes[i] = rd, wr
		receipts[i] = r
		traces[i] = col.Finish(r.GasUsed)
	}

	block.DAG = state.ConflictDAG(reads, writes)

	p := &Prepared{
		Traces:   traces,
		Receipts: receipts,
		Fees:     ov.FeeDelta(),
		Height:   head.Height(),
	}
	p.WriteKeys, p.WriteVals = ov.WriteSet()
	obs := ov.ReadSet()
	p.BaseReads = make([]state.AccessKey, len(obs))
	for i := range obs {
		p.BaseReads[i] = obs[i].Key
	}
	return p, nil
}

// wrapCollector returns the tracer both decode paths (PrepareBlock and
// CollectTraces) run under: their collector itself, or the wrapper
// through which a test observes what the interpreter hands it.
var wrapCollector = func(col *arch.Collector) evm.Tracer { return col }

// DigestAt prices the prepared block's write-set on top of head and
// returns the post-block state digest — equal to committing the block
// and digesting the result, without mutating head, in O(write-set)
// (Snapshot.DigestAfter).
func (p *Prepared) DigestAt(head *mvstate.Snapshot, coinbase types.Address) types.Hash {
	return head.DigestAfter(p.WriteKeys, p.WriteVals, coinbase, &p.Fees)
}
