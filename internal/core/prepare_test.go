package core

import (
	"testing"

	"mtpu/internal/arch"
	"mtpu/internal/evm"
	"mtpu/internal/mvstate"
	"mtpu/internal/state"
	"mtpu/internal/types"
	"mtpu/internal/uint256"
	"mtpu/internal/workload"
)

// TestPrepareBlockDAGMatchesReplayConflicts decodes a chained stream of
// every scenario shape and holds each block's rebuilt DAG to
// workload.VerifyDAG — the independent pairwise derivation from a
// sequential replay: no missing edge, no spurious one.
func TestPrepareBlockDAGMatchesReplayConflicts(t *testing.T) {
	for _, name := range workload.Scenarios {
		src, err := workload.Spec{Kind: name, Blocks: 4, Txs: 40, Skew: 1.2, Seed: 23}.OpenSource()
		if err != nil {
			t.Fatal(err)
		}
		pre := src.Genesis().Copy() // sequential pre-state of the next block
		store := mvstate.NewStore(src.Genesis(), nil)
		edges := 0
		for i := 0; ; i++ {
			block, ok := src.Next()
			if !ok {
				break
			}
			prep, err := PrepareBlock(store.Head(), block)
			if err != nil {
				t.Fatalf("%s block %d: %v", name, i, err)
			}
			if err := workload.VerifyDAG(pre, block); err != nil {
				t.Fatalf("%s block %d: %v", name, i, err)
			}
			for _, deps := range block.DAG.Deps {
				edges += len(deps)
			}
			store.Commit(prep.WriteKeys, prep.WriteVals, block.Header.Coinbase, &prep.Fees)
			if _, _, _, err := CollectTracesOn(pre, block); err != nil {
				t.Fatalf("%s block %d: %v", name, i, err)
			}
		}
		if edges == 0 {
			t.Fatalf("%s: no conflict edge in the whole stream; the check proves nothing", name)
		}
	}
}

// stepRefs is what the interpreter handed the collector beside a step.
type stepRefs struct {
	code, touch types.Address
	slot        types.Hash
}

// recordingTracer wraps a decode's collector and records the addresses
// and slot of every step it is handed, in execution order.
type recordingTracer struct {
	*arch.Collector
	refs []stepRefs
}

func (r *recordingTracer) OnStep(s *evm.Step, code, touch *types.Address, slot *types.Hash) {
	r.refs = append(r.refs, stepRefs{*code, *touch, *slot})
	r.Collector.OnStep(s, code, touch, slot)
}

// TestDecodedTracesAreInterned holds both decode paths to what the
// timing model now assumes of every trace: one symbol table per block,
// every step carrying the CodeID of the code address the interpreter
// ran it under, every storage step the TouchID of its (address, slot),
// every state query the TouchID of its account, and no other step a
// TouchID.
func TestDecodedTracesAreInterned(t *testing.T) {
	var rec *recordingTracer
	plain := wrapCollector
	wrapCollector = func(c *arch.Collector) evm.Tracer {
		rec = &recordingTracer{Collector: c}
		return rec
	}
	defer func() { wrapCollector = plain }()
	for _, name := range workload.Scenarios {
		src, err := workload.Spec{Kind: name, Blocks: 1, Txs: 40, Skew: 1.2, Seed: 29}.OpenSource()
		if err != nil {
			t.Fatal(err)
		}
		block, _ := src.Next()
		decode := map[string]func() []*arch.TxTrace{
			"CollectTraces": func() []*arch.TxTrace {
				traces, _, _, err := CollectTraces(src.Genesis(), block)
				if err != nil {
					t.Fatal(err)
				}
				return traces
			},
			"PrepareBlock": func() []*arch.TxTrace {
				prep, err := PrepareBlock(headOf(src.Genesis()), block)
				if err != nil {
					t.Fatal(err)
				}
				return prep.Traces
			},
		}
		for path, run := range decode {
			traces := run()
			steps := 0
			for i, tr := range traces {
				if tr.Syms == nil || tr.Syms != traces[0].Syms {
					t.Fatalf("%s %s: trace %d does not share the block's symbol table", name, path, i)
				}
				for j := range tr.Steps {
					s := &tr.Steps[j]
					if steps >= len(rec.refs) {
						t.Fatalf("%s %s: the traces hold more steps than the collector was handed", name, path)
					}
					want := rec.refs[steps]
					steps++
					if s.CodeID < 1 || tr.Syms.CodeAddr(s.CodeID) != want.code {
						t.Fatalf("%s %s: trace %d step %d (%s) has code id %d, not the id of %s", name, path, i, j, s.Op, s.CodeID, want.code)
					}
					var wantTouch stepRefs
					switch {
					case s.Op == evm.SLOAD || s.Op == evm.SSTORE:
						wantTouch = stepRefs{touch: want.touch, slot: want.slot}
					case s.Op.Unit() == evm.FUStateQuery:
						wantTouch = stepRefs{touch: want.touch}
					default:
						if s.TouchID != 0 {
							t.Fatalf("%s %s: trace %d step %d (%s) touches nothing but has touch id %d", name, path, i, j, s.Op, s.TouchID)
						}
						continue
					}
					if s.TouchID < 1 {
						t.Fatalf("%s %s: trace %d step %d (%s) has no touch id", name, path, i, j, s.Op)
					}
					if addr, slot := tr.Syms.TouchKey(s.TouchID); addr != wantTouch.touch || slot != wantTouch.slot {
						t.Fatalf("%s %s: trace %d step %d (%s) has touch id %d for (%s, %s), handed (%s, %s)",
							name, path, i, j, s.Op, s.TouchID, addr, slot, wantTouch.touch, wantTouch.slot)
					}
				}
			}
			if steps == 0 {
				t.Fatalf("%s %s: no steps; the check proves nothing", name, path)
			}
			if steps != len(rec.refs) {
				t.Fatalf("%s %s: the collector was handed %d steps, the traces hold %d", name, path, len(rec.refs), steps)
			}
		}
	}
}

// emptyCalleeChain is the smallest chain whose gas depends on how the
// state layer answers "is the callee empty?": x receives a zero-value
// transfer, then a 15-byte forwarder CALLs x with value 5 — in the next
// block, or (oneBlock) in the same one. Gas price is 1, so a wrong
// answer moves balances and the digest, not only a receipt.
func emptyCalleeChain(oneBlock bool) (*state.StateDB, []*types.Block) {
	forwarder := types.HexToAddress("0xf0f0000000000000000000000000000000000001")
	sender := types.HexToAddress("0x5e0d000000000000000000000000000000000002")
	x := types.HexToAddress("0xeeee000000000000000000000000000000000003")
	// CALL(gas: GAS, to: calldata[0:32], value: 5, no data).
	code := []byte{
		byte(evm.PUSH1), 0, byte(evm.PUSH1), 0, byte(evm.PUSH1), 0, byte(evm.PUSH1), 0,
		byte(evm.PUSH1), 5, byte(evm.PUSH1), 0, byte(evm.CALLDATALOAD), byte(evm.GAS), byte(evm.CALL),
	}
	genesis := state.New()
	genesis.SetCode(forwarder, code)
	genesis.SetBalance(forwarder, uint256.NewInt(1000))
	genesis.SetBalance(sender, uint256.NewInt(1_000_000_000))
	genesis.DiscardJournal()

	data := make([]byte, 32)
	copy(data[12:], x[:])
	txs := []*types.Transaction{
		{From: sender, To: &x, Nonce: 0, GasLimit: 30_000, GasPrice: 1},
		{From: sender, To: &forwarder, Nonce: 1, GasLimit: 200_000, GasPrice: 1, Data: data},
	}
	if oneBlock {
		return genesis, []*types.Block{types.NewBlock(types.BlockHeader{Height: 1, GasLimit: 1 << 30}, txs)}
	}
	return genesis, []*types.Block{
		types.NewBlock(types.BlockHeader{Height: 1, GasLimit: 1 << 30}, txs[:1]),
		types.NewBlock(types.BlockHeader{Height: 2, GasLimit: 1 << 30}, txs[1:]),
	}
}

// TestPrepareBlockAtFoldedHeadMatchesSequential: a block decoded at the
// head its predecessor folded into must get the receipts, and fold to
// the digest, of one sequential replay over an evolving StateDB — also
// when what the predecessor did to an account was touch it and leave it
// empty, which no write-set carries.
func TestPrepareBlockAtFoldedHeadMatchesSequential(t *testing.T) {
	genesis, blocks := emptyCalleeChain(false)
	seq := genesis.Copy()
	store := mvstate.NewStore(genesis, nil)
	for i, block := range blocks {
		want, err := evm.ExecuteBlockSequential(seq, block, nil)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := PrepareBlock(store.Head(), block)
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range prep.Receipts {
			if r.Status != want[j].Status || r.GasUsed != want[j].GasUsed {
				t.Errorf("block %d tx %d decoded to status %d / gas %d, sequential says %d / %d",
					i, j, r.Status, r.GasUsed, want[j].Status, want[j].GasUsed)
			}
		}
		store.Commit(prep.WriteKeys, prep.WriteVals, block.Header.Coinbase, &prep.Fees)
		if got, want := store.HeadDigest(), seq.Digest(); got != want {
			t.Errorf("block %d folded to %s, sequential state is %s", i, got, want)
		}
	}
}

// TestModeBlockSTMEmptyCalleeInOneBlock: the same two transactions in
// one block. The second's speculative view sits above the first's
// writes, none of which touches x — it must still price the CALL as the
// sequential run does.
func TestModeBlockSTMEmptyCalleeInOneBlock(t *testing.T) {
	genesis, blocks := emptyCalleeChain(true)
	block := blocks[0]
	traces, receipts, digest, err := CollectTraces(genesis, block)
	if err != nil {
		t.Fatal(err)
	}
	if receipts[1].Status != types.ReceiptSuccess {
		t.Fatal("the forwarded CALL failed; the block no longer exercises the case")
	}
	res, err := New(arch.DefaultConfig()).ReplayWith(block, traces, receipts, digest, ModeBlockSTM,
		ReplayOpts{NumPUs: 2, Head: headOf(genesis)})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Receipts {
		if r.Status != receipts[i].Status || r.GasUsed != receipts[i].GasUsed {
			t.Errorf("tx %d committed with status %d / gas %d, sequential says %d / %d",
				i, r.Status, r.GasUsed, receipts[i].Status, receipts[i].GasUsed)
		}
	}
}
