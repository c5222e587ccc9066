package core

import (
	"reflect"
	"strings"
	"testing"

	"mtpu/internal/arch"
	"mtpu/internal/engine"
	"mtpu/internal/evm"
	"mtpu/internal/mvstate"
	"mtpu/internal/sched"
	"mtpu/internal/state"
	"mtpu/internal/types"
	"mtpu/internal/workload"
)

func TestVerifyScheduleDetectsTampering(t *testing.T) {
	genesis, block := buildBlock(t, 41, 60, 0.6)
	acc := New(arch.DefaultConfig())
	res, err := acc.Execute(genesis, block, ModeSpatialTemporal)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyScheduleAt(headOf(genesis), block, res); err != nil {
		t.Fatalf("honest schedule rejected: %v", err)
	}

	// Duplicate a dispatch.
	tampered := *res
	tampered.Sched.Dispatches = append([]sched.Dispatch{}, res.Sched.Dispatches...)
	tampered.Sched.Dispatches = append(tampered.Sched.Dispatches, res.Sched.Dispatches[0])
	if err := VerifyScheduleAt(headOf(genesis), block, &tampered); err == nil {
		t.Error("duplicate dispatch accepted")
	}

	// Drop a dispatch.
	tampered.Sched.Dispatches = res.Sched.Dispatches[:len(res.Sched.Dispatches)-1]
	if err := VerifyScheduleAt(headOf(genesis), block, &tampered); err == nil {
		t.Error("missing dispatch accepted")
	}

	// Reorder a dependent pair: find an edge and swap start times so the
	// dependent commits first.
	var dep, pre = -1, -1
	for j, deps := range block.DAG.Deps {
		if len(deps) > 0 {
			dep, pre = j, deps[0]
			break
		}
	}
	if dep < 0 {
		t.Skip("no dependent transaction in block")
	}
	bad := make([]sched.Dispatch, len(res.Sched.Dispatches))
	copy(bad, res.Sched.Dispatches)
	for i := range bad {
		if bad[i].Tx == dep {
			bad[i].Start = 0
		}
		if bad[i].Tx == pre {
			bad[i].Start = 1 << 40
		}
	}
	tampered.Sched.Dispatches = bad
	if err := VerifyScheduleAt(headOf(genesis), block, &tampered); err == nil {
		t.Error("dependency-violating order accepted")
	} else if !strings.Contains(err.Error(), "tx") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// TestVerifyScheduleAtPinnedSnapshotAfterFold: the stream's commit stage
// folds block N first and shadow-validates it afterwards, against a
// snapshot pinned before the fold. The replay's digest must be priced at
// the pin's height: priced over the folded head, a replay that drops a
// write the sequential run made would still match, because the head
// already holds it.
func TestVerifyScheduleAtPinnedSnapshotAfterFold(t *testing.T) {
	contract := types.HexToAddress("0xc0de000000000000000000000000000000000001")
	sender := types.HexToAddress("0x5e0d000000000000000000000000000000000002")
	// SSTORE(0, 1) only when called with data.
	genesis := state.New()
	genesis.SetCode(contract, []byte{
		byte(evm.CALLDATASIZE), byte(evm.PUSH1), 5, byte(evm.JUMPI), byte(evm.STOP),
		byte(evm.JUMPDEST), byte(evm.PUSH1), 1, byte(evm.PUSH1), 0, byte(evm.SSTORE),
	})
	genesis.DiscardJournal()
	newBlock := func(data []byte) *types.Block { // gas price 0: the sender's balance does not tell the two apart
		return types.NewBlock(types.BlockHeader{Height: 1, GasLimit: 1 << 30},
			[]*types.Transaction{{From: sender, To: &contract, GasLimit: 100_000, Data: data}})
	}
	result := func(prep *Prepared, digest types.Hash) *Result {
		return &Result{Receipts: prep.Receipts, StateDigest: digest,
			Sched: sched.Result{Dispatches: []sched.Dispatch{{Tx: 0, Start: 0, End: 1}}}}
	}

	store := mvstate.NewStore(genesis, nil)
	pin := store.Pin()
	defer pin.Close()
	block := newBlock([]byte{1})
	prep, err := PrepareBlock(pin, block)
	if err != nil {
		t.Fatal(err)
	}
	digest := prep.DigestAt(pin, block.Header.Coinbase)
	store.Commit(prep.WriteKeys, prep.WriteVals, block.Header.Coinbase, &prep.Fees)

	if err := VerifyScheduleAt(pin, block, result(prep, digest)); err != nil {
		t.Fatalf("honest replay rejected after the fold: %v", err)
	}
	silent := newBlock(nil)
	dropped, err := PrepareBlock(pin, silent)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped.WriteKeys) >= len(prep.WriteKeys) {
		t.Fatal("the data-less call writes as much as the other; the test proves nothing")
	}
	if err := VerifyScheduleAt(pin, silent, result(dropped, digest)); err == nil {
		t.Error("a replay that drops the storage write matched the sequential digest")
	}
}

func TestModeStrings(t *testing.T) {
	for _, m := range allModes {
		if m.String() == "" {
			t.Errorf("mode %d has no name", m)
		}
	}
}

func TestConfigForModeLadder(t *testing.T) {
	cfg := arch.DefaultConfig()
	configFor := func(m Mode) arch.Config {
		e, err := engine.Get(m)
		if err != nil {
			t.Fatal(err)
		}
		return e.Configure(cfg)
	}
	scalar := configFor(ModeScalar)
	if scalar.EnableDBCache || scalar.ReuseContext || scalar.NumPUs != 1 {
		t.Errorf("scalar config %+v", scalar)
	}
	seq := configFor(ModeSequentialILP)
	if !seq.EnableDBCache || seq.ReuseContext || seq.NumPUs != 1 {
		t.Errorf("sequential config %+v", seq)
	}
	st := configFor(ModeSpatialTemporal)
	if st.ReuseContext || st.NumPUs != cfg.NumPUs {
		t.Errorf("ST config %+v", st)
	}
	red := configFor(ModeSTRedundancy)
	if !red.ReuseContext {
		t.Errorf("redundancy config %+v", red)
	}
}

func TestTopAddresses(t *testing.T) {
	a := types.BytesToAddress([]byte{1})
	b := types.BytesToAddress([]byte{2})
	c := types.BytesToAddress([]byte{3})
	counts := map[types.Address]int{a: 5, b: 9, c: 5}
	top := topAddresses(counts, 2)
	if len(top) != 2 || top[0] != b {
		t.Fatalf("top %v", top)
	}
	// Tie between a and c broken by address for determinism.
	if top[1] != a {
		t.Fatalf("tie break %v", top)
	}
	if got := topAddresses(counts, 10); len(got) != 3 {
		t.Fatalf("clamp %v", got)
	}
	if got := topAddresses(nil, 3); len(got) != 0 {
		t.Fatalf("empty %v", got)
	}
}

func TestLearnHotspotsHonorsTopN(t *testing.T) {
	genesis, block := buildBlock(t, 47, 80, 0.2)
	traces, _, _, err := CollectTraces(genesis, block)
	if err != nil {
		t.Fatal(err)
	}
	acc := New(arch.DefaultConfig())
	hot := acc.LearnHotspots(traces, 2)
	if len(hot) != 2 {
		t.Fatalf("%d hotspots with topN=2", len(hot))
	}
	// Table entries only for those two contracts.
	for _, key := range acc.Table.Keys() {
		if key.Addr != hot[0] && key.Addr != hot[1] {
			t.Fatalf("entry for non-hotspot contract %s", key.Addr)
		}
	}
}

func TestHotspotModeNeverSlower(t *testing.T) {
	// Across several seeds the hotspot mode must never lose to plain
	// redundancy mode (optimizations are strictly subtractive in cycles).
	for seed := int64(60); seed < 64; seed++ {
		genesis, block := buildBlock(t, seed, 80, 0.4)
		acc := New(arch.DefaultConfig())
		traces, receipts, digest, err := CollectTraces(genesis, block)
		if err != nil {
			t.Fatal(err)
		}
		acc.LearnHotspots(traces, 8)
		red, err := acc.Replay(block, traces, receipts, digest, ModeSTRedundancy)
		if err != nil {
			t.Fatal(err)
		}
		hot, err := acc.Replay(block, traces, receipts, digest, ModeSTHotspot)
		if err != nil {
			t.Fatal(err)
		}
		if hot.Cycles > red.Cycles {
			t.Errorf("seed %d: hotspot %d > redundancy %d cycles", seed, hot.Cycles, red.Cycles)
		}
		if hot.SkippedInstructions == 0 {
			t.Errorf("seed %d: nothing skipped", seed)
		}
	}
}

func TestHotspotTableGeneralizesAcrossBlocks(t *testing.T) {
	// Learn the Contract Table from one block, then apply it to a second
	// block with different transactions over the same contracts — the
	// §3.4 premise that optimization results stay valid for the lifetime
	// of a contract.
	g := workload.NewGenerator(91, 2048)
	genesis := g.Genesis()

	trainBlock := g.TokenBlock(120, 0.3)
	if _, err := workload.BuildDAG(genesis, trainBlock); err != nil {
		t.Fatal(err)
	}
	trainTraces, _, _, err := CollectTraces(genesis, trainBlock)
	if err != nil {
		t.Fatal(err)
	}
	acc := New(arch.DefaultConfig())
	acc.LearnHotspots(trainTraces, 8)

	testBlock := g.TokenBlock(120, 0.3)
	if _, err := workload.BuildDAG(genesis, testBlock); err != nil {
		t.Fatal(err)
	}
	traces, receipts, digest, err := CollectTraces(genesis, testBlock)
	if err != nil {
		t.Fatal(err)
	}
	red, err := acc.Replay(testBlock, traces, receipts, digest, ModeSTRedundancy)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := acc.Replay(testBlock, traces, receipts, digest, ModeSTHotspot)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Cycles >= red.Cycles {
		t.Fatalf("learned table did not transfer: hotspot %d >= redundancy %d",
			hot.Cycles, red.Cycles)
	}
	if hot.SkippedInstructions == 0 {
		t.Fatal("no instructions skipped on the unseen block")
	}
	if err := VerifyScheduleAt(headOf(genesis), testBlock, hot); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteChainLearnsAcrossBlocks(t *testing.T) {
	genesis, blocks := tokenChain(t, workload.Spec{Kind: "token", Blocks: 4, Txs: 96, Dep: 0.3, Seed: 101, Accounts: 8192})

	acc := New(arch.DefaultConfig())
	results, err := acc.ExecuteChain(genesis, blocks, ModeSTHotspot, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d results", len(results))
	}
	// Block 0 runs cold (nothing learned yet); later blocks must skip
	// instructions and run faster than the cold block.
	if results[0].SkippedInstructions != 0 {
		t.Fatalf("cold block skipped %d instructions", results[0].SkippedInstructions)
	}
	for i := 1; i < len(results); i++ {
		if results[i].SkippedInstructions == 0 {
			t.Errorf("block %d: warm table skipped nothing", i)
		}
		if results[i].Cycles >= results[0].Cycles {
			t.Errorf("block %d: %d cycles not below cold %d",
				i, results[i].Cycles, results[0].Cycles)
		}
	}
	// Each block's digest must differ (the chain is advancing state).
	for i := 1; i < len(results); i++ {
		if results[i].StateDigest == results[i-1].StateDigest {
			t.Errorf("blocks %d and %d share a digest", i-1, i)
		}
	}
}

func TestExecuteChainRejectsOutOfOrderBlocks(t *testing.T) {
	// A small account pool forces sender reuse across the two blocks, so
	// block 2 carries nonces that only exist after block 1 commits.
	genesis, blocks := tokenChain(t, workload.Spec{Kind: "token", Blocks: 2, Txs: 40, Seed: 103, Accounts: 50})
	acc := New(arch.DefaultConfig())
	// Executing block 2 before block 1 must fail on nonces.
	if _, err := acc.ExecuteChain(genesis, []*types.Block{blocks[1], blocks[0]}, ModeScalar, 0); err == nil {
		t.Fatal("out-of-order chain accepted")
	}
}

// TestExecuteChainEveryEngine runs a chain under every registered
// engine, Block-STM included (it needs the pre-block head), and holds
// each block's receipts and digest to a sequential run over an evolving
// copy of genesis. The small account pool makes later blocks depend on
// the state earlier ones committed.
func TestExecuteChainEveryEngine(t *testing.T) {
	genesis, blocks := tokenChain(t, workload.Spec{Kind: "token", Blocks: 3, Txs: 40, Dep: 0.3, Seed: 107, Accounts: 64})
	st := genesis.Copy()
	wantReceipts := make([][]*types.Receipt, len(blocks))
	wantDigests := make([]types.Hash, len(blocks))
	for i, b := range blocks {
		_, receipts, digest, err := CollectTracesOn(st, b)
		if err != nil {
			t.Fatal(err)
		}
		wantReceipts[i], wantDigests[i] = receipts, digest
	}
	for _, m := range engine.Modes() {
		results, err := New(arch.DefaultConfig()).ExecuteChain(genesis, blocks, m, 8)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for i, res := range results {
			if res.StateDigest != wantDigests[i] {
				t.Errorf("%v block %d: digest %s, sequential %s", m, i, res.StateDigest, wantDigests[i])
			}
			if !reflect.DeepEqual(res.Receipts, wantReceipts[i]) {
				t.Errorf("%v block %d: receipts differ from the sequential run", m, i)
			}
		}
	}
}

func TestTPS(t *testing.T) {
	if got := TPS(100, 300_000_000, PrototypeClockHz); got != 100 {
		t.Fatalf("TPS = %f", got)
	}
	if TPS(100, 0, PrototypeClockHz) != 0 {
		t.Fatal("zero cycles")
	}
}
