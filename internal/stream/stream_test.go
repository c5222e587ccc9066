package stream

import (
	"errors"
	"testing"
	"time"

	"mtpu/internal/core"
	"mtpu/internal/engine"
	"mtpu/internal/evm"
	"mtpu/internal/mvstate"
	"mtpu/internal/state"
	"mtpu/internal/telemetry"
	"mtpu/internal/types"
	"mtpu/internal/uint256"
	"mtpu/internal/workload"
)

// drive opens the spec's stream and pushes every block through a fresh
// service, returning the drained report and the telemetry registry.
func drive(t *testing.T, cfg Config, spec workload.Spec) (*Report, *telemetry.Metrics) {
	t.Helper()
	src, err := spec.OpenSource()
	if err != nil {
		t.Fatalf("opening stream: %v", err)
	}
	cfg.Genesis = src.Genesis()
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("starting service: %v", err)
	}
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		if err := svc.Submit(b); err != nil {
			t.Fatalf("submitting block: %v", err)
		}
	}
	rep, err := svc.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	return rep, svc.Tel()
}

// TestStreamAllEngines drains a block stream through every registered
// engine with full shadow validation: all accepted blocks commit, every
// shadow check passes, and the snapshot invariants hold after drain.
func TestStreamAllEngines(t *testing.T) {
	for _, mode := range engine.Modes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			spec := workload.Spec{Kind: "token", Blocks: 12, Txs: 12, Dep: 0.4, Seed: 7 + int64(mode)}
			rep, tel := drive(t, Config{Mode: mode, ShadowSample: 1, HotspotTopN: 4, VerifyChain: true}, spec)

			if rep.Committed != uint64(spec.Blocks) || rep.Accepted != uint64(spec.Blocks) {
				t.Fatalf("committed %d / accepted %d of %d blocks", rep.Committed, rep.Accepted, spec.Blocks)
			}
			if want := uint64(spec.Blocks * spec.Txs); rep.CommittedTxs != want {
				t.Fatalf("committed %d txs, want %d", rep.CommittedTxs, want)
			}
			if rep.ShadowChecks != uint64(spec.Blocks) || rep.ShadowFails != 0 {
				t.Fatalf("shadow checks=%d fails=%d, want %d/0", rep.ShadowChecks, rep.ShadowFails, spec.Blocks)
			}
			if rep.LatencyP50MS <= 0 || rep.LatencyP99MS < rep.LatencyP50MS {
				t.Fatalf("implausible latency percentiles: p50=%v p99=%v", rep.LatencyP50MS, rep.LatencyP99MS)
			}
			snap := tel.Snapshot()
			if snap.Stream == nil {
				t.Fatal("snapshot has no stream section after a drained stream")
			}
			if err := snap.Stream.Check(true); err != nil {
				t.Fatalf("drained snapshot invariants: %v", err)
			}
			// Learning ran on every block; the traces it took split into
			// analysed and reused with none lost, and a token stream
			// repeats its few execution paths from the first block on.
			if snap.Stream.LearnOffered == 0 || snap.Stream.LearnReused == 0 ||
				snap.Stream.LearnAnalyzed+snap.Stream.LearnReused != snap.Stream.LearnOffered {
				t.Fatalf("learn accounting: offered %d, analyzed %d, reused %d",
					snap.Stream.LearnOffered, snap.Stream.LearnAnalyzed, snap.Stream.LearnReused)
			}
		})
	}
}

// TestStreamChainedDigest is the cross-block state-chaining contract:
// after draining a chained stream, the service's head digest must be
// byte-identical to one sequential whole-stream replay of the same
// blocks over one evolving StateDB — block N+1 really ran against
// post-N state, with every fold digest-checked along the way
// (VerifyChain) and every block shadow-validated against its chained
// pre-state.
func TestStreamChainedDigest(t *testing.T) {
	spec := workload.Spec{Kind: "token", Blocks: 10, Txs: 16, Dep: 0.5, Seed: 21}
	src, err := spec.OpenSource()
	if err != nil {
		t.Fatalf("opening stream: %v", err)
	}
	genesis := src.Genesis()
	var blocks []*types.Block
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		blocks = append(blocks, b)
	}

	// The oracle: one sequential replay of the whole stream.
	seq := genesis.Copy()
	var want types.Hash
	for i, b := range blocks {
		if _, _, d, err := core.CollectTracesOn(seq, b); err != nil {
			t.Fatalf("sequential oracle block %d: %v", i, err)
		} else {
			want = d
		}
	}

	svc, err := New(Config{Mode: engine.ModeSTRedundancy, Genesis: genesis,
		ShadowSample: 1, VerifyChain: true})
	if err != nil {
		t.Fatalf("starting service: %v", err)
	}
	for _, b := range blocks {
		if err := svc.Submit(b); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	rep, err := svc.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if rep.Committed != uint64(len(blocks)) {
		t.Fatalf("committed %d of %d blocks", rep.Committed, len(blocks))
	}
	if rep.Height != uint64(len(blocks)) {
		t.Fatalf("report height %d, want %d", rep.Height, len(blocks))
	}
	if rep.HeadDigest != want.String() {
		t.Fatalf("service head digest %s != whole-stream sequential digest %s", rep.HeadDigest, want)
	}
	if rep.ShadowChecks != uint64(len(blocks)) || rep.ShadowFails != 0 {
		t.Fatalf("shadow checks=%d fails=%d, want %d/0", rep.ShadowChecks, rep.ShadowFails, len(blocks))
	}
	// The chained run must have exercised the mvstate layer.
	snap := svc.Tel().Snapshot()
	if snap.MVState == nil {
		t.Fatal("chained stream left no mvstate telemetry")
	}
	if snap.MVState.Commits != uint64(len(blocks)) {
		t.Fatalf("mvstate commits %d, want %d", snap.MVState.Commits, len(blocks))
	}
	if err := snap.MVState.Check(); err != nil {
		t.Fatalf("mvstate snapshot invariants: %v", err)
	}
}

// TestVerifyFoldIsIndependent: the -verify-chain check must not compare
// the accumulator's delta with itself. A head changed outside Commit
// leaves the accumulator — and every digest priced from it — where it
// was, so only the from-scratch sum can see it, and verifyFold must.
func TestVerifyFoldIsIndependent(t *testing.T) {
	src, err := workload.Spec{Kind: "token", Blocks: 2, Txs: 8, Dep: 0.3, Seed: 5}.OpenSource()
	if err != nil {
		t.Fatalf("opening stream: %v", err)
	}
	store := mvstate.NewStore(src.Genesis(), nil)
	for i := 0; ; i++ {
		b, ok := src.Next()
		if !ok {
			break
		}
		head := store.Head()
		prep, err := core.PrepareBlock(head, b)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		priced := prep.DigestAt(head, b.Header.Coinbase)
		store.Commit(prep.WriteKeys, prep.WriteVals, b.Header.Coinbase, &prep.Fees)
		if err := verifyFold(store, priced); err != nil {
			t.Fatalf("block %d: honest fold rejected: %v", i, err)
		}
	}

	priced := store.HeadDigest()
	store.HeadDB().SetBalance(types.Address{19: 0x77}, uint256.NewInt(1))
	store.HeadDB().DiscardJournal()
	if store.HeadDigest() != priced {
		t.Fatal("a write outside Commit moved the accumulator; the test proves nothing")
	}
	if err := verifyFold(store, priced); err == nil {
		t.Fatal("verifyFold accepted a head changed outside Commit")
	}
}

// TestStreamOverlap proves the pipeline stages actually overlap across
// blocks: with a stream long enough to fill the queues, prefetch of
// block N+1 must have been busy while execute of block N was.
func TestStreamOverlap(t *testing.T) {
	spec := workload.Spec{Kind: "token", Blocks: 32, Txs: 24, Dep: 0.3, Seed: 11}
	rep, tel := drive(t, Config{Mode: engine.ModeSTHotspot, ShadowSample: 0.25}, spec)
	if rep.Overlap == 0 {
		t.Fatalf("no stage overlap recorded across %d blocks — pipeline ran sequentially", spec.Blocks)
	}
	snap := tel.Snapshot()
	if snap.Stream.Overlap != rep.Overlap {
		t.Fatalf("report overlap %d != telemetry overlap %d", rep.Overlap, snap.Stream.Overlap)
	}
	for _, stage := range []telemetry.StreamStage{telemetry.StagePrefetch, telemetry.StageExecute} {
		if rep.StageBusyMS[stage.String()] <= 0 {
			t.Fatalf("stage %s recorded no busy time", stage)
		}
	}
}

// TestStreamBackpressure drives a service whose executor is artificially
// slow: TrySubmit must start returning ErrQueueFull once the bounded
// queues fill (bounded memory), and the graceful drain must still
// commit every block that was accepted.
func TestStreamBackpressure(t *testing.T) {
	spec := workload.Spec{Kind: "token", Blocks: 64, Txs: 4, Dep: 0, Seed: 3}
	src, err := spec.OpenSource()
	if err != nil {
		t.Fatalf("opening stream: %v", err)
	}
	svc, err := New(Config{Mode: engine.ModeScalar, Genesis: src.Genesis(), Queue: 2})
	if err != nil {
		t.Fatalf("starting service: %v", err)
	}
	release := make(chan struct{})
	svc.execHook = func() {
		select {
		case <-release:
		case <-time.After(5 * time.Second):
		}
	}

	// The stream is a chain: block N+1's sender nonces follow block N's.
	// A rejected block is therefore retried, never skipped — a later
	// block accepted in its place (prefetch may free a slot at any time)
	// could only be counted invalid by the execute stage — and once the
	// retries are refused too, ingest stops.
	const retries = 3
	var accepted, rejected int
ingest:
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		for attempt := 1; ; attempt++ {
			err := svc.TrySubmit(b)
			if err == nil {
				accepted++
				break
			}
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("TrySubmit: %v", err)
			}
			rejected++
			if attempt == retries {
				break ingest
			}
		}
	}
	if rejected == 0 {
		t.Fatalf("no blocks rejected: a stalled executor must surface as queue-full, accepted=%d", accepted)
	}
	// With three bounded stages of depth 2 the pipeline can hold only a
	// handful of blocks while the executor stalls.
	if max := 3*2 + 3; accepted > max {
		t.Fatalf("accepted %d blocks with a stalled executor; bounded queues should cap near %d", accepted, max)
	}

	close(release)
	rep, err := svc.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if rep.Invalid != 0 || rep.Committed+rep.Invalid != uint64(accepted) {
		t.Fatalf("drain committed %d and found %d invalid of %d accepted blocks", rep.Committed, rep.Invalid, accepted)
	}
	if rep.Rejected != uint64(rejected) {
		t.Fatalf("report rejected %d, ingest saw %d", rep.Rejected, rejected)
	}
	if err := svc.Tel().Snapshot().Stream.Check(true); err != nil {
		t.Fatalf("drained snapshot invariants: %v", err)
	}
}

// TestStreamInvalidBlock submits an undecodable (empty) block between
// valid ones: the service counts it invalid, keeps running, and commits
// the rest.
func TestStreamInvalidBlock(t *testing.T) {
	spec := workload.Spec{Kind: "token", Blocks: 4, Txs: 8, Dep: 0.2, Seed: 5}
	src, err := spec.OpenSource()
	if err != nil {
		t.Fatalf("opening stream: %v", err)
	}
	svc, err := New(Config{Mode: engine.ModeSpatialTemporal, Genesis: src.Genesis(), ShadowSample: 1})
	if err != nil {
		t.Fatalf("starting service: %v", err)
	}
	b1, _ := src.Next()
	if err := svc.Submit(b1); err != nil {
		t.Fatalf("submit: %v", err)
	}
	empty := types.NewBlock(b1.Header, nil)
	if err := svc.Submit(empty); err != nil {
		t.Fatalf("submit empty: %v", err)
	}
	b2, _ := src.Next()
	if err := svc.Submit(b2); err != nil {
		t.Fatalf("submit: %v", err)
	}
	rep, err := svc.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if rep.Invalid != 1 || rep.Committed != 2 {
		t.Fatalf("invalid=%d committed=%d, want 1/2", rep.Invalid, rep.Committed)
	}
	if err := svc.Tel().Snapshot().Stream.Check(true); err != nil {
		t.Fatalf("drained snapshot invariants: %v", err)
	}
}

// TestSubmitAfterClose verifies both submit paths refuse new blocks
// once the drain begins.
func TestSubmitAfterClose(t *testing.T) {
	spec := workload.Spec{Kind: "token", Blocks: 2, Txs: 4, Seed: 9}
	src, _ := spec.OpenSource()
	svc, err := New(Config{Mode: engine.ModeScalar, Genesis: src.Genesis()})
	if err != nil {
		t.Fatalf("starting service: %v", err)
	}
	svc.Close()
	b, _ := src.Next()
	if err := svc.Submit(b); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	if err := svc.TrySubmit(b); !errors.Is(err, ErrClosed) {
		t.Fatalf("TrySubmit after Close: %v, want ErrClosed", err)
	}
	if _, err := svc.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
}

func TestShadowStride(t *testing.T) {
	cases := []struct {
		sample float64
		want   uint64
	}{
		{0, 0}, {1, 1}, {0.5, 2}, {0.25, 4}, {0.1, 10}, {0.003, 333},
	}
	for _, c := range cases {
		if got := shadowStride(c.sample); got != c.want {
			t.Errorf("shadowStride(%v) = %d, want %d", c.sample, got, c.want)
		}
	}
}

// TestStreamStepGasAboveUint32: nothing about a block that reaches the
// service is trusted, and a zero-gas-price transaction can afford a
// memory expansion whose single-step gas cost does not fit 32 bits — the
// input that used to drop a trace off the packed replay image and onto a
// second replay loop. With one loop it must execute, commit and pass the
// shadow oracle like any other block, on a trace-replaying engine and on
// the engine that re-executes functionally.
func TestStreamStepGasAboveUint32(t *testing.T) {
	contract := types.HexToAddress("0xc0de00000000000000000000000000000000beef")
	sender := types.HexToAddress("0x5e0d00000000000000000000000000000000beef")
	// PUSH1 1, PUSH4 48_000_000, MSTORE, STOP: growing memory to 1.5M
	// words costs 3w + w²/512 ≈ 4.4e9 gas in the MSTORE step alone.
	code := []byte{byte(evm.PUSH1), 1, byte(evm.PUSH4), 0x02, 0xdc, 0x6c, 0x00, byte(evm.MSTORE), byte(evm.STOP)}
	genesis := state.New()
	genesis.SetCode(contract, code)
	genesis.DiscardJournal()

	newBlock := func() *types.Block { // the service owns (and rewrites the DAG of) each block it is given
		return types.NewBlock(types.BlockHeader{Height: 1, GasLimit: 1 << 40}, []*types.Transaction{
			{From: sender, To: &contract, GasLimit: 5_000_000_000, Data: []byte{0xaa, 0xbb, 0xcc, 0xdd}},
		})
	}

	for _, mode := range []engine.Mode{engine.ModeSTHotspot, engine.ModeBlockSTM} {
		svc, err := New(Config{Mode: mode, Genesis: genesis, ShadowSample: 1, VerifyChain: true, HotspotTopN: 4})
		if err != nil {
			t.Fatalf("%v: starting service: %v", mode, err)
		}
		if err := svc.Submit(newBlock()); err != nil {
			t.Fatalf("%v: submit: %v", mode, err)
		}
		rep, err := svc.Drain()
		if err != nil {
			t.Fatalf("%v: drain: %v", mode, err)
		}
		if rep.Committed != 1 || rep.Invalid != 0 || rep.ShadowChecks != 1 || rep.ShadowFails != 0 {
			t.Fatalf("%v: committed=%d invalid=%d shadow checks=%d fails=%d, want 1/0/1/0",
				mode, rep.Committed, rep.Invalid, rep.ShadowChecks, rep.ShadowFails)
		}
	}

	// The premise: the block's trace really holds such a step.
	traces, _, _, err := core.CollectTraces(genesis, newBlock())
	if err != nil {
		t.Fatal(err)
	}
	var largest uint64
	for _, s := range traces[0].Steps {
		largest = max(largest, s.GasCost)
	}
	if largest <= 1<<32 {
		t.Fatalf("largest step gas %d fits 32 bits; the test no longer exercises the case", largest)
	}
}

// TestStreamEmptyCalleeGas: what a value-bearing CALL costs depends on
// whether the callee is empty, and every layer a block passes through —
// decode at the folded head, Block-STM's speculative views, the shadow
// oracle's replay at a pinned pre-fold snapshot — must agree with the
// sequential reference on the answer. X receives a zero-value transfer
// and then a forwarder contract CALLs it with value, across a fold and
// inside one block; the last chain CALLs an empty (touched earlier), two
// never-seen and a funded address with and without value. Every engine
// must commit every block, pass every shadow check and end at the digest
// of one sequential replay over an evolving state.
func TestStreamEmptyCalleeGas(t *testing.T) {
	var (
		forwarder = types.HexToAddress("0xf0f0000000000000000000000000000000000001")
		sender    = types.HexToAddress("0x5e0d000000000000000000000000000000000002")
		funded    = types.HexToAddress("0xfade000000000000000000000000000000000003")
		x         = types.HexToAddress("0xeeee000000000000000000000000000000000004")
		y         = types.HexToAddress("0xeeee000000000000000000000000000000000005")
		z         = types.HexToAddress("0xeeee000000000000000000000000000000000006")
	)
	// CALL(gas: GAS, to: calldata[0:32], value: calldata[32:64], no data).
	code := []byte{
		byte(evm.PUSH1), 0, byte(evm.PUSH1), 0, byte(evm.PUSH1), 0, byte(evm.PUSH1), 0,
		byte(evm.PUSH1), 32, byte(evm.CALLDATALOAD), byte(evm.PUSH1), 0, byte(evm.CALLDATALOAD),
		byte(evm.GAS), byte(evm.CALL),
	}
	genesis := state.New()
	genesis.SetCode(forwarder, code)
	genesis.SetBalance(forwarder, uint256.NewInt(1000))
	genesis.SetBalance(sender, uint256.NewInt(1_000_000_000))
	genesis.SetBalance(funded, uint256.NewInt(1))
	genesis.DiscardJournal()

	touch := func(to types.Address) *types.Transaction {
		return &types.Transaction{From: sender, To: &to, GasLimit: 30_000, GasPrice: 1}
	}
	forward := func(to types.Address, value uint64) *types.Transaction {
		data := make([]byte, 64)
		copy(data[12:32], to[:])
		data[63] = byte(value)
		return &types.Transaction{From: sender, To: &forwarder, GasLimit: 200_000, GasPrice: 1, Data: data}
	}
	for name, chain := range map[string][][]*types.Transaction{
		"across a fold": {{touch(x)}, {forward(x, 5)}},
		"in one block":  {{touch(x), forward(x, 5)}},
		"callee table": {{touch(x)}, {
			forward(x, 0), forward(y, 0), forward(funded, 0),
			forward(x, 5), forward(z, 5), forward(funded, 5),
		}},
	} {
		// The service owns (and rewrites the DAG of) each block it is
		// given, so every run builds its own.
		build := func() []*types.Block {
			var blocks []*types.Block
			var nonce uint64
			for i, txs := range chain {
				var own []*types.Transaction
				for _, tx := range txs {
					cp := *tx
					cp.Nonce = nonce
					nonce++
					own = append(own, &cp)
				}
				blocks = append(blocks, types.NewBlock(types.BlockHeader{Height: uint64(i + 1), GasLimit: 1 << 30}, own))
			}
			return blocks
		}
		seq := genesis.Copy()
		var gas []uint64
		for i, b := range build() {
			receipts, err := evm.ExecuteBlockSequential(seq, b, nil)
			if err != nil {
				t.Fatalf("%s: sequential block %d: %v", name, i, err)
			}
			for _, r := range receipts {
				if r.Status != types.ReceiptSuccess {
					t.Fatalf("%s: sequential block %d tx %d failed; the chain no longer exercises the case", name, i, r.TxIndex)
				}
				gas = append(gas, r.GasUsed)
			}
		}
		// The premise: the CALL to the empty x pays for a new account, the
		// same CALL to a funded address does not.
		if name == "callee table" {
			if newAccount := gas[4] - gas[6]; newAccount != evm.GasNewAccount {
				t.Fatalf("value CALL to an empty callee costs %d more than to a funded one, want %d", newAccount, evm.GasNewAccount)
			}
		}
		for _, mode := range engine.Modes() {
			svc, err := New(Config{Mode: mode, Genesis: genesis, ShadowSample: 1, VerifyChain: true, HotspotTopN: 4})
			if err != nil {
				t.Fatalf("%s/%v: starting service: %v", name, mode, err)
			}
			blocks := build()
			for _, b := range blocks {
				if err := svc.Submit(b); err != nil {
					t.Fatalf("%s/%v: submit: %v", name, mode, err)
				}
			}
			rep, err := svc.Drain()
			if err != nil {
				t.Errorf("%s/%v: %v", name, mode, err)
				continue
			}
			if n := uint64(len(blocks)); rep.Committed != n || rep.ShadowChecks != n || rep.ShadowFails != 0 {
				t.Errorf("%s/%v: committed=%d shadow checks=%d fails=%d of %d blocks",
					name, mode, rep.Committed, rep.ShadowChecks, rep.ShadowFails, n)
			}
			if got, want := svc.HeadDigest(), seq.Digest(); got != want {
				t.Errorf("%s/%v: head digest %s != sequential reference %s", name, mode, got, want)
			}
		}
	}
}
