package mvstate

import (
	"sync"
	"testing"
	"time"

	"mtpu/internal/state"
	"mtpu/internal/telemetry"
	"mtpu/internal/types"
	"mtpu/internal/uint256"
)

func storeGenesis() *state.StateDB {
	g := state.New()
	for i := byte(1); i <= 4; i++ {
		addr := types.Address{19: i}
		g.SetBalance(addr, uint256.NewInt(100*uint64(i)))
		g.SetNonce(addr, uint64(i))
	}
	g.DiscardJournal()
	return g
}

// TestStoreCommitFoldsHead checks the core fold invariant: after
// Commit, a bare head snapshot (and HeadDigest) reflect the write-set
// plus the coinbase fee, and the result is byte-identical to applying
// the same writes to a plain copy of the pre-state.
func TestStoreCommitFoldsHead(t *testing.T) {
	genesis := storeGenesis()
	st := NewStore(genesis, nil)
	a := types.Address{19: 1}
	coinbase := types.Address{19: 0xfe}

	keys := []state.AccessKey{balKey(a), nonceKey(a), storageKey(a, types.Hash{31: 7})}
	vals := []Value{word(55), {U64: 9}, word(77)}
	fee := uint256.NewInt(3)

	// Pricing the write-set over the head must predict the post-fold
	// digest exactly — this is what the stream's execute stage relies on.
	head := st.Head()
	want := head.DigestAfter(keys, vals, coinbase, fee)

	if h := st.Commit(keys, vals, coinbase, fee); h != 1 {
		t.Fatalf("first commit returned height %d, want 1", h)
	}
	if st.Height() != 1 {
		t.Fatalf("Height() = %d after one commit", st.Height())
	}
	if got := st.HeadDigest(); got != want {
		t.Fatalf("post-fold digest %s != priced pre-fold digest %s", got, want)
	}

	// And it must match a plain sequential application of the same writes.
	seq := genesis.Copy()
	seq.SetBalance(a, uint256.NewInt(55))
	seq.SetNonce(a, 9)
	seq.SetState(a, types.Hash{31: 7}, *uint256.NewInt(77))
	var cb uint256.Int
	cb.Add(seq.GetBalance(coinbase), fee)
	seq.SetBalance(coinbase, &cb)
	if got := st.HeadDigest(); got != seq.Digest() {
		t.Fatalf("folded head %s != sequential oracle %s", got, seq.Digest())
	}

	hd := st.Head()
	if hd.GetBalance(a).Uint64() != 55 || hd.GetNonce(a) != 9 {
		t.Fatal("bare head snapshot does not see the folded values")
	}
	if v := hd.GetState(a, types.Hash{31: 7}); v.Uint64() != 77 {
		t.Fatalf("head storage = %v, want 77", v.Uint64())
	}
	if hd.GetBalance(coinbase).Uint64() != 3 {
		t.Fatalf("coinbase fee not folded: %v", hd.GetBalance(coinbase))
	}
}

// TestPinnedSnapshotIsolation pins a snapshot, folds two more blocks,
// and requires the pin to keep reading its height while bare head
// snapshots see each fold.
func TestPinnedSnapshotIsolation(t *testing.T) {
	st := NewStore(storeGenesis(), nil)
	a := types.Address{19: 2}
	slot := types.Hash{31: 3}

	st.Commit([]state.AccessKey{balKey(a), storageKey(a, slot)},
		[]Value{word(10), word(1)}, types.Address{}, nil)

	pin := st.Pin()
	defer pin.Close()
	if pin.Height() != 1 {
		t.Fatalf("pin height %d, want 1", pin.Height())
	}

	st.Commit([]state.AccessKey{balKey(a), nonceKey(a)}, []Value{word(20), {U64: 8}}, types.Address{}, nil)
	st.Commit([]state.AccessKey{storageKey(a, slot)}, []Value{word(3)}, types.Address{}, nil)

	if got := pin.GetBalance(a).Uint64(); got != 10 {
		t.Errorf("pinned balance = %d, want pre-fold 10", got)
	}
	if got := pin.GetState(a, slot); got.Uint64() != 1 {
		t.Errorf("pinned storage = %d, want pre-fold 1", got.Uint64())
	}
	// Nonce was never written at or before the pin height for a chain
	// seed, but its chain carries a height-0 pre-image; the genesis value
	// must come back, not the folded 8.
	if got := pin.GetNonce(a); got != 2 {
		t.Errorf("pinned nonce = %d, want genesis 2", got)
	}
	// Keys never folded fall through to the base.
	other := types.Address{19: 4}
	if got := pin.GetBalance(other).Uint64(); got != 400 {
		t.Errorf("untouched key through pin = %d, want 400", got)
	}

	head := st.Head()
	if head.GetBalance(a).Uint64() != 20 || head.GetNonce(a) != 8 {
		t.Error("bare head does not see the later folds")
	}
	if got := head.GetState(a, slot); got.Uint64() != 3 {
		t.Errorf("head storage = %d, want 3", got.Uint64())
	}
}

// TestPinnedSnapshotDigestsAtItsHeight: a pinned snapshot prices digests
// at its own height, however far the head has moved — the commit stage
// shadow-validates block N against a snapshot pinned before N's fold,
// after the fold. It carries the accumulator of its height, and the old
// value DigestAfter takes out for each key is the one it still reads.
func TestPinnedSnapshotDigestsAtItsHeight(t *testing.T) {
	st := NewStore(storeGenesis(), nil)
	a, fresh, coinbase := types.Address{19: 2}, types.Address{19: 9}, types.Address{19: 0xfe}
	slot := types.Hash{31: 3}
	st.Commit([]state.AccessKey{storageKey(a, slot)}, []Value{word(1)}, coinbase, uint256.NewInt(2))

	pin := st.Pin()
	defer pin.Close()
	before := st.HeadDigest()

	keys := []state.AccessKey{storageKey(a, slot), balKey(a), nonceKey(fresh), codeKey(fresh)}
	vals := []Value{word(0), word(7), {U64: 1}, {Code: []byte{0xfe}}}
	fee := uint256.NewInt(3)
	st.Commit(keys, vals, coinbase, fee)
	st.Commit([]state.AccessKey{balKey(a)}, []Value{word(8)}, coinbase, fee)
	if st.HeadDigest() == before {
		t.Fatal("the folds left the head digest unchanged; the test proves nothing")
	}

	if got := pin.DigestAfter(nil, nil, coinbase, nil); got != before {
		t.Errorf("pinned DigestAfter of nothing = %s after two folds, want the digest at its height %s", got, before)
	}
	if got := pin.Digest(); got != before {
		t.Errorf("pinned Digest = %s after two folds, want the digest at its height %s", got, before)
	}
	// The first fold's write-set priced over the pin is the state after
	// that fold alone: the seed of the second fold's chain entry.
	want := storeGenesis()
	want.SetBalance(coinbase, uint256.NewInt(5))
	want.SetBalance(a, uint256.NewInt(7))
	want.SetNonce(fresh, 1)
	want.SetCode(fresh, []byte{0xfe})
	if got := pin.DigestAfter(keys, vals, coinbase, fee); got != want.Digest() {
		t.Errorf("write-set priced over the pin = %s, want %s", got, want.Digest())
	}
}

// TestChainPruningRespectsPins folds the same key repeatedly and
// checks chains prune to the lowest live pin, not further, and shrink
// once the pin releases.
func TestChainPruningRespectsPins(t *testing.T) {
	tel := telemetry.New()
	st := NewStore(storeGenesis(), tel)
	a := types.Address{19: 1}

	st.Commit([]state.AccessKey{balKey(a)}, []Value{word(1)}, types.Address{}, nil)
	pin := st.Pin() // height 1
	for v := uint64(2); v <= 5; v++ {
		st.Commit([]state.AccessKey{balKey(a)}, []Value{word(v)}, types.Address{}, nil)
	}

	id := st.intern[balKey(a)]
	st.mu.RLock()
	chainLen := len(st.chains[id])
	first := st.chains[id][0].height
	st.mu.RUnlock()
	// Entries below the pin prune, but the entry visible AT the pin
	// (height 1) must survive: chain = {1, 2, 3, 4, 5}.
	if first != 1 {
		t.Fatalf("oldest surviving entry at height %d, want 1 (pin floor)", first)
	}
	if chainLen != 5 {
		t.Fatalf("chain length %d with live pin, want 5", chainLen)
	}
	if got := pin.GetBalance(a).Uint64(); got != 1 {
		t.Fatalf("pinned read = %d after pruning, want 1", got)
	}

	// Release the pin; the next fold prunes everything the new floor
	// (current height, no pins) cannot reach.
	pin.Close()
	st.Commit([]state.AccessKey{balKey(a)}, []Value{word(6)}, types.Address{}, nil)
	st.mu.RLock()
	chainLen = len(st.chains[id])
	st.mu.RUnlock()
	if chainLen != 1 {
		t.Fatalf("chain length %d after pin release, want 1", chainLen)
	}

	snap := tel.Snapshot()
	if snap.MVState == nil {
		t.Fatal("store activity produced no mvstate telemetry section")
	}
	if err := snap.MVState.Check(); err != nil {
		t.Fatalf("telemetry invariants: %v", err)
	}
	if snap.MVState.Commits != 6 {
		t.Fatalf("commits = %d, want 6", snap.MVState.Commits)
	}
	if snap.MVState.VersionsGCd == 0 {
		t.Fatal("pruning happened but VersionsGCd is zero")
	}
}

// TestDoubleCloseAndMultiPin covers pin refcounting: two pins at one
// height hold the floor until both close, and Close is idempotent.
func TestDoubleCloseAndMultiPin(t *testing.T) {
	st := NewStore(storeGenesis(), nil)
	a := types.Address{19: 3}
	st.Commit([]state.AccessKey{balKey(a)}, []Value{word(1)}, types.Address{}, nil)

	p1, p2 := st.Pin(), st.Pin()
	p1.Close()
	p1.Close() // idempotent; must not disturb p2's pin
	st.Commit([]state.AccessKey{balKey(a)}, []Value{word(2)}, types.Address{}, nil)
	if got := p2.GetBalance(a).Uint64(); got != 1 {
		t.Fatalf("second pin read %d after sibling double-close, want 1", got)
	}
	p2.Close()
	if len(st.pins) != 0 {
		t.Fatalf("pins map not empty after all closes: %v", st.pins)
	}
}

// TestInvalidated checks the prefetch revalidation predicate both ways
// and its telemetry accounting.
func TestInvalidated(t *testing.T) {
	tel := telemetry.New()
	st := NewStore(storeGenesis(), tel)
	a, b := types.Address{19: 1}, types.Address{19: 2}

	st.Commit([]state.AccessKey{balKey(a)}, []Value{word(7)}, types.Address{}, nil)

	if st.Invalidated([]state.AccessKey{balKey(a)}, 1) {
		t.Error("read at the fold height reported stale")
	}
	if !st.Invalidated([]state.AccessKey{balKey(a)}, 0) {
		t.Error("read below the fold height reported clean")
	}
	if st.Invalidated([]state.AccessKey{balKey(b)}, 0) {
		t.Error("never-folded key reported stale")
	}
	if st.Invalidated(nil, 0) {
		t.Error("empty read-set reported stale")
	}

	snap := tel.Snapshot().MVState
	if snap.Revalidations != 4 || snap.Invalidations != 1 {
		t.Fatalf("revalidations/invalidations = %d/%d, want 4/1", snap.Revalidations, snap.Invalidations)
	}
}

// TestWaitHeightAndInterrupt covers the cross-stage handshake: waiters
// wake on the fold that reaches their height, and Interrupt fails all
// present and future waits fast.
func TestWaitHeightAndInterrupt(t *testing.T) {
	st := NewStore(storeGenesis(), nil)
	if !st.WaitHeight(0) {
		t.Fatal("WaitHeight(0) on a fresh store did not return immediately")
	}

	done := make(chan bool, 1)
	go func() { done <- st.WaitHeight(1) }()
	time.Sleep(5 * time.Millisecond) // let the waiter block
	st.Commit([]state.AccessKey{balKey(types.Address{19: 1})}, []Value{word(1)}, types.Address{}, nil)
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("waiter woken by Commit reported interruption")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitHeight(1) did not wake on the fold")
	}

	var wg sync.WaitGroup
	results := make(chan bool, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- st.WaitHeight(100)
		}()
	}
	time.Sleep(5 * time.Millisecond)
	st.Interrupt()
	wg.Wait()
	close(results)
	for ok := range results {
		if ok {
			t.Fatal("interrupted waiter reported the height as reached")
		}
	}
	if st.WaitHeight(100) {
		t.Fatal("WaitHeight after Interrupt did not fail fast")
	}
	// Already-reached heights still succeed post-interrupt.
	if !st.WaitHeight(1) {
		t.Fatal("WaitHeight(reached) failed after Interrupt")
	}
}

// TestConcurrentPinnedReadsDuringCommits is the lock-discipline smoke:
// pinned snapshots read concurrently with a committer and must keep
// observing their pinned height (run with -race).
func TestConcurrentPinnedReadsDuringCommits(t *testing.T) {
	st := NewStore(storeGenesis(), nil)
	a := types.Address{19: 1}
	slot := types.Hash{31: 5}
	st.Commit([]state.AccessKey{storageKey(a, slot)}, []Value{word(42)}, types.Address{}, nil)

	pin := st.Pin()
	defer pin.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v := pin.GetState(a, slot); v.Uint64() != 42 {
					t.Errorf("pinned read saw %d, want 42", v.Uint64())
					return
				}
			}
		}()
	}
	for v := uint64(0); v < 200; v++ {
		st.Commit([]state.AccessKey{storageKey(a, slot)}, []Value{word(v)}, types.Address{}, nil)
	}
	close(stop)
	wg.Wait()
}

// TestHotPathsAllocateNothing pins the revalidation predicate, bare
// head reads and the head digest as allocation-free: the first two run
// once per block in the stream pipeline's execute stage, the digest on
// every /healthz poll and report, under the lock a fold waits for.
func TestHotPathsAllocateNothing(t *testing.T) {
	st := NewStore(storeGenesis(), nil)
	a := types.Address{19: 1}
	slot := types.Hash{31: 1}
	st.Commit([]state.AccessKey{balKey(a), storageKey(a, slot)},
		[]Value{word(5), word(6)}, types.Address{}, nil)

	reads := []state.AccessKey{balKey(a), storageKey(a, slot), nonceKey(types.Address{19: 2})}
	if allocs := testing.AllocsPerRun(200, func() {
		if st.Invalidated(reads, 1) {
			t.Fatal("clean read-set reported stale")
		}
	}); allocs != 0 {
		t.Errorf("Invalidated allocates %.1f times per call, want 0", allocs)
	}

	head := st.Head()
	if allocs := testing.AllocsPerRun(200, func() {
		_ = head.GetNonce(a)
		_ = head.GetState(a, slot)
	}); allocs != 0 {
		t.Errorf("bare snapshot reads allocate %.1f times per call, want 0", allocs)
	}

	if allocs := testing.AllocsPerRun(200, func() {
		_ = st.HeadDigest()
		_ = st.Head().Digest()
	}); allocs != 0 {
		t.Errorf("head digest allocates %.1f times per call, want 0", allocs)
	}
}
