// Package mvstate is the unified multi-version state layer shared by
// every execution engine. It generalizes Block-STM's multi-version
// memory (the intra-block version lists in MVMemory/View, which the
// stm executor drives) to the cross-block axis: a Store owns the
// canonical head StateDB and keeps, per interned state key, a short
// version chain of the values committed at each block height. Pinned
// Snapshots read the state as of their height even while later blocks
// fold in, which is what lets the stream pipeline prefetch and decode
// block N+1 while block N is still executing — the versioned analogue
// of the State Buffer holding hot state across blocks in the paper's
// architecture.
//
// The layering mirrors PArSEC's split between the execution layer and
// a versioned key-value backend: engines execute against Reader
// snapshots through a View (the decode and verify paths buffer a whole
// block in one, the STM executor gives each incarnation its own over an
// MVMemory), and the commit stage folds each block's winning write-set
// into the head with Commit. Version chains are pruned as
// pins release, so the steady-state memory cost is the head plus a few
// entries per recently-written key.
package mvstate

import (
	"sync"

	"mtpu/internal/state"
	"mtpu/internal/telemetry"
	"mtpu/internal/types"
	"mtpu/internal/uint256"
)

// Reader is the read-only state surface engines execute against: both
// *state.StateDB and *Snapshot satisfy it, so the same View runs in
// one-shot replays (bare genesis) and in the chained stream service
// (store snapshots). It has no notion of account existence: an account
// is what its nonce, balance, code and slots say, and every snapshot
// resolves those exactly at its own height.
type Reader interface {
	GetBalance(types.Address) *uint256.Int
	GetNonce(types.Address) uint64
	GetCode(types.Address) []byte
	GetCodeHash(types.Address) types.Hash
	GetState(types.Address, types.Hash) uint256.Int
}

var _ Reader = (*state.StateDB)(nil)
var _ Reader = (*Snapshot)(nil)

// KeyID is the dense interned id of one state.AccessKey, assigned in
// first-fold order (the cross-block analogue of the simulator's
// TouchID interning).
type KeyID uint32

// centry is one committed version of a key: the value the key holds
// from block `height` onward (height 0 is the pre-image the key had
// before its first fold).
type centry struct {
	height uint64
	val    Value
}

// Store owns the canonical head state and the per-key version chains
// that let pinned snapshots read past heights. All mutation happens in
// Commit under the write lock; pinned snapshot reads take the read
// lock. The commit stage may additionally read the head StateDB
// lock-free through Head()/HeadDB() — see those methods for the
// sequencing contract.
type Store struct {
	mu      sync.RWMutex
	heightC *sync.Cond // signaled on every Commit and on Interrupt

	base        *state.StateDB // canonical head; mutated only by Commit
	height      uint64         // number of blocks folded in
	interrupted bool

	intern    map[state.AccessKey]KeyID
	keys      []state.AccessKey
	chains    [][]centry
	lastWrite []uint64 // height of the most recent fold per key

	pins map[uint64]int // snapshot height -> refcount

	tel      *telemetry.Metrics
	entries  int // live chain entries across all keys
	maxChain int
}

// NewStore copies genesis into a private head and returns a store at
// height 0. tel may be nil.
func NewStore(genesis *state.StateDB, tel *telemetry.Metrics) *Store {
	s := &Store{
		base:   genesis.Copy(),
		intern: make(map[state.AccessKey]KeyID),
		pins:   make(map[uint64]int),
		tel:    tel,
	}
	s.heightC = sync.NewCond(s.mu.RLocker())
	return s
}

// Height returns the number of blocks folded into the head.
func (s *Store) Height() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.height
}

// WaitHeight blocks until the head reaches height h (or returns
// immediately if it already has). It returns false when the store was
// interrupted before the height was reached — the caller is shutting
// down and must not touch the head.
func (s *Store) WaitHeight(h uint64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for s.height < h && !s.interrupted {
		s.heightC.Wait()
	}
	return s.height >= h
}

// Interrupt wakes every WaitHeight waiter and makes all future waits
// fail fast. Used on pipeline halt so a stage blocked on a fold that
// will never happen can exit.
func (s *Store) Interrupt() {
	s.mu.Lock()
	s.interrupted = true
	s.mu.Unlock()
	s.heightC.Broadcast()
}

// HeadDigest digests the canonical head under the read lock.
func (s *Store) HeadDigest() types.Hash {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.base.Digest()
}

// Head returns a bare snapshot of the canonical head: reads go straight
// to the head StateDB with no locking. It is only safe on the sequenced
// execute/commit path, where the caller has established (via WaitHeight
// or channel ordering) that no Commit runs concurrently with its reads.
func (s *Store) Head() *Snapshot {
	s.mu.RLock()
	h := s.height
	s.mu.RUnlock()
	return &Snapshot{db: s.base, height: h}
}

// HeadDB exposes the head StateDB under the same sequencing contract
// as Head — for shadow validation, which replays sequentially against
// the chained pre-state before the block is folded in.
func (s *Store) HeadDB() *state.StateDB { return s.base }

// Pin returns a snapshot pinned at the current height: reads resolve
// through the version chains under the read lock, so they keep
// observing the pinned height even while later blocks fold into the
// head concurrently. Callers must Close the snapshot to release the
// pin and let the chains prune.
func (s *Store) Pin() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pins[s.height]++
	return &Snapshot{store: s, db: s.base, height: s.height, pinned: true}
}

func (s *Store) unpin(h uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.pins[h]; n > 1 {
		s.pins[h] = n - 1
	} else {
		delete(s.pins, h)
	}
}

// Invalidated reports whether any of keys was folded after height
// since: a prefetch that resolved those keys from a snapshot at that
// height read stale values and must be redone. Keys never interned
// were never folded and are trivially clean.
func (s *Store) Invalidated(keys []state.AccessKey, since uint64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	stale := false
	for _, k := range keys {
		if id, ok := s.intern[k]; ok && s.lastWrite[id] > since {
			stale = true
			break
		}
	}
	if s.tel != nil {
		s.tel.MVStateRevalidations.Inc()
		if stale {
			s.tel.MVStateInvalidations.Inc()
		}
	}
	return stale
}

// Commit folds one block's write-set into the head: each key gets a
// new chain version at the next height and the head StateDB is updated
// in place. The block's aggregate fee is folded as one more chained
// coinbase-balance write (the carve-out keeps it out of write-sets, so
// it is re-attached here). Chains are pruned against the lowest live
// pin. Returns the new height.
func (s *Store) Commit(keys []state.AccessKey, vals []Value, coinbase types.Address, fee *uint256.Int) uint64 {
	s.mu.Lock()
	h := s.height + 1

	floor := h
	for ph := range s.pins {
		if ph < floor {
			floor = ph
		}
	}

	folded, pruned := 0, 0
	apply := func(k state.AccessKey, val Value) {
		id, ok := s.intern[k]
		if !ok {
			id = KeyID(len(s.keys))
			s.intern[k] = id
			s.keys = append(s.keys, k)
			s.chains = append(s.chains, nil)
			s.lastWrite = append(s.lastWrite, 0)
		}
		ch := s.chains[id]
		if len(ch) == 0 {
			// Seed the chain with the pre-image so snapshots pinned below
			// h keep reading the pre-fold value after the head mutates.
			ch = append(ch, centry{height: 0, val: s.baseValue(k)})
			s.entries++
		}
		ch = append(ch, centry{height: h, val: val})
		s.entries++
		folded++
		// Prune entries no live pin can reach: ch[0] is dead once ch[1]
		// is visible at the floor height.
		for len(ch) >= 2 && ch[1].height <= floor {
			ch = ch[1:]
			pruned++
			s.entries--
		}
		s.chains[id] = ch
		s.lastWrite[id] = h
		if len(ch) > s.maxChain {
			s.maxChain = len(ch)
		}

		switch k.Kind {
		case state.AccessBalance:
			s.base.SetBalance(k.Addr, &val.Word)
		case state.AccessNonce:
			s.base.SetNonce(k.Addr, val.U64)
		case state.AccessCode:
			s.base.SetCode(k.Addr, val.Code)
		case state.AccessStorage:
			s.base.SetState(k.Addr, k.Slot, val.Word)
		}
	}

	for i := range keys {
		apply(keys[i], vals[i])
	}
	if fee != nil && !fee.IsZero() {
		var v Value
		v.Word.Add(s.base.GetBalance(coinbase), fee)
		apply(balKey(coinbase), v)
	}
	// The head's setters journal; the fold is final, so drop the undo log
	// instead of letting it grow with every block.
	s.base.DiscardJournal()
	s.height = h

	if s.tel != nil {
		s.tel.MVStateCommits.Inc()
		s.tel.MVStateVersionsFolded.Add(uint64(folded))
		s.tel.MVStateVersionsGCd.Add(uint64(pruned))
		s.tel.MVStateChainEntries.Set(int64(s.entries))
		s.tel.MVStateMaxChainLen.Set(int64(s.maxChain))
	}
	s.mu.Unlock()
	s.heightC.Broadcast()
	return h
}

// baseValue reads k's current head value (pre-fold) as a Value.
func (s *Store) baseValue(k state.AccessKey) Value {
	var v Value
	switch k.Kind {
	case state.AccessBalance:
		v.Word.Set(s.base.GetBalance(k.Addr))
	case state.AccessNonce:
		v.U64 = s.base.GetNonce(k.Addr)
	case state.AccessCode:
		v.Code = s.base.GetCode(k.Addr)
		v.Hash = s.base.GetCodeHash(k.Addr)
	case state.AccessStorage:
		v.Word = s.base.GetState(k.Addr, k.Slot)
	}
	return v
}

// Snapshot is a read-only view of the store at one height. A bare
// snapshot (SnapshotOf, Store.Head) reads its StateDB directly with no
// locking; a pinned snapshot (Store.Pin) resolves reads through the
// version chains under the store's read lock so it stays consistent
// while later blocks fold in concurrently.
type Snapshot struct {
	store  *Store // nil for bare snapshots
	db     *state.StateDB
	height uint64
	pinned bool
}

// SnapshotOf wraps a plain StateDB as a bare snapshot — the adapter
// one-shot replay paths use to run engines against a frozen genesis
// with zero locking overhead.
func SnapshotOf(db *state.StateDB) *Snapshot { return &Snapshot{db: db} }

// Height returns the store height the snapshot was taken at (0 for
// bare snapshots of a genesis).
func (sn *Snapshot) Height() uint64 { return sn.height }

// DB returns the underlying StateDB. For pinned snapshots this is the
// live head and must not be read directly while commits run; use the
// Reader methods instead.
func (sn *Snapshot) DB() *state.StateDB { return sn.db }

// Close releases a pinned snapshot's pin. Bare snapshots are a no-op.
func (sn *Snapshot) Close() {
	if sn.pinned && sn.store != nil {
		sn.store.unpin(sn.height)
		sn.pinned = false
	}
}

// Digest digests the snapshot's state at its own height.
func (sn *Snapshot) Digest() types.Hash { return sn.DigestWith(nil) }

// DigestWith prices a write-set on top of the snapshot without copying
// it. A pinned snapshot prices at its own height, not at the head's: the
// value it still reads for every key folded since goes beneath o.
func (sn *Snapshot) DigestWith(o *state.Overrides) types.Hash {
	if sn.store == nil {
		return sn.db.DigestWith(o)
	}
	sn.rlock()
	defer sn.runlock()
	st := sn.store
	pinned := state.NewOverrides()
	for id, h := range st.lastWrite {
		if h > sn.height {
			val, _ := sn.resolve(st.keys[id]) // folded, so it has a chain
			setOverride(pinned, st.keys[id], val)
		}
	}
	pinned.Merge(o)
	return sn.db.DigestWith(pinned)
}

// resolve looks k up in the pinned snapshot's version chains; ok is
// false when the key has no chain (never folded — read the base).
func (sn *Snapshot) resolve(k state.AccessKey) (Value, bool) {
	st := sn.store
	id, ok := st.intern[k]
	if !ok {
		return Value{}, false
	}
	ch := st.chains[id]
	// Newest entry at or below the pinned height. Chains are short (they
	// prune to the pin floor), so scan from the tail.
	for i := len(ch) - 1; i >= 0; i-- {
		if ch[i].height <= sn.height {
			return ch[i].val, true
		}
	}
	return Value{}, false
}

// rlock takes the store read lock for a pinned read and bumps the
// snapshot-read counter.
func (sn *Snapshot) rlock() { sn.store.mu.RLock() }

func (sn *Snapshot) runlock() {
	if tel := sn.store.tel; tel != nil {
		tel.MVStateSnapshotReads.Inc()
	}
	sn.store.mu.RUnlock()
}

// value reads k at a pinned snapshot's height: from its version chain,
// or from the head when no fold ever wrote it.
func (sn *Snapshot) value(k state.AccessKey) Value {
	sn.rlock()
	defer sn.runlock()
	if v, ok := sn.resolve(k); ok {
		return v
	}
	return sn.store.baseValue(k)
}

// GetBalance implements Reader.
func (sn *Snapshot) GetBalance(addr types.Address) *uint256.Int {
	if sn.store == nil {
		return sn.db.GetBalance(addr)
	}
	v := sn.value(balKey(addr))
	return v.Word.Clone()
}

// GetNonce implements Reader.
func (sn *Snapshot) GetNonce(addr types.Address) uint64 {
	if sn.store == nil {
		return sn.db.GetNonce(addr)
	}
	return sn.value(nonceKey(addr)).U64
}

// GetCode implements Reader.
func (sn *Snapshot) GetCode(addr types.Address) []byte {
	if sn.store == nil {
		return sn.db.GetCode(addr)
	}
	return sn.value(codeKey(addr)).Code
}

// GetCodeHash implements Reader.
func (sn *Snapshot) GetCodeHash(addr types.Address) types.Hash {
	if sn.store == nil {
		return sn.db.GetCodeHash(addr)
	}
	return sn.value(codeKey(addr)).Hash
}

// GetState implements Reader.
func (sn *Snapshot) GetState(addr types.Address, slot types.Hash) uint256.Int {
	if sn.store == nil {
		return sn.db.GetState(addr, slot)
	}
	return sn.value(storageKey(addr, slot)).Word
}

// BuildOverrides converts a block's write-set (plus its aggregate fee)
// into a sparse state.Overrides over head, for digest pricing without
// copying the head. The coinbase balance is read from head and bumped
// by fee — write-sets never contain it (the carve-out), so the merge
// is well-defined.
func BuildOverrides(head *Snapshot, keys []state.AccessKey, vals []Value, coinbase types.Address, fee *uint256.Int) *state.Overrides {
	o := state.NewOverrides()
	for i, k := range keys {
		setOverride(o, k, vals[i])
	}
	if fee != nil && !fee.IsZero() {
		var bal uint256.Int
		bal.Add(head.GetBalance(coinbase), fee)
		o.SetBalance(coinbase, &bal)
	}
	return o
}

func setOverride(o *state.Overrides, k state.AccessKey, val Value) {
	switch k.Kind {
	case state.AccessBalance:
		o.SetBalance(k.Addr, &val.Word)
	case state.AccessNonce:
		o.SetNonce(k.Addr, val.U64)
	case state.AccessCode:
		o.SetCode(k.Addr, val.Code, val.Hash)
	case state.AccessStorage:
		o.SetState(k.Addr, k.Slot, val.Word)
	}
}
