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

	"mtpu/internal/keccak"
	"mtpu/internal/state"
	"mtpu/internal/telemetry"
	"mtpu/internal/types"
	"mtpu/internal/uint256"
)

// Reader is the read-only state surface a View resolves base reads
// from: a *Snapshot everywhere outside this package's tests, which also
// run views straight over a *state.StateDB. It has no notion of account
// existence: an account is what its nonce, balance, code and slots say,
// and every snapshot resolves those exactly at its own height.
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

	base *state.StateDB // canonical head; mutated only by Commit
	// head is the bare snapshot of base at the number of blocks folded
	// in, carrying its digest accumulator; Commit replaces it.
	head        *Snapshot
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

// NewStore copies genesis into a private head, sums its digest
// accumulator once — the one O(state) walk a store makes — and returns a
// store at height 0. tel may be nil.
func NewStore(genesis *state.StateDB, tel *telemetry.Metrics) *Store {
	base := genesis.Copy()
	s := &Store{
		base:   base,
		head:   &Snapshot{db: base, acc: base.Accumulate()},
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
	return s.head.height
}

// WaitHeight blocks until the head reaches height h (or returns
// immediately if it already has). It returns false when the store was
// interrupted before the height was reached — the caller is shutting
// down and must not touch the head.
func (s *Store) WaitHeight(h uint64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for s.head.height < h && !s.interrupted {
		s.heightC.Wait()
	}
	return s.head.height >= h
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

// HeadDigest is the canonical head's digest, read from the accumulator
// Commit maintains: O(1), so a reader polling it never holds a fold up.
func (s *Store) HeadDigest() types.Hash { return s.Head().Digest() }

// Head returns a bare snapshot of the canonical head: reads go straight
// to the head StateDB with no locking. It is only safe on the sequenced
// execute/commit path, where the caller has established (via WaitHeight
// or channel ordering) that no Commit runs concurrently with its reads.
// It carries the head's accumulator, so it prices digests in O(write-set).
// Every caller at one height shares the one snapshot Commit built. A
// store that never commits is the one-shot form: its head is a frozen
// genesis that any number of concurrent replays read and price over.
func (s *Store) Head() *Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.head
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
	h := s.head
	s.pins[h.height]++
	return &Snapshot{store: s, db: s.base, height: h.height, pinned: true, acc: h.acc}
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
// new chain version at the next height, the head StateDB is updated in
// place, and the digest accumulator trades the key's old element for its
// new one. The block's aggregate fee is folded as one more chained
// coinbase-balance write (the carve-out keeps it out of write-sets, so
// it is re-attached here). Chains are pruned against the lowest live
// pin. Returns the new height.
func (s *Store) Commit(keys []state.AccessKey, vals []Value, coinbase types.Address, fee *uint256.Int) uint64 {
	s.mu.Lock()
	h := s.head.height + 1

	floor := h
	for ph := range s.pins {
		if ph < floor {
			floor = ph
		}
	}

	folded, pruned := 0, 0
	acc := s.head.acc
	apply := func(k state.AccessKey, val Value) {
		id, ok := s.intern[k]
		if !ok {
			id = KeyID(len(s.keys))
			s.intern[k] = id
			s.keys = append(s.keys, k)
			s.chains = append(s.chains, nil)
			s.lastWrite = append(s.lastWrite, 0)
		}
		old := valueOf(s.base, k)
		ch := s.chains[id]
		if len(ch) == 0 {
			// Seed the chain with the pre-image so snapshots pinned below
			// h keep reading the pre-fold value after the head mutates.
			ch = append(ch, centry{height: 0, val: old})
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

		acc.Sub(k, old.word(k.Kind))
		acc.Add(k, val.word(k.Kind))
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
	s.head = &Snapshot{db: s.base, height: h, acc: acc}

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

// valueOf reads k's current value in db as a Value.
func valueOf(db *state.StateDB, k state.AccessKey) Value {
	var v Value
	switch k.Kind {
	case state.AccessBalance:
		v.Word.Set(db.GetBalance(k.Addr))
	case state.AccessNonce:
		v.U64 = db.GetNonce(k.Addr)
	case state.AccessCode:
		v.Code = db.GetCode(k.Addr)
		v.Hash = db.GetCodeHash(k.Addr)
	case state.AccessStorage:
		v.Word = db.GetState(k.Addr, k.Slot)
	}
	return v
}

// word is v's 32-byte digest word as the value of a key of kind k (see
// state.Accumulator). Code is hashed here when the caller left the hash
// out, as StateDB.SetCode would.
func (v *Value) word(k state.AccessKind) [32]byte {
	switch k {
	case state.AccessNonce:
		return state.NonceWord(v.U64)
	case state.AccessCode:
		if len(v.Code) == 0 {
			return [32]byte{}
		}
		if v.Hash == (types.Hash{}) {
			return keccak.Sum256(v.Code)
		}
		return v.Hash
	}
	return v.Word.Bytes32()
}

// Snapshot is a read-only view of the store at one height, carrying the
// digest accumulator at that height. A head snapshot (Store.Head) reads
// the head StateDB directly with no locking; a pinned snapshot
// (Store.Pin) resolves reads through the version chains under the
// store's read lock so it stays consistent while later blocks fold in
// concurrently.
type Snapshot struct {
	store  *Store // nil for head snapshots
	db     *state.StateDB
	height uint64
	pinned bool
	acc    state.Accumulator
}

// Height returns the store height the snapshot was taken at.
func (sn *Snapshot) Height() uint64 { return sn.height }

// DB returns the underlying StateDB. For pinned snapshots this is the
// live head and must not be read directly while commits run; use the
// Reader methods instead.
func (sn *Snapshot) DB() *state.StateDB { return sn.db }

// Close releases a pinned snapshot's pin. Head snapshots are a no-op.
func (sn *Snapshot) Close() {
	if sn.pinned && sn.store != nil {
		sn.store.unpin(sn.height)
		sn.pinned = false
	}
}

// Digest is the snapshot's digest at its own height.
func (sn *Snapshot) Digest() types.Hash { return sn.acc.Digest() }

// DigestAfter prices a write-set on top of the snapshot without applying
// it: the digest of the state after keys[i] takes vals[i] — a repeated
// key's last write wins, as in the concatenated per-transaction
// write-sets Block-STM commits — and the coinbase balance becomes the
// snapshot's plus fee, replacing any write of it (write-sets carry none:
// the carve-out). It is the snapshot's accumulator less each written
// key's old element plus its new one, O(write-set) at any height.
func (sn *Snapshot) DigestAfter(keys []state.AccessKey, vals []Value, coinbase types.Address, fee *uint256.Int) types.Hash {
	acc := sn.acc
	if sn.store != nil {
		sn.rlock()
		defer sn.runlock()
	}
	move := func(k state.AccessKey, val *Value) {
		old := sn.at(k)
		acc.Sub(k, old.word(k.Kind))
		acc.Add(k, val.word(k.Kind))
	}
	seen := make(map[state.AccessKey]struct{}, len(keys)+1)
	if fee != nil && !fee.IsZero() {
		k := balKey(coinbase)
		credited := sn.at(k)
		credited.Word.Add(&credited.Word, fee)
		move(k, &credited)
		seen[k] = struct{}{}
	}
	for i := len(keys) - 1; i >= 0; i-- {
		if _, later := seen[keys[i]]; !later {
			seen[keys[i]] = struct{}{}
			move(keys[i], &vals[i])
		}
	}
	return acc.Digest()
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

// value reads k at a pinned snapshot's height under the read lock.
func (sn *Snapshot) value(k state.AccessKey) Value {
	sn.rlock()
	defer sn.runlock()
	return sn.at(k)
}

// at reads k at the snapshot's height: a pinned snapshot's from its
// version chain, or from the head when no fold ever wrote it (the caller
// holds the read lock); a head snapshot's from its StateDB.
func (sn *Snapshot) at(k state.AccessKey) Value {
	if sn.store != nil {
		if v, ok := sn.resolve(k); ok {
			return v
		}
	}
	return valueOf(sn.db, k)
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
