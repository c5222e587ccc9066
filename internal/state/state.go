// Package state implements the world state substrate: accounts with
// balances, nonces, code and contract storage (the State rows of Table 4),
// with snapshot/revert journaling for transaction aborts, access-set
// recording for dependency-DAG construction, and deterministic digests for
// serializability checks across execution modes.
package state

import (
	"fmt"
	"slices"

	"mtpu/internal/keccak"
	"mtpu/internal/types"
	"mtpu/internal/uint256"
)

// Account is the in-memory representation of one address.
type Account struct {
	Nonce   uint64
	Balance uint256.Int
	Code    []byte
	// CodeHash caches keccak(Code); zero hash for empty code.
	CodeHash types.Hash
	Storage  map[types.Hash]uint256.Int
}

func newAccount() *Account {
	return &Account{Storage: make(map[types.Hash]uint256.Int)}
}

func (a *Account) copy() *Account {
	c := &Account{
		Nonce:    a.Nonce,
		Balance:  a.Balance,
		CodeHash: a.CodeHash,
		Storage:  make(map[types.Hash]uint256.Int, len(a.Storage)),
	}
	c.Code = append([]byte(nil), a.Code...)
	for k, v := range a.Storage {
		c.Storage[k] = v
	}
	return c
}

// AccessKind classifies recorded state accesses.
type AccessKind uint8

// Access kinds recorded when access recording is enabled.
const (
	AccessBalance AccessKind = iota
	AccessNonce
	AccessCode
	AccessStorage
)

// AccessKey identifies one piece of state touched by a transaction.
type AccessKey struct {
	Kind AccessKind
	Addr types.Address
	Slot types.Hash // meaningful only for AccessStorage
}

// AccessSet is a set of touched state locations.
type AccessSet map[AccessKey]struct{}

// Overlaps reports whether a shares any key with b.
func (a AccessSet) Overlaps(b AccessSet) bool {
	small, large := a, b
	if len(b) < len(a) {
		small, large = b, a
	}
	for k := range small {
		if _, ok := large[k]; ok {
			return true
		}
	}
	return false
}

// ConflictDAG builds a block's conflict DAG from the per-transaction
// read and write sets of its sequential replay: i → j (i < j) when i's
// writes intersect j's reads or writes, or i's reads intersect j's
// writes. It yields exactly the edges a pairwise Overlaps test over
// every (i, j) finds, each Deps[j] ascending.
//
// Transactions are walked in order over an index from each key to the
// earlier transactions that wrote and read it, so the cost is the total
// access-set size plus the edges emitted, not txs² set intersections.
// The worst case is a key every transaction writes: its writer list is
// rescanned by each later transaction, O(txs²) — but so is the number
// of edges that block really has.
func ConflictDAG(reads, writes []AccessSet) *types.DAG {
	n := len(reads)
	dag := types.NewDAG(n)
	type users struct{ writers, readers []int32 }
	index := make(map[AccessKey]int32)
	var keys []users
	slot := func(k AccessKey) *users {
		id, ok := index[k]
		if !ok {
			id = int32(len(keys))
			index[k] = id
			keys = append(keys, users{})
		}
		return &keys[id]
	}
	// dependent[i] == j once i is a recorded dependency of j, so a pair
	// conflicting on several keys yields one edge; dependent[j] == j
	// keeps a transaction that reads and writes one key off its own list.
	dependent := make([]int, n)
	for j := 0; j < n; j++ {
		var deps []int
		add := func(earlier []int32) {
			for _, i := range earlier {
				if dependent[i] != j {
					dependent[i] = j
					deps = append(deps, int(i))
				}
			}
		}
		dependent[j] = j
		for k := range reads[j] {
			u := slot(k)
			add(u.writers)
			u.readers = append(u.readers, int32(j))
		}
		for k := range writes[j] {
			u := slot(k)
			add(u.writers)
			add(u.readers)
			u.writers = append(u.writers, int32(j))
		}
		slices.Sort(deps)
		dag.Deps[j] = deps
	}
	return dag
}

// StateDB is a journaled in-memory world state. It is not safe for
// concurrent mutation; the simulator serializes access through the State
// Buffer model.
type StateDB struct {
	accounts map[types.Address]*Account

	journal []journalEntry
	logs    []*types.Log
	refund  uint64

	recording bool
	reads     AccessSet
	writes    AccessSet
}

// New returns an empty world state.
func New() *StateDB {
	return &StateDB{accounts: make(map[types.Address]*Account)}
}

// Copy returns a deep copy of the state. Journals, logs and access
// recordings are not carried over.
func (s *StateDB) Copy() *StateDB {
	c := New()
	for addr, acc := range s.accounts {
		c.accounts[addr] = acc.copy()
	}
	return c
}

type journalEntry interface {
	revert(*StateDB)
}

type (
	createEntry  struct{ addr types.Address }
	balanceEntry struct {
		addr types.Address
		prev uint256.Int
	}
	nonceEntry struct {
		addr types.Address
		prev uint64
	}
	codeEntry struct {
		addr     types.Address
		prevCode []byte
		prevHash types.Hash
	}
	storageEntry struct {
		addr    types.Address
		slot    types.Hash
		prev    uint256.Int
		existed bool
	}
	logEntry    struct{}
	refundEntry struct{ prev uint64 }
)

func (e createEntry) revert(s *StateDB) { delete(s.accounts, e.addr) }
func (e balanceEntry) revert(s *StateDB) {
	if acc := s.accounts[e.addr]; acc != nil {
		acc.Balance = e.prev
	}
}
func (e nonceEntry) revert(s *StateDB) {
	if acc := s.accounts[e.addr]; acc != nil {
		acc.Nonce = e.prev
	}
}
func (e codeEntry) revert(s *StateDB) {
	if acc := s.accounts[e.addr]; acc != nil {
		acc.Code = e.prevCode
		acc.CodeHash = e.prevHash
	}
}
func (e storageEntry) revert(s *StateDB) {
	if acc := s.accounts[e.addr]; acc != nil {
		if e.existed {
			acc.Storage[e.slot] = e.prev
		} else {
			delete(acc.Storage, e.slot)
		}
	}
}
func (e logEntry) revert(s *StateDB)    { s.logs = s.logs[:len(s.logs)-1] }
func (e refundEntry) revert(s *StateDB) { s.refund = e.prev }

// Snapshot returns an identifier for the current journal position.
func (s *StateDB) Snapshot() int { return len(s.journal) }

// RevertToSnapshot undoes every change journaled after the snapshot.
func (s *StateDB) RevertToSnapshot(id int) {
	if id < 0 || id > len(s.journal) {
		panic(fmt.Sprintf("state: invalid snapshot id %d (journal length %d)", id, len(s.journal)))
	}
	for i := len(s.journal) - 1; i >= id; i-- {
		s.journal[i].revert(s)
	}
	s.journal = s.journal[:id]
}

// DiscardJournal forgets undo history (e.g. after a committed transaction)
// without touching current values.
func (s *StateDB) DiscardJournal() {
	s.journal = s.journal[:0]
}

func (s *StateDB) getOrCreate(addr types.Address) *Account {
	acc := s.accounts[addr]
	if acc == nil {
		acc = newAccount()
		s.accounts[addr] = acc
		s.journal = append(s.journal, createEntry{addr})
	}
	return acc
}

// GetBalance returns the balance of addr (zero for missing accounts).
func (s *StateDB) GetBalance(addr types.Address) *uint256.Int {
	s.record(&s.reads, AccessKey{Kind: AccessBalance, Addr: addr})
	if acc := s.accounts[addr]; acc != nil {
		return acc.Balance.Clone()
	}
	return new(uint256.Int)
}

// SetBalance overwrites the balance of addr.
func (s *StateDB) SetBalance(addr types.Address, v *uint256.Int) {
	s.record(&s.writes, AccessKey{Kind: AccessBalance, Addr: addr})
	acc := s.getOrCreate(addr)
	s.journal = append(s.journal, balanceEntry{addr, acc.Balance})
	acc.Balance.Set(v)
}

// AddBalance credits addr by v.
func (s *StateDB) AddBalance(addr types.Address, v *uint256.Int) {
	s.record(&s.writes, AccessKey{Kind: AccessBalance, Addr: addr})
	acc := s.getOrCreate(addr)
	s.journal = append(s.journal, balanceEntry{addr, acc.Balance})
	acc.Balance.Add(&acc.Balance, v)
}

// SubBalance debits addr by v (wraps on underflow; callers check first).
func (s *StateDB) SubBalance(addr types.Address, v *uint256.Int) {
	s.record(&s.writes, AccessKey{Kind: AccessBalance, Addr: addr})
	acc := s.getOrCreate(addr)
	s.journal = append(s.journal, balanceEntry{addr, acc.Balance})
	acc.Balance.Sub(&acc.Balance, v)
}

// GetNonce returns the nonce of addr.
func (s *StateDB) GetNonce(addr types.Address) uint64 {
	s.record(&s.reads, AccessKey{Kind: AccessNonce, Addr: addr})
	if acc := s.accounts[addr]; acc != nil {
		return acc.Nonce
	}
	return 0
}

// SetNonce overwrites the nonce of addr.
func (s *StateDB) SetNonce(addr types.Address, n uint64) {
	s.record(&s.writes, AccessKey{Kind: AccessNonce, Addr: addr})
	acc := s.getOrCreate(addr)
	s.journal = append(s.journal, nonceEntry{addr, acc.Nonce})
	acc.Nonce = n
}

// GetCode returns the contract code at addr (nil if none).
func (s *StateDB) GetCode(addr types.Address) []byte {
	s.record(&s.reads, AccessKey{Kind: AccessCode, Addr: addr})
	if acc := s.accounts[addr]; acc != nil {
		return acc.Code
	}
	return nil
}

// GetCodeSize returns len(code) at addr.
func (s *StateDB) GetCodeSize(addr types.Address) int {
	return len(s.GetCode(addr))
}

// GetCodeHash returns keccak(code) or the zero hash for empty accounts.
func (s *StateDB) GetCodeHash(addr types.Address) types.Hash {
	s.record(&s.reads, AccessKey{Kind: AccessCode, Addr: addr})
	if acc := s.accounts[addr]; acc != nil {
		return acc.CodeHash
	}
	return types.Hash{}
}

// SetCode installs contract code at addr.
func (s *StateDB) SetCode(addr types.Address, code []byte) {
	s.record(&s.writes, AccessKey{Kind: AccessCode, Addr: addr})
	acc := s.getOrCreate(addr)
	s.journal = append(s.journal, codeEntry{addr, acc.Code, acc.CodeHash})
	acc.Code = append([]byte(nil), code...)
	if len(code) == 0 {
		acc.CodeHash = types.Hash{}
	} else {
		acc.CodeHash = types.Hash(keccak.Sum256(code))
	}
}

// GetState reads a storage slot.
func (s *StateDB) GetState(addr types.Address, slot types.Hash) uint256.Int {
	s.record(&s.reads, AccessKey{Kind: AccessStorage, Addr: addr, Slot: slot})
	if acc := s.accounts[addr]; acc != nil {
		return acc.Storage[slot]
	}
	return uint256.Int{}
}

// SetState writes a storage slot.
func (s *StateDB) SetState(addr types.Address, slot types.Hash, v uint256.Int) {
	s.record(&s.writes, AccessKey{Kind: AccessStorage, Addr: addr, Slot: slot})
	acc := s.getOrCreate(addr)
	prev, existed := acc.Storage[slot]
	s.journal = append(s.journal, storageEntry{addr, slot, prev, existed})
	if v.IsZero() {
		delete(acc.Storage, slot)
	} else {
		acc.Storage[slot] = v
	}
}

// AddLog journals an emitted event.
func (s *StateDB) AddLog(l *types.Log) {
	s.journal = append(s.journal, logEntry{})
	s.logs = append(s.logs, l)
}

// TakeLogs returns and clears accumulated logs (per transaction).
func (s *StateDB) TakeLogs() []*types.Log {
	out := s.logs
	s.logs = nil
	return out
}

// AddRefund accumulates an SSTORE refund.
func (s *StateDB) AddRefund(v uint64) {
	s.journal = append(s.journal, refundEntry{s.refund})
	s.refund += v
}

// GetRefund returns the accumulated refund counter.
func (s *StateDB) GetRefund() uint64 { return s.refund }

// ResetRefund clears the refund counter (per transaction).
func (s *StateDB) ResetRefund() { s.refund = 0 }

// BeginAccessRecord starts collecting read/write sets.
func (s *StateDB) BeginAccessRecord() {
	s.recording = true
	s.reads = make(AccessSet)
	s.writes = make(AccessSet)
}

// EndAccessRecord stops recording and returns the collected sets.
func (s *StateDB) EndAccessRecord() (reads, writes AccessSet) {
	s.recording = false
	reads, writes = s.reads, s.writes
	s.reads, s.writes = nil, nil
	return reads, writes
}

func (s *StateDB) record(set *AccessSet, key AccessKey) {
	if s.recording {
		(*set)[key] = struct{}{}
	}
}

// AccountCount returns the number of non-empty accounts (for tests/stats).
func (s *StateDB) AccountCount() int {
	n := 0
	for _, acc := range s.accounts {
		if acc.Nonce != 0 || !acc.Balance.IsZero() || len(acc.Code) != 0 || len(acc.Storage) != 0 {
			n++
		}
	}
	return n
}

// StorageSize returns the number of occupied slots at addr (for tests).
func (s *StateDB) StorageSize(addr types.Address) int {
	if acc := s.accounts[addr]; acc != nil {
		return len(acc.Storage)
	}
	return 0
}

// Footprint summarizes the state's size: live accounts, occupied
// storage slots and deployed code bytes. It is a read-only walk meant
// for once-per-invocation reporting (mtpu-run -stats, diagnostics),
// not for hot paths — shared read-only states are walked concurrently
// by design, so nothing here may write.
type Footprint struct {
	Accounts     int `json:"accounts"`
	StorageSlots int `json:"storage_slots"`
	CodeBytes    int `json:"code_bytes"`
}

// Footprint walks the state and returns its size summary.
func (s *StateDB) Footprint() Footprint {
	var f Footprint
	for _, acc := range s.accounts {
		if acc.Nonce == 0 && acc.Balance.IsZero() && len(acc.Code) == 0 && len(acc.Storage) == 0 {
			continue
		}
		f.Accounts++
		f.StorageSlots += len(acc.Storage)
		f.CodeBytes += len(acc.Code)
	}
	return f
}
