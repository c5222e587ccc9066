package arch

import (
	"mtpu/internal/evm"
	"mtpu/internal/types"
)

// SymbolTable interns the addresses and storage keys of one block's
// traces into dense 1-based uint32 ids, assigned in first-appearance
// order — a pure function of the instruction stream, so identical
// traces always produce identical id assignments and the timing model
// stays deterministic. The hot structures downstream (DB-cache tags,
// the shared State Buffer, the scheduler tables) index arrays by these
// ids instead of hashing 20-byte addresses and 32-byte slot hashes on
// every simulated access.
//
// Id spaces:
//   - CodeID names a code address (DB-cache line tags).
//   - TouchID names a State Buffer key: either one storage slot
//     (addr, slot) or one account's state (addr). The two classes share
//     a single id space, mirroring the buffer's unified entry array.
//
// Ids are block-scoped: steps from different symbol tables must not be
// replayed through one warm structure (every replay runs a single
// block, so this cannot happen in the engine paths). Id 0 is never
// assigned, and the timing model only replays interned steps.
type SymbolTable struct {
	codeIDs   map[types.Address]uint32
	codeAddrs []types.Address

	storageIDs map[storageKey]uint32
	accountIDs map[types.Address]uint32
	touchCount uint32

	// lastCodeAddr/lastCodeID memoize the previous lookup: consecutive
	// steps nearly always execute the same contract.
	lastCodeAddr types.Address
	lastCodeID   uint32
}

type storageKey struct {
	addr types.Address
	slot types.Hash
}

// NewSymbolTable returns an empty table.
func NewSymbolTable() *SymbolTable {
	return &SymbolTable{
		codeIDs:    make(map[types.Address]uint32),
		storageIDs: make(map[storageKey]uint32),
		accountIDs: make(map[types.Address]uint32),
	}
}

// CodeID interns a code address.
func (st *SymbolTable) CodeID(a types.Address) uint32 {
	if st.lastCodeID != 0 && a == st.lastCodeAddr {
		return st.lastCodeID
	}
	id, ok := st.codeIDs[a]
	if !ok {
		st.codeAddrs = append(st.codeAddrs, a)
		id = uint32(len(st.codeAddrs))
		st.codeIDs[a] = id
	}
	st.lastCodeAddr, st.lastCodeID = a, id
	return id
}

// CodeAddr returns the address behind a CodeID.
func (st *SymbolTable) CodeAddr(id uint32) types.Address { return st.codeAddrs[id-1] }

// NumCodeIDs returns how many code addresses are interned.
func (st *SymbolTable) NumCodeIDs() int { return len(st.codeAddrs) }

// StorageID interns one storage slot (SLOAD/SSTORE target).
func (st *SymbolTable) StorageID(addr types.Address, slot types.Hash) uint32 {
	k := storageKey{addr, slot}
	id, ok := st.storageIDs[k]
	if !ok {
		st.touchCount++
		id = st.touchCount
		st.storageIDs[k] = id
	}
	return id
}

// AccountID interns one account's state (BALANCE/EXTCODE* target). It
// never collides with StorageID: the two live in one id space but
// distinct key maps.
func (st *SymbolTable) AccountID(addr types.Address) uint32 {
	id, ok := st.accountIDs[addr]
	if !ok {
		st.touchCount++
		id = st.touchCount
		st.accountIDs[addr] = id
	}
	return id
}

// NumTouchIDs returns how many state-buffer keys are interned.
func (st *SymbolTable) NumTouchIDs() int { return int(st.touchCount) }

// Intern assigns step's CodeID and TouchID. The TouchID class follows
// the opcode: storage ops intern their (addr, slot), state queries
// their account; every other step leaves TouchID 0.
func (st *SymbolTable) Intern(s *evm.Step) {
	s.CodeID = st.CodeID(s.CodeAddr)
	switch {
	case s.Op == evm.SLOAD || s.Op == evm.SSTORE:
		s.TouchID = st.StorageID(s.TouchAddr, s.TouchSlot)
	case s.Op.Unit() == evm.FUStateQuery:
		s.TouchID = st.AccountID(s.TouchAddr)
	}
}
