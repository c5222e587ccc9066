package arch

import (
	"encoding/binary"

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
	// touchKeys[id-1] is the key behind a TouchID; an account's key has
	// a zero slot.
	touchKeys []storageKey

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
	if st.lastCodeID != 0 && sameAddr(&a, &st.lastCodeAddr) {
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

// sameAddr compares two addresses as three words; == on the 20-byte
// arrays is a call to memequal, once per interned step.
func sameAddr(a, b *types.Address) bool {
	return binary.LittleEndian.Uint64(a[0:8]) == binary.LittleEndian.Uint64(b[0:8]) &&
		binary.LittleEndian.Uint64(a[8:16]) == binary.LittleEndian.Uint64(b[8:16]) &&
		binary.LittleEndian.Uint32(a[16:20]) == binary.LittleEndian.Uint32(b[16:20])
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
		st.touchKeys = append(st.touchKeys, k)
		id = uint32(len(st.touchKeys))
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
		st.touchKeys = append(st.touchKeys, storageKey{addr: addr})
		id = uint32(len(st.touchKeys))
		st.accountIDs[addr] = id
	}
	return id
}

// NumTouchIDs returns how many state-buffer keys are interned.
func (st *SymbolTable) NumTouchIDs() int { return len(st.touchKeys) }

// TouchKey returns the key behind a TouchID: the address and slot of a
// storage key, or the account's address and a zero slot.
func (st *SymbolTable) TouchKey(id uint32) (types.Address, types.Hash) {
	k := &st.touchKeys[id-1]
	return k.addr, k.slot
}

// Intern assigns step's CodeID from the address of the code executing
// it, and its TouchID from the state it touches. The TouchID class
// follows the opcode: storage ops intern their (touchAddr, touchSlot),
// state queries their account; every other step leaves TouchID 0.
func (st *SymbolTable) Intern(s *evm.Step, codeAddr, touchAddr *types.Address, touchSlot *types.Hash) {
	s.CodeID = st.CodeID(*codeAddr)
	switch {
	case s.Op == evm.SLOAD || s.Op == evm.SSTORE:
		s.TouchID = st.StorageID(*touchAddr, *touchSlot)
	case s.Op.Unit() == evm.FUStateQuery:
		s.TouchID = st.AccountID(*touchAddr)
	}
}
