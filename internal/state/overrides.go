package state

import (
	"encoding/binary"
	"slices"
	"sort"

	"mtpu/internal/keccak"
	"mtpu/internal/types"
	"mtpu/internal/uint256"
)

// accountOverride is a sparse per-account patch: only the fields that
// were explicitly set participate; everything else falls through to the
// base account.
type accountOverride struct {
	nonce    *uint64
	balance  *uint256.Int
	code     []byte
	codeHash types.Hash
	hasCode  bool
	// storage maps slot -> value; a zero value means "slot deleted",
	// matching SetState's delete-on-zero convention.
	storage map[types.Hash]uint256.Int
}

// Overrides is a sparse state patch that can be layered over a StateDB
// for digest computation without copying the base. It is how the
// multi-version state layer prices a block's write-set: DigestWith
// walks base ∪ overrides and hashes the merged view byte-identically
// to folding the writes in and calling Digest on the result.
type Overrides struct {
	accounts map[types.Address]*accountOverride
}

// NewOverrides returns an empty override set.
func NewOverrides() *Overrides {
	return &Overrides{accounts: make(map[types.Address]*accountOverride)}
}

func (o *Overrides) acct(addr types.Address) *accountOverride {
	ov := o.accounts[addr]
	if ov == nil {
		ov = &accountOverride{}
		o.accounts[addr] = ov
	}
	return ov
}

// SetBalance overrides addr's balance.
func (o *Overrides) SetBalance(addr types.Address, v *uint256.Int) {
	o.acct(addr).balance = new(uint256.Int).Set(v)
}

// SetNonce overrides addr's nonce.
func (o *Overrides) SetNonce(addr types.Address, n uint64) {
	ov := o.acct(addr)
	ov.nonce = new(uint64)
	*ov.nonce = n
}

// SetCode overrides addr's code. The caller may pass the known keccak
// hash to avoid recomputation; a zero hash with non-empty code is
// recomputed here.
func (o *Overrides) SetCode(addr types.Address, code []byte, hash types.Hash) {
	ov := o.acct(addr)
	ov.code = code
	if hash == (types.Hash{}) && len(code) > 0 {
		hash = types.Hash(keccak.Sum256(code))
	}
	ov.codeHash = hash
	ov.hasCode = true
}

// SetState overrides one storage slot (zero value deletes the slot,
// matching StateDB.SetState).
func (o *Overrides) SetState(addr types.Address, slot types.Hash, v uint256.Int) {
	ov := o.acct(addr)
	if ov.storage == nil {
		ov.storage = make(map[types.Hash]uint256.Int)
	}
	ov.storage[slot] = v
}

// Merge layers top over o: every field top sets replaces o's. A nil top
// changes nothing.
func (o *Overrides) Merge(top *Overrides) {
	if top == nil {
		return
	}
	for addr, t := range top.accounts {
		ov := o.acct(addr)
		if t.nonce != nil {
			ov.nonce = t.nonce
		}
		if t.balance != nil {
			ov.balance = t.balance
		}
		if t.hasCode {
			ov.code, ov.codeHash, ov.hasCode = t.code, t.codeHash, true
		}
		for slot, v := range t.storage {
			if ov.storage == nil {
				ov.storage = make(map[types.Hash]uint256.Int, len(t.storage))
			}
			ov.storage[slot] = v
		}
	}
}

// DigestWith computes the digest of the state that would result from
// applying o on top of s, without mutating or copying s: a deterministic
// Keccak-256 over every non-empty account in address order — address,
// nonce, balance, code hash, then its live slots in slot order — so
// DigestWith(o) == apply(o).Digest() for every override set. It is the
// one walk over the state; Digest is the nil-override case. The receiver
// is only read.
func (s *StateDB) DigestWith(o *Overrides) types.Hash {
	var over map[types.Address]*accountOverride
	if o != nil {
		over = o.accounts
	}
	var slots []types.Hash // reused from account to account

	addrs := make([]types.Address, 0, len(s.accounts)+len(over))
	consider := func(addr types.Address, acc *Account, ov *accountOverride) {
		// "Touched but unchanged" accounts must not perturb the digest, so
		// an account whose merged fields are all empty is skipped.
		if nonce, balance, codeLen, _ := mergedScalars(acc, ov); nonce == 0 && balance.IsZero() && codeLen == 0 {
			if slots = liveSlots(slots[:0], acc, ov); len(slots) == 0 {
				return
			}
		}
		addrs = append(addrs, addr)
	}
	for addr, acc := range s.accounts {
		consider(addr, acc, over[addr])
	}
	for addr, ov := range over {
		if s.accounts[addr] == nil {
			consider(addr, nil, ov)
		}
	}
	sort.Slice(addrs, func(i, j int) bool {
		return string(addrs[i][:]) < string(addrs[j][:])
	})

	var h keccak.Hasher
	for _, addr := range addrs {
		acc, ov := s.accounts[addr], over[addr]
		nonce, balance, _, codeHash := mergedScalars(acc, ov)
		h.Write(addr[:])
		var nb [8]byte
		binary.BigEndian.PutUint64(nb[:], nonce)
		h.Write(nb[:])
		b := balance.Bytes32()
		h.Write(b[:])
		h.Write(codeHash[:])

		slots = liveSlots(slots[:0], acc, ov)
		sort.Slice(slots, func(i, j int) bool {
			return string(slots[i][:]) < string(slots[j][:])
		})
		for _, slot := range slots {
			v, overridden := uint256.Int{}, false
			if ov != nil {
				v, overridden = ov.storage[slot]
			}
			if !overridden {
				v = acc.Storage[slot]
			}
			h.Write(slot[:])
			vb := v.Bytes32()
			h.Write(vb[:])
		}
	}
	return types.Hash(h.Sum256())
}

// mergedScalars returns an account's scalar fields with ov's explicit
// ones on top; either side may be nil.
func mergedScalars(acc *Account, ov *accountOverride) (nonce uint64, balance uint256.Int, codeLen int, codeHash types.Hash) {
	if acc != nil {
		nonce, balance, codeLen, codeHash = acc.Nonce, acc.Balance, len(acc.Code), acc.CodeHash
	}
	if ov != nil {
		if ov.nonce != nil {
			nonce = *ov.nonce
		}
		if ov.balance != nil {
			balance = *ov.balance
		}
		if ov.hasCode {
			codeLen, codeHash = len(ov.code), ov.codeHash
		}
	}
	return nonce, balance, codeLen, codeHash
}

// liveSlots appends the account's merged occupied slots to buf: base
// slots ov does not touch, plus the slots ov sets to a non-zero value (a
// zero override deletes the slot).
func liveSlots(buf []types.Hash, acc *Account, ov *accountOverride) []types.Hash {
	if acc != nil {
		buf = slices.Grow(buf, len(acc.Storage))
		for slot := range acc.Storage {
			if ov != nil {
				if _, overridden := ov.storage[slot]; overridden {
					continue
				}
			}
			buf = append(buf, slot)
		}
	}
	if ov != nil {
		for slot, v := range ov.storage {
			if !v.IsZero() {
				buf = append(buf, slot)
			}
		}
	}
	return buf
}
