package state

import (
	"encoding/binary"

	"mtpu/internal/keccak"
	"mtpu/internal/types"
)

// Accumulator is the state digest's additive multiset hash. Every
// non-zero (key, value) pair of the state contributes one element,
// keccak256(kind ‖ addr ‖ slot ‖ value32) read as four little-endian
// uint64 lanes, and the accumulator is their lane-wise sum mod 2⁶⁴.
// value32 is the key's value as a 32-byte word: a balance or storage
// value big-endian, the nonce big-endian, code as its code hash. A zero
// word contributes nothing, so an empty account, a deleted slot and a
// key never written all digest alike.
//
// The sum does not depend on the order the pairs are visited in, so a
// block's write-set moves it by Σ new − Σ old over the keys written:
// O(write-set), whatever the size of the state.
type Accumulator [4]uint64

// Add adds k's element for value word w; a zero word adds nothing.
func (a *Accumulator) Add(k AccessKey, w [32]byte) {
	if w == ([32]byte{}) {
		return
	}
	e := element(k, &w)
	for i := range a {
		a[i] += e[i]
	}
}

// Sub takes k's element for value word w back out; a zero word takes
// nothing.
func (a *Accumulator) Sub(k AccessKey, w [32]byte) {
	if w == ([32]byte{}) {
		return
	}
	e := element(k, &w)
	for i := range a {
		a[i] -= e[i]
	}
}

// Digest is keccak256 of the accumulator's 32 bytes, its lanes in order,
// each little-endian.
func (a *Accumulator) Digest() types.Hash {
	var b [32]byte
	for i, lane := range a {
		binary.LittleEndian.PutUint64(b[8*i:], lane)
	}
	return types.Hash(keccak.Sum256(b[:]))
}

func element(k AccessKey, w *[32]byte) (e [4]uint64) {
	var b [1 + 20 + 32 + 32]byte
	b[0] = byte(k.Kind)
	copy(b[1:21], k.Addr[:])
	copy(b[21:53], k.Slot[:])
	copy(b[53:], w[:])
	h := keccak.Sum256(b[:])
	for i := range e {
		e[i] = binary.LittleEndian.Uint64(h[8*i:])
	}
	return e
}

// NonceWord is a nonce's 32-byte digest word.
func NonceWord(n uint64) (w [32]byte) {
	binary.BigEndian.PutUint64(w[24:], n)
	return w
}

// Accumulate sums the whole state from scratch: the reference every
// incrementally maintained accumulator must equal.
func (s *StateDB) Accumulate() Accumulator {
	var acc Accumulator
	for addr, a := range s.accounts {
		acc.Add(AccessKey{Kind: AccessBalance, Addr: addr}, a.Balance.Bytes32())
		acc.Add(AccessKey{Kind: AccessNonce, Addr: addr}, NonceWord(a.Nonce))
		acc.Add(AccessKey{Kind: AccessCode, Addr: addr}, a.CodeHash)
		for slot, v := range a.Storage {
			acc.Add(AccessKey{Kind: AccessStorage, Addr: addr, Slot: slot}, v.Bytes32())
		}
	}
	return acc
}

// Digest is the state's digest, summed from scratch — the value every
// execution mode must commit to (see Accumulator).
func (s *StateDB) Digest() types.Hash {
	acc := s.Accumulate()
	return acc.Digest()
}
