package state

import (
	"encoding/binary"
	"testing"

	"mtpu/internal/keccak"
	"mtpu/internal/types"
	"mtpu/internal/uint256"
)

// TestDigestGoldenLayout pins the digest to a literal. The layout: each
// non-zero (key, value) pair of the state is the 85-byte string
// kind (1 byte: balance 0, nonce 1, code 2, storage 3) ‖ address (20) ‖ slot
// (32, zero unless storage) ‖ value32 (32: balance or slot value
// big-endian, the nonce big-endian in the last 8 bytes, code as its
// keccak hash); its element is keccak256 of that string read as four
// little-endian uint64 lanes; the accumulator is the lane-wise sum
// mod 2⁶⁴ of all elements; the digest is keccak256 of the accumulator's
// lanes, each written little-endian. The test recomputes that by hand
// and also holds StateDB.Digest to the literal, so neither can drift
// while agreeing with itself. A second state with another history —
// other values overwritten, slots set then deleted, an account emptied
// field by field — must land on the same literal.
func TestDigestGoldenLayout(t *testing.T) {
	const golden = "0xab386f8009a308e5c02fd4ab3e22be280995acd0b43428c6d42033afd16cfba3"
	addr := func(b byte) types.Address { return types.BytesToAddress([]byte{b, 0xee, b}) }
	big := new(uint256.Int).Lsh(uint256.NewInt(0xabcdef), 200)
	code := []byte{0x60, 0x2a, 0x60, 0x00, 0x55}

	st := New()
	st.SetBalance(addr(5), uint256.NewInt(1_000_000))
	st.SetNonce(addr(5), 7)
	st.SetCode(addr(4), code)
	st.SetState(addr(4), slot2, *uint256.NewInt(2))
	st.SetState(addr(4), slot1, *big)
	st.SetState(addr(4), types.BytesToHash([]byte{0xff, 0x00}), *uint256.NewInt(3))
	st.SetBalance(addr(3), big)
	st.SetNonce(addr(2), 1<<40)
	st.SetState(addr(1), slot1, *uint256.NewInt(9))
	st.SetBalance(addr(6), new(uint256.Int)) // touched, empty: no element
	if got := st.Digest().String(); got != golden {
		t.Fatalf("digest %s, want %s", got, golden)
	}

	type pair struct {
		kind  AccessKind
		addr  types.Address
		slot  types.Hash
		value [32]byte
	}
	u := func(v *uint256.Int) [32]byte { return v.Bytes32() }
	var nonce5, nonce2 [32]byte
	binary.BigEndian.PutUint64(nonce5[24:], 7)
	binary.BigEndian.PutUint64(nonce2[24:], 1<<40)
	pairs := []pair{
		{AccessBalance, addr(5), types.Hash{}, u(uint256.NewInt(1_000_000))},
		{AccessNonce, addr(5), types.Hash{}, nonce5},
		{AccessCode, addr(4), types.Hash{}, keccak.Sum256(code)},
		{AccessStorage, addr(4), slot2, u(uint256.NewInt(2))},
		{AccessStorage, addr(4), slot1, u(big)},
		{AccessStorage, addr(4), types.BytesToHash([]byte{0xff, 0x00}), u(uint256.NewInt(3))},
		{AccessBalance, addr(3), types.Hash{}, u(big)},
		{AccessNonce, addr(2), types.Hash{}, nonce2},
		{AccessStorage, addr(1), slot1, u(uint256.NewInt(9))},
	}
	var lanes [4]uint64
	for _, p := range pairs {
		var b []byte
		b = append(b, byte(p.kind))
		b = append(b, p.addr[:]...)
		b = append(b, p.slot[:]...)
		b = append(b, p.value[:]...)
		e := keccak.Sum256(b)
		for i := range lanes {
			lanes[i] += binary.LittleEndian.Uint64(e[8*i:])
		}
	}
	var acc []byte
	for _, l := range lanes {
		acc = binary.LittleEndian.AppendUint64(acc, l)
	}
	if got := types.Hash(keccak.Sum256(acc)).String(); got != golden {
		t.Fatalf("layout recomputed by hand gives %s, want %s", got, golden)
	}

	other := New()
	other.SetBalance(addr(5), uint256.NewInt(1))
	other.SetNonce(addr(5), 7)
	other.SetCode(addr(4), []byte{0xfe})
	other.SetState(addr(4), slot2, *uint256.NewInt(2))
	other.SetState(addr(4), types.BytesToHash([]byte{0x77}), *uint256.NewInt(4))
	other.SetBalance(addr(6), uint256.NewInt(11))
	other.SetNonce(addr(6), 3)
	other.SetState(addr(1), slot1, *uint256.NewInt(9))
	other.DiscardJournal()
	other.SetBalance(addr(5), uint256.NewInt(1_000_000))
	other.SetCode(addr(4), code)
	other.SetState(addr(4), slot1, *big)
	other.SetState(addr(4), types.BytesToHash([]byte{0xff, 0x00}), *uint256.NewInt(3))
	other.SetState(addr(4), types.BytesToHash([]byte{0x77}), uint256.Int{})
	other.SetBalance(addr(3), big)
	other.SetNonce(addr(2), 1<<40)
	other.SetBalance(addr(6), new(uint256.Int))
	other.SetNonce(addr(6), 0)
	if got := other.Digest().String(); got != golden {
		t.Fatalf("same state by another history digests to %s, want %s", got, golden)
	}
}

// TestAccumulatorIsAMultisetSum: elements add in any order, Sub undoes
// Add exactly, and a zero word is no element at all.
func TestAccumulatorIsAMultisetSum(t *testing.T) {
	k1 := AccessKey{Kind: AccessBalance, Addr: addrA}
	k2 := AccessKey{Kind: AccessStorage, Addr: addrB, Slot: slot1}
	w1, w2 := uint256.NewInt(5).Bytes32(), uint256.NewInt(6).Bytes32()

	var a, b Accumulator
	a.Add(k1, w1)
	a.Add(k2, w2)
	b.Add(k2, w2)
	b.Add(k1, w1)
	if a != b {
		t.Fatal("accumulator depends on the order elements are added in")
	}
	if a.Digest() == (&Accumulator{}).Digest() {
		t.Fatal("two elements left the accumulator at zero")
	}
	a.Sub(k1, w1)
	a.Sub(k2, w2)
	if a != (Accumulator{}) {
		t.Fatalf("Sub did not undo Add: %v", a)
	}
	a.Add(k1, [32]byte{})
	if a != (Accumulator{}) {
		t.Fatal("a zero word added an element")
	}
	if New().Digest() != a.Digest() {
		t.Fatal("the empty state does not digest as the zero accumulator")
	}
}
