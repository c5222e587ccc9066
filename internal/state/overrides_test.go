package state

import (
	"testing"

	"mtpu/internal/types"
	"mtpu/internal/uint256"
)

// applyOverrides mirrors what the mvstate fold does: the same writes
// expressed as StateDB mutations on a copy.
func applyOverrides(st *StateDB, mutate func(*StateDB)) types.Hash {
	cp := st.Copy()
	mutate(cp)
	return cp.Digest()
}

// TestDigestWithMatchesAppliedDigest is the override-layer contract:
// for every kind of patch, DigestWith(o) must be byte-identical to
// folding the same writes into a copy and calling Digest. The stream
// pipeline prices each block's digest this way before committing, so
// any divergence here would make chained digest continuity impossible.
func TestDigestWithMatchesAppliedDigest(t *testing.T) {
	base := New()
	base.SetBalance(addrA, uint256.NewInt(100))
	base.SetNonce(addrA, 3)
	base.SetState(addrA, slot1, *uint256.NewInt(7))
	base.SetState(addrA, slot2, *uint256.NewInt(8))
	base.SetBalance(addrB, uint256.NewInt(50))
	base.SetCode(addrB, []byte{0x60, 0x01})
	base.DiscardJournal()

	addrC := types.HexToAddress("0xcccc000000000000000000000000000000000003")

	cases := []struct {
		name     string
		override func(*Overrides)
		apply    func(*StateDB)
	}{
		{
			"scalar fields",
			func(o *Overrides) {
				o.SetBalance(addrA, uint256.NewInt(42))
				o.SetNonce(addrA, 9)
			},
			func(st *StateDB) {
				st.SetBalance(addrA, uint256.NewInt(42))
				st.SetNonce(addrA, 9)
			},
		},
		{
			"storage set and delete",
			func(o *Overrides) {
				o.SetState(addrA, slot1, *uint256.NewInt(99))
				o.SetState(addrA, slot2, uint256.Int{}) // zero deletes
			},
			func(st *StateDB) {
				st.SetState(addrA, slot1, *uint256.NewInt(99))
				st.SetState(addrA, slot2, uint256.Int{})
			},
		},
		{
			"code replacement",
			func(o *Overrides) { o.SetCode(addrB, []byte{0x61, 0x02, 0x03}, types.Hash{}) },
			func(st *StateDB) { st.SetCode(addrB, []byte{0x61, 0x02, 0x03}) },
		},
		{
			"new account",
			func(o *Overrides) {
				o.SetBalance(addrC, uint256.NewInt(5))
				o.SetState(addrC, slot1, *uint256.NewInt(1))
			},
			func(st *StateDB) {
				st.SetBalance(addrC, uint256.NewInt(5))
				st.SetState(addrC, slot1, *uint256.NewInt(1))
			},
		},
		{
			"account emptied by override",
			func(o *Overrides) {
				o.SetBalance(addrB, new(uint256.Int))
				o.SetCode(addrB, nil, types.Hash{})
			},
			func(st *StateDB) {
				st.SetBalance(addrB, new(uint256.Int))
				st.SetCode(addrB, nil)
			},
		},
		{
			"override equal to base value",
			func(o *Overrides) { o.SetBalance(addrA, uint256.NewInt(100)) },
			func(st *StateDB) { st.SetBalance(addrA, uint256.NewInt(100)) },
		},
	}
	for _, c := range cases {
		o := NewOverrides()
		c.override(o)
		got := base.DigestWith(o)
		want := applyOverrides(base, c.apply)
		if got != want {
			t.Errorf("%s: DigestWith %s != applied digest %s", c.name, got, want)
		}
	}

	// DigestWith must not mutate the receiver.
	clean := base.Digest()
	o := NewOverrides()
	o.SetBalance(addrA, uint256.NewInt(1))
	base.DigestWith(o)
	if base.Digest() != clean {
		t.Fatal("DigestWith mutated the base state")
	}
	if base.GetBalance(addrA).Uint64() != 100 {
		t.Fatal("DigestWith wrote the override into the base")
	}
}

// TestDigestWithNilAndEmpty pins the degenerate forms to plain Digest.
func TestDigestWithNilAndEmpty(t *testing.T) {
	st := New()
	st.SetBalance(addrA, uint256.NewInt(12))
	if st.DigestWith(nil) != st.Digest() {
		t.Error("nil overrides diverged from Digest")
	}
	if st.DigestWith(NewOverrides()) != st.Digest() {
		t.Error("empty overrides diverged from Digest")
	}
}

// TestDigestWithSkipEmptyRule checks the merged skip-empty rule: an
// account that is empty in the base but given substance only by the
// override must appear, and overriding every field of a base account to
// zero must drop it — exactly as if the writes had been applied.
func TestDigestWithSkipEmptyRule(t *testing.T) {
	st := New()
	st.SetBalance(addrA, uint256.NewInt(1))
	st.DiscardJournal()

	// Substance from the override alone.
	o := NewOverrides()
	o.SetNonce(addrB, 1)
	if st.DigestWith(o) == st.Digest() {
		t.Error("override-only account invisible in DigestWith")
	}

	// Zeroing the only non-empty field must drop the account, matching
	// what applying the write then digesting would produce.
	o2 := NewOverrides()
	o2.SetBalance(addrA, new(uint256.Int))
	if got, want := st.DigestWith(o2), New().Digest(); got != want {
		t.Errorf("emptied account still digests: %s != empty-state %s", got, want)
	}
}

// TestDigestGoldenLayout pins the digest's byte layout to a literal:
// accounts in address order, each as address ‖ nonce (8 bytes, big
// endian) ‖ balance (32) ‖ code hash (32) ‖ its live slots in slot order
// as slot ‖ value, empty accounts skipped. Every other digest test
// compares the walk with itself; this one keeps it from drifting while
// still agreeing with itself. The overrides rebuild the same state from
// a different base, so both ends of the merge are held to the literal.
func TestDigestGoldenLayout(t *testing.T) {
	const golden = "0xc0a14ff21b2d2d2521e54031af6466664fc747353905491742d67b9ae70b1186" // computed at the parent of the merge
	addr := func(b byte) types.Address { return types.BytesToAddress([]byte{b, 0xee, b}) }
	big := new(uint256.Int).Lsh(uint256.NewInt(0xabcdef), 200)

	st := New()
	st.SetBalance(addr(5), uint256.NewInt(1_000_000))
	st.SetNonce(addr(5), 7)
	st.SetCode(addr(4), []byte{0x60, 0x2a, 0x60, 0x00, 0x55})
	st.SetState(addr(4), slot2, *uint256.NewInt(2))
	st.SetState(addr(4), slot1, *big)
	st.SetState(addr(4), types.BytesToHash([]byte{0xff, 0x00}), *uint256.NewInt(3))
	st.SetBalance(addr(3), big)
	st.SetNonce(addr(2), 1<<40)
	st.SetState(addr(1), slot1, *uint256.NewInt(9))
	st.SetBalance(addr(6), new(uint256.Int)) // touched, empty: skipped
	if got := st.Digest().String(); got != golden {
		t.Fatalf("digest %s, want %s", got, golden)
	}

	base := New()
	base.SetBalance(addr(5), uint256.NewInt(1))
	base.SetNonce(addr(5), 7)
	base.SetCode(addr(4), []byte{0xfe})
	base.SetState(addr(4), slot2, *uint256.NewInt(2))
	base.SetState(addr(4), types.BytesToHash([]byte{0x77}), *uint256.NewInt(4))
	base.SetBalance(addr(6), uint256.NewInt(11))
	base.SetState(addr(1), slot1, *uint256.NewInt(9))
	o := NewOverrides()
	o.SetBalance(addr(5), uint256.NewInt(1_000_000))
	o.SetCode(addr(4), []byte{0x60, 0x2a, 0x60, 0x00, 0x55}, types.Hash{})
	o.SetState(addr(4), slot1, *big)
	o.SetState(addr(4), types.BytesToHash([]byte{0xff, 0x00}), *uint256.NewInt(3))
	o.SetState(addr(4), types.BytesToHash([]byte{0x77}), uint256.Int{})
	o.SetBalance(addr(3), big)
	o.SetNonce(addr(2), 1<<40)
	o.SetBalance(addr(6), new(uint256.Int))
	if got := base.DigestWith(o).String(); got != golden {
		t.Fatalf("digest over overrides %s, want %s", got, golden)
	}
}
