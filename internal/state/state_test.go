package state

import (
	"testing"
	"testing/quick"

	"mtpu/internal/types"
	"mtpu/internal/uint256"
)

var (
	addrA = types.HexToAddress("0xaaaa000000000000000000000000000000000001")
	addrB = types.HexToAddress("0xbbbb000000000000000000000000000000000002")
	slot1 = types.BytesToHash([]byte{1})
	slot2 = types.BytesToHash([]byte{2})
)

func TestBalancesAndNonces(t *testing.T) {
	st := New()
	if !st.GetBalance(addrA).IsZero() {
		t.Fatal("fresh balance not zero")
	}
	st.AddBalance(addrA, uint256.NewInt(100))
	st.SubBalance(addrA, uint256.NewInt(40))
	if got := st.GetBalance(addrA); got.Uint64() != 60 {
		t.Fatalf("balance %s", got)
	}
	st.SetNonce(addrA, 5)
	if st.GetNonce(addrA) != 5 {
		t.Fatal("nonce")
	}
	if st.GetNonce(addrB) != 0 {
		t.Fatal("missing account nonce")
	}
}

func TestCodeAndHash(t *testing.T) {
	st := New()
	if st.GetCode(addrA) != nil || st.GetCodeSize(addrA) != 0 {
		t.Fatal("fresh code")
	}
	if st.GetCodeHash(addrA) != (types.Hash{}) {
		t.Fatal("fresh code hash")
	}
	code := []byte{1, 2, 3}
	st.SetCode(addrA, code)
	if st.GetCodeSize(addrA) != 3 {
		t.Fatal("code size")
	}
	if st.GetCodeHash(addrA) == (types.Hash{}) {
		t.Fatal("code hash not set")
	}
	// Code is copied, not aliased.
	code[0] = 99
	if st.GetCode(addrA)[0] == 99 {
		t.Fatal("code aliased to caller slice")
	}
}

func TestStorageZeroDeletes(t *testing.T) {
	st := New()
	st.SetState(addrA, slot1, *uint256.NewInt(7))
	if st.StorageSize(addrA) != 1 {
		t.Fatal("slot not stored")
	}
	st.SetState(addrA, slot1, uint256.Int{})
	if st.StorageSize(addrA) != 0 {
		t.Fatal("zero write should delete the slot")
	}
}

func TestSnapshotRevertsEverything(t *testing.T) {
	st := New()
	st.AddBalance(addrA, uint256.NewInt(10))
	st.DiscardJournal()

	snap := st.Snapshot()
	st.AddBalance(addrA, uint256.NewInt(5))
	st.SetNonce(addrA, 3)
	st.SetCode(addrB, []byte{0xFE})
	st.SetState(addrA, slot1, *uint256.NewInt(11))
	st.AddLog(&types.Log{Address: addrA})
	st.AddRefund(100)

	st.RevertToSnapshot(snap)

	if got := st.GetBalance(addrA); got.Uint64() != 10 {
		t.Errorf("balance %s", got)
	}
	if st.GetNonce(addrA) != 0 {
		t.Error("nonce not reverted")
	}
	if st.GetCodeSize(addrB) != 0 {
		t.Error("account created with code survived revert")
	}
	if v := st.GetState(addrA, slot1); !v.IsZero() {
		t.Error("storage not reverted")
	}
	if len(st.TakeLogs()) != 0 {
		t.Error("log not reverted")
	}
	if st.GetRefund() != 0 {
		t.Error("refund not reverted")
	}
}

func TestNestedSnapshots(t *testing.T) {
	st := New()
	st.SetState(addrA, slot1, *uint256.NewInt(1))
	s1 := st.Snapshot()
	st.SetState(addrA, slot1, *uint256.NewInt(2))
	s2 := st.Snapshot()
	st.SetState(addrA, slot1, *uint256.NewInt(3))

	st.RevertToSnapshot(s2)
	if v := st.GetState(addrA, slot1); v.Uint64() != 2 {
		t.Fatalf("after inner revert: %s", v.String())
	}
	st.RevertToSnapshot(s1)
	if v := st.GetState(addrA, slot1); v.Uint64() != 1 {
		t.Fatalf("after outer revert: %s", v.String())
	}
}

func TestRevertRestoresPriorStorageValue(t *testing.T) {
	st := New()
	st.SetState(addrA, slot1, *uint256.NewInt(42))
	st.DiscardJournal()
	snap := st.Snapshot()
	st.SetState(addrA, slot1, *uint256.NewInt(43))
	st.SetState(addrA, slot1, uint256.Int{}) // delete
	st.RevertToSnapshot(snap)
	if v := st.GetState(addrA, slot1); v.Uint64() != 42 {
		t.Fatalf("got %s, want 42", v.String())
	}
}

func TestInvalidSnapshotPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad snapshot id")
		}
	}()
	New().RevertToSnapshot(5)
}

func TestCopyIsDeep(t *testing.T) {
	st := New()
	st.SetBalance(addrA, uint256.NewInt(9))
	st.SetState(addrA, slot1, *uint256.NewInt(1))
	st.SetCode(addrA, []byte{0x60})

	cp := st.Copy()
	cp.SetBalance(addrA, uint256.NewInt(100))
	cp.SetState(addrA, slot1, *uint256.NewInt(2))
	cp.SetCode(addrA, []byte{0x61, 0x62})

	if st.GetBalance(addrA).Uint64() != 9 {
		t.Error("balance leaked through copy")
	}
	if v := st.GetState(addrA, slot1); v.Uint64() != 1 {
		t.Error("storage leaked through copy")
	}
	if st.GetCodeSize(addrA) != 1 {
		t.Error("code leaked through copy")
	}
}

func TestDigestDeterministicAndSensitive(t *testing.T) {
	build := func() *StateDB {
		st := New()
		st.SetBalance(addrA, uint256.NewInt(5))
		st.SetState(addrA, slot1, *uint256.NewInt(1))
		st.SetState(addrB, slot2, *uint256.NewInt(2))
		st.SetCode(addrB, []byte{0x00})
		return st
	}
	d1 := build().Digest()
	d2 := build().Digest()
	if d1 != d2 {
		t.Fatal("digest not deterministic")
	}
	st := build()
	st.SetState(addrA, slot1, *uint256.NewInt(99))
	if st.Digest() == d1 {
		t.Fatal("digest insensitive to storage change")
	}
	st2 := build()
	st2.AddBalance(addrB, uint256.NewInt(1))
	if st2.Digest() == d1 {
		t.Fatal("digest insensitive to balance change")
	}
}

func TestDigestIgnoresEmptyTouchedAccounts(t *testing.T) {
	st := New()
	st.SetBalance(addrA, uint256.NewInt(5))
	d1 := st.Digest()
	// Touch (create) an account without giving it any substance.
	st.AddBalance(addrB, new(uint256.Int))
	if st.Digest() != d1 {
		t.Fatal("empty account changed the digest")
	}
}

func TestAccessRecording(t *testing.T) {
	st := New()
	st.SetBalance(addrA, uint256.NewInt(5))
	st.DiscardJournal()

	st.BeginAccessRecord()
	st.GetBalance(addrA)
	st.GetState(addrA, slot1)
	st.SetState(addrB, slot2, *uint256.NewInt(1))
	st.GetNonce(addrB)
	reads, writes := st.EndAccessRecord()

	wantRead := []AccessKey{
		{Kind: AccessBalance, Addr: addrA},
		{Kind: AccessStorage, Addr: addrA, Slot: slot1},
		{Kind: AccessNonce, Addr: addrB},
	}
	for _, k := range wantRead {
		if _, ok := reads[k]; !ok {
			t.Errorf("missing read %+v", k)
		}
	}
	if _, ok := writes[AccessKey{Kind: AccessStorage, Addr: addrB, Slot: slot2}]; !ok {
		t.Error("missing storage write")
	}
	// Recording must stop after End.
	st.GetBalance(addrB)
	if len(reads) != 3 {
		t.Errorf("reads mutated after EndAccessRecord: %d", len(reads))
	}
}

func TestAccessSetOverlaps(t *testing.T) {
	a := AccessSet{{Kind: AccessBalance, Addr: addrA}: {}}
	b := AccessSet{{Kind: AccessBalance, Addr: addrA}: {}}
	c := AccessSet{{Kind: AccessBalance, Addr: addrB}: {}}
	if !a.Overlaps(b) {
		t.Error("identical sets should overlap")
	}
	if a.Overlaps(c) {
		t.Error("disjoint sets should not overlap")
	}
	if a.Overlaps(AccessSet{}) {
		t.Error("empty set overlap")
	}
}

func TestRefundCounter(t *testing.T) {
	st := New()
	st.AddRefund(10)
	st.AddRefund(5)
	if st.GetRefund() != 15 {
		t.Fatal("refund accumulation")
	}
	st.ResetRefund()
	if st.GetRefund() != 0 {
		t.Fatal("refund reset")
	}
}

func TestAccountCount(t *testing.T) {
	st := New()
	if st.AccountCount() != 0 {
		t.Fatal("fresh count")
	}
	st.SetBalance(addrA, uint256.NewInt(1))
	st.AddBalance(addrB, new(uint256.Int)) // touched but empty, not counted
	if st.AccountCount() != 1 {
		t.Fatalf("count %d", st.AccountCount())
	}
}

// TestDigestOrderIndependence: writing the same accounts in different
// orders must give the same digest.
func TestDigestOrderIndependence(t *testing.T) {
	f := func(seed uint8) bool {
		st1, st2 := New(), New()
		addrs := []types.Address{addrA, addrB}
		for i := 0; i < 4; i++ {
			a := addrs[(int(seed)+i)%2]
			st1.SetState(a, slot1, *uint256.NewInt(uint64(i + 1)))
		}
		for i := 3; i >= 0; i-- {
			a := addrs[(int(seed)+i)%2]
			st2.SetState(a, slot1, *uint256.NewInt(uint64(i + 1)))
		}
		// Final values differ between orders unless we overwrite with the
		// same last value; set explicitly to align.
		st1.SetState(addrA, slot1, *uint256.NewInt(7))
		st2.SetState(addrA, slot1, *uint256.NewInt(7))
		st1.SetState(addrB, slot1, *uint256.NewInt(8))
		st2.SetState(addrB, slot1, *uint256.NewInt(8))
		return st1.Digest() == st2.Digest()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFootprint(t *testing.T) {
	st := New()
	if fp := st.Footprint(); fp != (Footprint{}) {
		t.Fatalf("empty state footprint = %+v", fp)
	}
	st.AddBalance(addrA, uint256.NewInt(100))
	st.SetCode(addrB, []byte{0x60, 0x00, 0x60, 0x00})
	st.SetState(addrB, slot1, *uint256.NewInt(7))
	st.SetState(addrB, slot2, *uint256.NewInt(9))
	fp := st.Footprint()
	want := Footprint{Accounts: 2, StorageSlots: 2, CodeBytes: 4}
	if fp != want {
		t.Errorf("footprint = %+v, want %+v", fp, want)
	}
	// Zeroing a slot deletes it; an emptied account drops out entirely.
	st.SetState(addrB, slot2, uint256.Int{})
	st.SubBalance(addrA, uint256.NewInt(100))
	fp = st.Footprint()
	want = Footprint{Accounts: 1, StorageSlots: 1, CodeBytes: 4}
	if fp != want {
		t.Errorf("after clearing: footprint = %+v, want %+v", fp, want)
	}
	// AccountCount and Footprint must agree on liveness.
	if fp.Accounts != st.AccountCount() {
		t.Errorf("Footprint.Accounts %d != AccountCount %d", fp.Accounts, st.AccountCount())
	}
}
