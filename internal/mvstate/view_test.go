package mvstate

import (
	"bytes"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"mtpu/internal/state"
	"mtpu/internal/types"
	"mtpu/internal/uint256"
)

// viewVsStateDB interprets data as a sequence of state operations (three
// bytes each: opcode, account or snapshot selector, operand) and runs it
// through a View with no multi-version memory over a genesis and through
// a journaled copy of that genesis. The view carries decode, verify and
// Block-STM, and state.StateDB is what it must be indistinguishable
// from: every value read, every per-transaction access window and the
// digest after folding the view's write-set have to agree.
func viewVsStateDB(t *testing.T, data []byte) {
	coinbase := types.Address{19: 0xcb}
	addrs := [5]types.Address{{19: 1}, {19: 2}, {19: 3}, {19: 4}, coinbase}
	slots := [3]types.Hash{{31: 1}, {31: 2}, {31: 3}}

	genesis := state.New()
	genesis.SetBalance(addrs[0], uint256.NewInt(1000))
	genesis.SetNonce(addrs[0], 4)
	genesis.SetCode(addrs[1], []byte{0x60, 0x01})
	genesis.SetState(addrs[1], slots[0], *uint256.NewInt(11))
	genesis.SetState(addrs[1], slots[1], *uint256.NewInt(12))
	genesis.SetBalance(addrs[2], uint256.NewInt(5))
	genesis.SetBalance(coinbase, uint256.NewInt(77))
	genesis.DiscardJournal()

	db := genesis.Copy()
	view := NewOverlay(NewStore(genesis, nil).Head(), coinbase)

	// wrote models the write-set's order: a key enters at its first
	// write and leaves when a revert undoes that write.
	var wrote []state.AccessKey
	write := func(k state.AccessKey) {
		if k != balKey(coinbase) && !slices.Contains(wrote, k) {
			wrote = append(wrote, k)
		}
	}
	type mark struct{ view, db, wrote int }
	var marks []mark
	recording := false
	endTx := func(at int) {
		vr, vw := view.EndTxRecord()
		dr, dw := db.EndAccessRecord()
		// The view carves the coinbase balance out of every set.
		delete(dr, balKey(coinbase))
		delete(dw, balKey(coinbase))
		if !maps.Equal(vr, dr) || !maps.Equal(vw, dw) {
			t.Fatalf("op %d: access window diverged:\nview reads %v writes %v\n  db reads %v writes %v", at, vr, vw, dr, dw)
		}
		recording = false
	}

	for i := 0; i+3 <= len(data) && i < 3*512; i += 3 {
		op, sel, arg := data[i]%14, data[i+1], data[i+2]
		addr, slot, x := addrs[sel%5], slots[arg%3], uint256.NewInt(uint64(arg))
		switch op {
		case 0:
			if got, want := view.GetBalance(addr), db.GetBalance(addr); !got.Eq(want) {
				t.Fatalf("op %d: GetBalance(%s) = %s, StateDB %s", i/3, addr, got, want)
			}
		case 1:
			view.SetBalance(addr, x)
			db.SetBalance(addr, x)
			write(balKey(addr))
		case 2:
			view.AddBalance(addr, x)
			db.AddBalance(addr, x)
			write(balKey(addr))
		case 3:
			view.SubBalance(addr, x)
			db.SubBalance(addr, x)
			write(balKey(addr))
		case 4:
			if got, want := view.GetNonce(addr), db.GetNonce(addr); got != want {
				t.Fatalf("op %d: GetNonce(%s) = %d, StateDB %d", i/3, addr, got, want)
			}
		case 5:
			view.SetNonce(addr, uint64(arg))
			db.SetNonce(addr, uint64(arg))
			write(nonceKey(addr))
		case 6:
			if got, want := view.GetCode(addr), db.GetCode(addr); !bytes.Equal(got, want) {
				t.Fatalf("op %d: GetCode(%s) = %x, StateDB %x", i/3, addr, got, want)
			}
			if got, want := view.GetCodeSize(addr), db.GetCodeSize(addr); got != want {
				t.Fatalf("op %d: GetCodeSize(%s) = %d, StateDB %d", i/3, addr, got, want)
			}
			if got, want := view.GetCodeHash(addr), db.GetCodeHash(addr); got != want {
				t.Fatalf("op %d: GetCodeHash(%s) = %s, StateDB %s", i/3, addr, got, want)
			}
		case 7:
			code := bytes.Repeat([]byte{arg}, int(arg%4)) // arg%4 == 0 clears the code
			view.SetCode(addr, code)
			db.SetCode(addr, code)
			write(codeKey(addr))
		case 8:
			if got, want := view.GetState(addr, slot), db.GetState(addr, slot); !got.Eq(&want) {
				t.Fatalf("op %d: GetState(%s, %s) = %s, StateDB %s", i/3, addr, slot, &got, &want)
			}
		case 9:
			v := *uint256.NewInt(uint64(arg / 3)) // small args write zero: slot deletion
			view.SetState(addr, slot, v)
			db.SetState(addr, slot, v)
			write(storageKey(addr, slot))
		case 10:
			marks = append(marks, mark{view.Snapshot(), db.Snapshot(), len(wrote)})
		case 11:
			if len(marks) > 0 {
				k := int(sel) % len(marks)
				view.RevertToSnapshot(marks[k].view)
				db.RevertToSnapshot(marks[k].db)
				wrote = wrote[:marks[k].wrote]
				marks = marks[:k]
			}
		case 12:
			view.AddRefund(uint64(arg))
			db.AddRefund(uint64(arg))
			view.AddLog(&types.Log{Address: addr})
			db.AddLog(&types.Log{Address: addr})
			if got, want := view.GetRefund(), db.GetRefund(); got != want {
				t.Fatalf("op %d: GetRefund = %d, StateDB %d", i/3, got, want)
			}
		case 13: // transaction boundary; no snapshot outlives TakeLogs
			marks = marks[:0]
			if recording {
				endTx(i / 3)
			}
			if got, want := len(view.TakeLogs()), len(db.TakeLogs()); got != want {
				t.Fatalf("op %d: %d logs, StateDB %d", i/3, got, want)
			}
			view.ResetRefund()
			db.ResetRefund()
			view.BeginTxRecord()
			db.BeginAccessRecord()
			recording = true
		}
	}
	if recording {
		endTx(len(data) / 3)
	}

	seen := make(map[state.AccessKey]bool)
	for _, obs := range view.ReadSet() {
		if seen[obs.Key] || obs.Ver.Tx != BaseVersion || obs.Key == balKey(coinbase) {
			t.Fatalf("read set entry %+v: repeated, not a base read, or the coinbase balance", obs)
		}
		seen[obs.Key] = true
	}
	keys, vals := view.WriteSet()
	if !slices.Equal(keys, wrote) {
		t.Fatalf("write-set keys %v, want first-write order %v", keys, wrote)
	}
	fee := view.FeeDelta()
	store := NewStore(genesis, nil)
	priced := store.Head().DigestAfter(keys, vals, coinbase, &fee)
	store.Commit(keys, vals, coinbase, &fee)
	if want := db.Digest(); store.HeadDigest() != want || priced != want {
		t.Fatalf("write-set folded to %s and priced at %s, StateDB digest %s", store.HeadDigest(), priced, want)
	}
}

func TestViewMatchesStateDB(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for n := 0; n < 400; n++ {
		data := make([]byte, 3*(1+rng.Intn(200)))
		rng.Read(data)
		viewVsStateDB(t, data)
	}
}

// FuzzViewVsStateDB is the same differential check over fuzzer-chosen
// operation sequences.
func FuzzViewVsStateDB(f *testing.F) {
	f.Add([]byte{13, 0, 0, 2, 0, 9, 0, 0, 0, 13, 0, 0})                                     // a credit inside a window, read back
	f.Add([]byte{10, 0, 0, 9, 1, 30, 7, 2, 5, 11, 0, 0, 8, 1, 0, 6, 2, 0})                  // nested write then revert
	f.Add([]byte{13, 0, 0, 2, 4, 50, 3, 4, 20, 0, 4, 0, 1, 4, 9, 0, 4, 0, 13, 0, 0})        // coinbase credits, debits, overwrite
	f.Add([]byte{9, 1, 0, 9, 1, 1, 7, 1, 0, 1, 1, 0, 5, 1, 0, 3, 2, 5, 10, 0, 0, 11, 0, 0}) // an account emptied field by field
	f.Fuzz(viewVsStateDB)
}
