package mvstate

import (
	"bytes"
	"math/rand"
	"testing"

	"mtpu/internal/keccak"
	"mtpu/internal/state"
	"mtpu/internal/types"
	"mtpu/internal/uint256"
)

// applied is the reference DigestAfter is held to: the same writes made
// through StateDB setters on a copy of base, in order, then the coinbase
// balance set to base's plus fee, and the result summed from scratch.
func applied(base *state.StateDB, keys []state.AccessKey, vals []Value, coinbase types.Address, fee *uint256.Int) types.Hash {
	st := base.Copy()
	for i, k := range keys {
		switch k.Kind {
		case state.AccessBalance:
			st.SetBalance(k.Addr, &vals[i].Word)
		case state.AccessNonce:
			st.SetNonce(k.Addr, vals[i].U64)
		case state.AccessCode:
			st.SetCode(k.Addr, vals[i].Code)
		case state.AccessStorage:
			st.SetState(k.Addr, k.Slot, vals[i].Word)
		}
	}
	if fee != nil && !fee.IsZero() {
		var bal uint256.Int
		bal.Add(base.GetBalance(coinbase), fee)
		st.SetBalance(coinbase, &bal)
	}
	return st.Digest()
}

// pricers are the two kinds of snapshot a write-set is priced over: a
// store's head and a pin.
func pricers(base *state.StateDB) map[string]*Snapshot {
	st := NewStore(base, nil)
	return map[string]*Snapshot{"Head": st.Head(), "Pin": st.Pin()}
}

// TestDigestAfterMatchesAppliedDigest is the pricing contract: for every
// kind of write-set, DigestAfter over any snapshot kind equals applying
// the writes and digesting from scratch. The stream prices each block
// this way before committing it, so any divergence would break chained
// digest continuity.
func TestDigestAfterMatchesAppliedDigest(t *testing.T) {
	a, b, c := types.Address{19: 0xa}, types.Address{19: 0xb}, types.Address{19: 0xc}
	coinbase := types.Address{19: 0xfe}
	s1, s2 := types.Hash{31: 1}, types.Hash{31: 2}

	base := state.New()
	base.SetBalance(a, uint256.NewInt(100))
	base.SetNonce(a, 3)
	base.SetState(a, s1, *uint256.NewInt(7))
	base.SetState(a, s2, *uint256.NewInt(8))
	base.SetBalance(b, uint256.NewInt(50))
	base.SetCode(b, []byte{0x60, 0x01})
	base.SetBalance(coinbase, uint256.NewInt(9))
	base.DiscardJournal()

	cases := []struct {
		name string
		keys []state.AccessKey
		vals []Value
		fee  *uint256.Int
	}{
		{"scalar fields", []state.AccessKey{balKey(a), nonceKey(a)}, []Value{word(42), {U64: 9}}, nil},
		{"storage set and delete", []state.AccessKey{storageKey(a, s1), storageKey(a, s2)}, []Value{word(99), word(0)}, nil},
		{"code replacement, hash left out", []state.AccessKey{codeKey(b)}, []Value{{Code: []byte{0x61, 0x02, 0x03}}}, nil},
		{"code replacement, hash given", []state.AccessKey{codeKey(b)},
			[]Value{{Code: []byte{0x61, 0x02}, Hash: keccak.Sum256([]byte{0x61, 0x02})}}, nil},
		{"new account", []state.AccessKey{balKey(c), storageKey(c, s1)}, []Value{word(5), word(1)}, nil},
		{"account emptied", []state.AccessKey{balKey(b), codeKey(b)}, []Value{word(0), {}}, nil},
		{"write equal to the base value", []state.AccessKey{balKey(a)}, []Value{word(100)}, nil},
		{"repeated keys, last write wins",
			[]state.AccessKey{balKey(a), storageKey(a, s1), balKey(a), storageKey(a, s2), storageKey(a, s1), balKey(a), storageKey(a, s2)},
			[]Value{word(1), word(0), word(2), word(0), word(4), word(3), word(6)}, nil},
		{"deleted then recreated", []state.AccessKey{balKey(b), codeKey(b), codeKey(b), balKey(b)},
			[]Value{word(0), {}, {Code: []byte{0xfe}}, word(8)}, nil},
		{"fee to an existing coinbase", []state.AccessKey{balKey(a)}, []Value{word(1)}, uint256.NewInt(21)},
		{"zero fee credits nothing", nil, nil, uint256.NewInt(0)},
		{"fee replaces a write of the coinbase balance", []state.AccessKey{balKey(coinbase), nonceKey(coinbase)},
			[]Value{word(1000), {U64: 1}}, uint256.NewInt(4)},
	}
	clean := base.Digest()
	for _, tc := range cases {
		want := applied(base, tc.keys, tc.vals, coinbase, tc.fee)
		for kind, sn := range pricers(base) {
			if got := sn.DigestAfter(tc.keys, tc.vals, coinbase, tc.fee); got != want {
				t.Errorf("%s over %s: DigestAfter %s != applied digest %s", tc.name, kind, got, want)
			}
			sn.Close()
		}
	}
	if base.Digest() != clean || base.GetBalance(a).Uint64() != 100 {
		t.Fatal("DigestAfter wrote into the base")
	}
}

// TestDigestAfterNilAndEmpty pins the degenerate forms to plain Digest.
func TestDigestAfterNilAndEmpty(t *testing.T) {
	base := state.New()
	base.SetBalance(types.Address{19: 1}, uint256.NewInt(12))
	for kind, sn := range pricers(base) {
		if sn.DigestAfter(nil, nil, types.Address{}, nil) != base.Digest() {
			t.Errorf("%s: empty write-set diverged from Digest", kind)
		}
		if sn.DigestAfter([]state.AccessKey{}, []Value{}, types.Address{19: 1}, new(uint256.Int)) != base.Digest() {
			t.Errorf("%s: empty write-set and zero fee diverged from Digest", kind)
		}
		if sn.Digest() != base.Digest() {
			t.Errorf("%s: Digest diverged from the StateDB's", kind)
		}
		sn.Close()
	}
}

// TestDigestAfterSkipEmptyRule: an account given substance only by the
// write-set appears, and zeroing the only non-zero field of one drops
// it — exactly as if the writes had been applied.
func TestDigestAfterSkipEmptyRule(t *testing.T) {
	a, b := types.Address{19: 1}, types.Address{19: 2}
	base := state.New()
	base.SetBalance(a, uint256.NewInt(1))
	base.DiscardJournal()
	for kind, sn := range pricers(base) {
		if sn.DigestAfter([]state.AccessKey{nonceKey(b)}, []Value{{U64: 1}}, types.Address{}, nil) == base.Digest() {
			t.Errorf("%s: an account made by the write-set alone is invisible", kind)
		}
		if got, want := sn.DigestAfter([]state.AccessKey{balKey(a)}, []Value{word(0)}, types.Address{}, nil), state.New().Digest(); got != want {
			t.Errorf("%s: emptied account still digests: %s != empty-state %s", kind, got, want)
		}
		sn.Close()
	}
}

// digestFolds interprets data as a sequence of folds into a store over a
// small key universe and holds the incremental digest to the
// from-scratch one. A fold is a header byte — its write count (bits
// 0–2), a fee credit (bit 3) of bits 5–7, a pin of the pre-fold head
// (bit 4) — then two bytes per write: key selector and value. Small
// values make zero writes (deletions), re-creations after them, code
// changes and repeated keys within one write-set common. After every
// fold, HeadDigest, the head summed from scratch and the write-set
// priced over the pre-fold head must agree; every pin must keep its
// height's from-scratch digest for three folds and price the fold that
// followed it.
func digestFolds(t *testing.T, data []byte) {
	coinbase := types.Address{19: 0xcb}
	addrs := [3]types.Address{{19: 1}, {19: 2}, coinbase}
	var keys []state.AccessKey
	for _, a := range addrs {
		if a != coinbase { // write-sets never carry it: the carve-out
			keys = append(keys, balKey(a))
		}
		keys = append(keys, nonceKey(a), codeKey(a), storageKey(a, types.Hash{31: 1}), storageKey(a, types.Hash{31: 2}))
	}
	value := func(k state.AccessKey, x byte) Value {
		switch k.Kind {
		case state.AccessNonce:
			return Value{U64: uint64(x % 4)}
		case state.AccessCode:
			v := Value{Code: bytes.Repeat([]byte{x}, int(x%3))}
			if len(v.Code) > 0 && x&4 != 0 {
				v.Hash = keccak.Sum256(v.Code)
			}
			return v
		}
		return word(uint64(x % 5))
	}

	genesis := state.New()
	genesis.SetBalance(addrs[0], uint256.NewInt(3))
	genesis.SetNonce(addrs[0], 1)
	genesis.SetCode(addrs[1], []byte{0x60, 0x00})
	genesis.SetState(addrs[1], types.Hash{31: 1}, *uint256.NewInt(2))
	genesis.SetBalance(coinbase, uint256.NewInt(4))
	genesis.DiscardJournal()
	st := NewStore(genesis, nil)
	if st.HeadDigest() != genesis.Digest() {
		t.Fatal("NewStore's accumulator differs from genesis summed from scratch")
	}

	type pinAt struct {
		sn    *Snapshot
		want  types.Hash // from scratch at its height
		folds int
	}
	var pins []pinAt
	defer func() {
		for _, p := range pins {
			p.sn.Close()
		}
	}()
	for i, fold := 0, 0; i < len(data) && fold < 64; fold++ {
		hdr := data[i]
		i++
		var ks []state.AccessKey
		var vs []Value
		for n := hdr & 7; n > 0 && i+2 <= len(data); n-- {
			k := keys[int(data[i])%len(keys)]
			ks, vs = append(ks, k), append(vs, value(k, data[i+1]))
			i += 2
		}
		var fee *uint256.Int
		if hdr&8 != 0 {
			fee = uint256.NewInt(uint64(hdr >> 5))
		}
		if hdr&16 != 0 {
			pins = append(pins, pinAt{sn: st.Pin(), want: st.HeadDB().Digest()})
		}

		priced := st.Head().DigestAfter(ks, vs, coinbase, fee)
		st.Commit(ks, vs, coinbase, fee)
		scratch := st.HeadDB().Digest()
		if got := st.HeadDigest(); got != scratch || priced != scratch {
			t.Fatalf("fold %d: HeadDigest %s, from scratch %s, priced before the fold %s", fold, got, scratch, priced)
		}

		live := pins[:0]
		for _, p := range pins {
			p.folds++
			if got := p.sn.Digest(); got != p.want {
				t.Fatalf("fold %d: pin at height %d digests %s, from scratch at its height %s", fold, p.sn.Height(), got, p.want)
			}
			if p.folds == 1 {
				if got := p.sn.DigestAfter(ks, vs, coinbase, fee); got != scratch {
					t.Fatalf("fold %d: the fold priced over its pin %s, folded %s", fold, got, scratch)
				}
			}
			if p.folds < 3 {
				live = append(live, p)
			} else {
				p.sn.Close()
			}
		}
		pins = live
	}
}

func TestDigestIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for n := 0; n < 300; n++ {
		data := make([]byte, 1+rng.Intn(400))
		rng.Read(data)
		digestFolds(t, data)
	}
}

// FuzzDigestIncremental is the same check over fuzzer-chosen folds.
func FuzzDigestIncremental(f *testing.F) {
	f.Add([]byte{0x13, 0, 7, 0, 0, 0, 9, 0x10, 0x01, 3, 1})             // one balance written three times in a fold, under pins
	f.Add([]byte{0x6b, 7, 1, 7, 3, 7, 5, 0x69, 11, 2})                  // code set, deleted and recreated in a fold; fee credits
	f.Add([]byte{0x14, 0, 5, 3, 0, 8, 5, 1, 0, 0x12, 0, 3, 8, 4, 0x00}) // a balance, a slot and a nonce to zero, then back
	f.Fuzz(digestFolds)
}
