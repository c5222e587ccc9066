package workload

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mtpu/internal/types"
)

func TestParseScenarioSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"scenario=dex", Spec{Kind: "dex", Blocks: 100, Txs: 64, Skew: 1.0, Seed: 1}},
		{"scenario=erc20-mix,blocks=500,txs=32", Spec{Kind: "erc20-mix", Blocks: 500, Txs: 32, Skew: 1.0, Seed: 1}},
		{"scenario=oracle,blocks=8,txs=4,skew=0.9,seed=42,accounts=100",
			Spec{Kind: "oracle", Blocks: 8, Txs: 4, Skew: 0.9, Seed: 42, Accounts: 100}},
		// Keys may come in any order; the scenario key picks the defaults.
		{"txs=10,scenario=nft-mint,blocks=5,seed=2",
			Spec{Kind: "nft-mint", Blocks: 5, Txs: 10, Skew: 1.0, Seed: 2}},
		{`{"kind":"airdrop","blocks":3,"txs":6,"seed":9}`,
			Spec{Kind: "airdrop", Blocks: 3, Txs: 6, Skew: 0, Seed: 9}},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}

	bad := []string{
		"scenario=bogus", "scenario=token", "scenario=dex,blocks=0", "scenario=dex,txs=-1",
		"scenario=dex,skew=-0.1", "scenario=dex,skew=9", "scenario=dex,accounts=-1",
		"scenario=dex,nope=1", "scenario", "scenario=dex,blocks=x",
		"scenario=dex,dep=0.3", // scenarios read no dep
		// Non-finite skew must not slip past Validate's range check.
		"scenario=dex,skew=NaN", "scenario=dex,skew=+Inf", "scenario=dex,skew=-Inf",
		// Generators that draw fixed roles from the pool's tail.
		"scenario=airdrop,blocks=2,txs=8,accounts=5", "scenario=oracle,accounts=7",
		`{"kind":"dex","nope":1}`, `{"kind":"dex","txs":4}`, `{"scenario":"dex","blocks":4}`,
	}
	for _, in := range bad {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted invalid spec", in)
		}
	}
}

func TestScenarioSpecRoundTrip(t *testing.T) {
	spec := Spec{Kind: "dex", Blocks: 7, Txs: 9, Skew: 1.25, Seed: 13, Accounts: 80}
	got, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("reparsing %q: %v", spec.String(), err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("round trip %q = %+v, want %+v", spec.String(), got, spec)
	}
}

// TestParseSourceSpec proves the one grammar: a scenario key selects a
// scenario kind, anything else the token chain, and the JSON form names
// its kind — so `mtpu-serve -source` accepts every chained spec through
// the benchmark's ParseSourceSpec name.
func TestParseSourceSpec(t *testing.T) {
	cases := []struct {
		in   string
		kind string
	}{
		{"scenario=dex,blocks=4", "dex"},
		{`{"kind":"oracle","blocks":4,"txs":8,"seed":3}`, "oracle"},
		{"blocks=4,txs=8", "token"},
		{`{"kind":"token","blocks":4,"txs":8,"seed":3}`, "token"},
		{"", "token"},
	}
	for _, c := range cases {
		got, err := ParseSourceSpec(c.in)
		if err != nil {
			t.Errorf("ParseSourceSpec(%q): %v", c.in, err)
			continue
		}
		if got.Kind != c.kind {
			t.Errorf("ParseSourceSpec(%q) kind %q, want %q", c.in, got.Kind, c.kind)
		}
	}
	bad := []string{"scenario=bogus", "blocks=0", `{"kind":"dex","blocks":0,"txs":4}`}
	for _, in := range bad {
		if _, err := ParseSourceSpec(in); err == nil {
			t.Errorf("ParseSourceSpec(%q) accepted invalid spec", in)
		}
	}
}

// TestScenarioDeterminism proves every scenario yields byte-identical
// block streams for one seed — across independent generator instances
// and across the JSON and shorthand spec forms.
func TestScenarioDeterminism(t *testing.T) {
	for _, name := range Scenarios {
		t.Run(name, func(t *testing.T) {
			shorthand := fmt.Sprintf("scenario=%s,blocks=4,txs=12,skew=1.2,seed=7", name)
			jsonForm := fmt.Sprintf(`{"kind":%q,"blocks":4,"txs":12,"skew":1.2,"seed":7}`, name)
			sa, err := ParseSpec(shorthand)
			if err != nil {
				t.Fatalf("parse shorthand: %v", err)
			}
			sb, err := ParseSpec(jsonForm)
			if err != nil {
				t.Fatalf("parse JSON: %v", err)
			}
			if !reflect.DeepEqual(sa, sb) {
				t.Fatalf("spec forms disagree: %+v vs %+v", sa, sb)
			}
			a, err := sa.OpenSource()
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			b, err := sb.OpenSource()
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if a.Genesis().Digest() != b.Genesis().Digest() {
				t.Fatal("same spec, different genesis")
			}
			seen := make(map[string]bool)
			for i := 0; i < sa.Blocks; i++ {
				ba, oka := a.Next()
				bb, okb := b.Next()
				if !oka || !okb {
					t.Fatalf("stream ended early at block %d", i)
				}
				if ba.Hash() != bb.Hash() {
					t.Fatalf("block %d differs between identical specs", i)
				}
				if ba.DAG != nil {
					t.Fatalf("block %d emitted with a DAG; decoding is the consumer's job", i)
				}
				if seen[ba.Hash().String()] {
					t.Fatalf("block %d repeats an earlier block", i)
				}
				seen[ba.Hash().String()] = true
			}
			if _, ok := a.Next(); ok {
				t.Fatal("stream produced more blocks than the spec asked for")
			}
		})
	}
}

// TestScenarioChainsExecute proves every scenario's stream is a valid
// chain: executed in order against the evolving state, every
// transaction succeeds (no reverts, no nonce gaps) and the per-block
// conflict DAGs derive cleanly.
func TestScenarioChainsExecute(t *testing.T) {
	for _, name := range Scenarios {
		t.Run(name, func(t *testing.T) {
			spec := Spec{Kind: name, Blocks: 3, Txs: 16, Skew: 1.2, Seed: 5}
			st, err := spec.OpenSource()
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			var blocks []*types.Block
			for b, ok := st.Next(); ok; b, ok = st.Next() {
				blocks = append(blocks, b)
			}
			if len(blocks) != spec.Blocks {
				t.Fatalf("got %d blocks, want %d", len(blocks), spec.Blocks)
			}
			for i, b := range blocks {
				if want := uint64(BlockNumber + i); b.Header.Height != want {
					t.Fatalf("block %d height %d, want %d", i, b.Header.Height, want)
				}
			}
			if err := BuildChainDAG(st.Genesis(), blocks); err != nil {
				t.Fatalf("chain does not execute: %v", err)
			}
		})
	}
}

// TestZipfSampler checks the CDF sampler against its own analytic
// top-share and the uniform degenerate case.
func TestZipfSampler(t *testing.T) {
	z := newZipf(1000, 1.2)
	rng := rand.New(rand.NewSource(1))
	const draws = 200_000
	top := int(math.Ceil(0.01 * 1000))
	hits := 0
	for i := 0; i < draws; i++ {
		if z.sample(rng) < top {
			hits++
		}
	}
	got := float64(hits) / draws
	want := z.topShare(0.01)
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("top-1%% empirical share %.4f, analytic %.4f", got, want)
	}
	if want < 0.3 {
		t.Fatalf("s=1.2 top-1%% share %.4f suspiciously low — sampler not skewed", want)
	}

	u := newZipf(1000, 0)
	if s := u.topShare(0.01); math.Abs(s-0.01) > 1e-9 {
		t.Fatalf("uniform top-1%% share %.4f, want 0.01", s)
	}
}

// TestScenarioZipfSkew proves generated traffic actually carries the
// configured skew: the hottest 1% of the account pool sends the
// analytic Zipf share of erc20-mix transactions, within tolerance.
func TestScenarioZipfSkew(t *testing.T) {
	spec := Spec{Kind: "erc20-mix", Blocks: 50, Txs: 64, Skew: 1.2, Seed: 11}
	st, err := spec.OpenSource()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	counts := make(map[types.Address]int)
	total := 0
	for b, ok := st.Next(); ok; b, ok = st.Next() {
		for _, tx := range b.Transactions {
			counts[tx.From]++
			total++
		}
	}
	pool := spec.AccountPool()
	top := int(math.Ceil(0.01 * float64(pool)))
	// Popularity is rank-ordered: rank k is accountAddr(k).
	hot := 0
	for k := 0; k < top; k++ {
		hot += counts[accountAddr(k)]
	}
	got := float64(hot) / float64(total)
	want := newZipf(pool, spec.Skew).topShare(0.01)
	if math.Abs(got-want) > 0.08 {
		t.Fatalf("top-1%% accounts sent %.3f of traffic, analytic share %.3f", got, want)
	}
	if got < 2.0/float64(pool)*float64(top) {
		t.Fatalf("top-1%% share %.3f barely above uniform — skew not applied", got)
	}
}

// TestSpecValidateNonFinite pins the Validate bugfix: NaN slipped past
// `Dep < 0 || Dep > 1` (both comparisons are false for NaN) in Spec and
// in single-block and chained specs alike, and ±Inf passes one bound
// each.
func TestSpecValidateNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := (Spec{Kind: "token", Txs: 4, Seed: 1, Dep: v}).Validate(); err == nil {
			t.Errorf("Spec.Validate accepted Dep=%v", v)
		}
		if err := (Spec{Kind: "sct", Txs: 4, Seed: 1, Share: v}).Validate(); err == nil {
			t.Errorf("Spec.Validate accepted Share=%v", v)
		}
		if err := (Spec{Kind: "token", Blocks: 2, Txs: 4, Seed: 1, Dep: v}).Validate(); err == nil {
			t.Errorf("Spec.Validate accepted chained Dep=%v", v)
		}
	}
	// The flag shorthand reaches Validate with these values because
	// strconv.ParseFloat accepts "NaN" and "±Inf" spellings.
	for _, in := range []string{"dep=NaN", "dep=+Inf", "dep=-Inf", "dep=Inf"} {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted non-finite dep", in)
		}
	}
	// JSON cannot express NaN/Inf literals, so the strict decoder already
	// rejects them at the syntax layer — pin that too.
	if _, err := ParseSpec(`{"kind":"token","blocks":2,"txs":4,"dep":NaN,"seed":1}`); err == nil {
		t.Error("JSON NaN literal decoded")
	}
}
