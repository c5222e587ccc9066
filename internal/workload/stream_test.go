package workload

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
)

func TestParseStreamSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"", Spec{Kind: "token", Blocks: 100, Txs: 64, Dep: 0.3, Seed: 1}},
		{"blocks=500,txs=32", Spec{Kind: "token", Blocks: 500, Txs: 32, Dep: 0.3, Seed: 1}},
		{"blocks=8,txs=4,dep=0.9,seed=42,accounts=100", Spec{Kind: "token", Blocks: 8, Txs: 4, Dep: 0.9, Seed: 42, Accounts: 100}},
		// The JSON form is the Spec itself: no defaults, kind required.
		{`{"kind":"token","blocks":5,"txs":10,"seed":2}`, Spec{Kind: "token", Blocks: 5, Txs: 10, Seed: 2}},
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
		"blocks=0", "txs=-1", "dep=1.5", "bogus=1", "blocks", "blocks=x",
		"skew=1.2", // the token chain reads no skew
		`{"kind":"token","blocks":5,"txs":10,"seed":2,"nope":1}`, `{"blocks":5}`,
	}
	for _, in := range bad {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted invalid spec", in)
		}
	}
}

func TestStreamSpecRoundTrip(t *testing.T) {
	spec := Spec{Kind: "token", Blocks: 7, Txs: 9, Dep: 0.25, Seed: 13, Accounts: 80}
	got, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("reparsing %q: %v", spec.String(), err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("round trip %q = %+v, want %+v", spec.String(), got, spec)
	}
}

// TestStreamDeterminism proves the same spec yields byte-identical block
// streams — the property that makes `mtpu-serve -source` reproducible.
func TestStreamDeterminism(t *testing.T) {
	spec := Spec{Kind: "token", Blocks: 5, Txs: 16, Dep: 0.5, Seed: 77}
	a, err := spec.OpenSource()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	b, err := spec.OpenSource()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if a.Genesis().Digest() != b.Genesis().Digest() {
		t.Fatal("same spec, different genesis")
	}
	seen := make(map[string]bool)
	for i := 0; i < spec.Blocks; i++ {
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
	// A single-block spec is Generate's, not a stream.
	if _, err := (Spec{Kind: "token", Txs: 4}).OpenSource(); err == nil {
		t.Fatal("single-block spec opened as a stream")
	}
}

// TestGoldenShapes pins every shorthand the repository runs — the
// Makefile's serve-smoke and scenario-smoke passes, the README examples,
// the block-stream benchmark's four sources (bench/workloads.go, at its
// default 30 s length and seed 1) and mtpu-serve's -genesis default — to
// its parsed String() and a hash of its genesis digest and first three
// blocks' RLP. A generator edit that moves any of these changes what
// every benchmark digest and smoke run measures.
func TestGoldenShapes(t *testing.T) {
	cases := []struct{ in, str, hash string }{
		// Makefile serve-smoke (the first also README's and EXPERIMENTS.md's).
		{"blocks=500,txs=32,dep=0.3,seed=1", "blocks=500,txs=32,dep=0.3,seed=1", "f850a2ff94d5ade457d74104"},
		{"blocks=64,txs=24,dep=0.5,seed=2", "blocks=64,txs=24,dep=0.5,seed=2", "e003ddfe124e27beaaa75457"},
		// mtpu-serve -genesis default.
		{"blocks=1,txs=64,seed=1", "blocks=1,txs=64,dep=0.3,seed=1", "10f877b8c971a47ba855f5bf"},
		// bench/workloads.go: token-dep30, erc20-bigblock, large-state, airdrop-stm.
		{"txs=32,dep=0.3,blocks=400,seed=1", "blocks=400,txs=32,dep=0.3,seed=1", "f850a2ff94d5ade457d74104"},
		{"scenario=erc20-mix,txs=192,skew=1.2,accounts=256,blocks=120,seed=1", "scenario=erc20-mix,blocks=120,txs=192,skew=1.2,seed=1,accounts=256", "fd0c075d829be09d9d7a000d"},
		{"txs=32,dep=0.3,accounts=4096,blocks=120,seed=1", "blocks=120,txs=32,dep=0.3,seed=1,accounts=4096", "46d90be995c49246fdd591ba"},
		{"scenario=airdrop,txs=32,skew=1.2,blocks=300,seed=1", "scenario=airdrop,blocks=300,txs=32,skew=1.2,seed=1", "e1e8b726141d0d47ba5134d4"},
		// README scenario example.
		{"scenario=dex,blocks=500,txs=32,skew=1.2,seed=1", "scenario=dex,blocks=500,txs=32,skew=1.2,seed=1", "dca627abf5fe8117c38211c0"},
		// Makefile scenario-smoke: the long pass and the -race pass per scenario.
		{"scenario=erc20-mix,blocks=500,txs=16,skew=1.2,seed=7", "scenario=erc20-mix,blocks=500,txs=16,skew=1.2,seed=7", "212f24ba3a2c7fa09fb59e3f"},
		{"scenario=erc20-mix,blocks=24,txs=12,skew=1.2,seed=8", "scenario=erc20-mix,blocks=24,txs=12,skew=1.2,seed=8", "b4e19cc2f3a05de6b75f32a0"},
		{"scenario=dex,blocks=500,txs=16,skew=1.2,seed=7", "scenario=dex,blocks=500,txs=16,skew=1.2,seed=7", "2293cc80e72cc23bb75b0c8b"},
		{"scenario=dex,blocks=24,txs=12,skew=1.2,seed=8", "scenario=dex,blocks=24,txs=12,skew=1.2,seed=8", "444873b4dce9c0e2d163f7a4"},
		{"scenario=nft-mint,blocks=500,txs=16,skew=1.2,seed=7", "scenario=nft-mint,blocks=500,txs=16,skew=1.2,seed=7", "0c063129bd0e27f92e749fa7"},
		{"scenario=nft-mint,blocks=24,txs=12,skew=1.2,seed=8", "scenario=nft-mint,blocks=24,txs=12,skew=1.2,seed=8", "1d848021fb4748be7918db60"},
		{"scenario=airdrop,blocks=500,txs=16,skew=1.2,seed=7", "scenario=airdrop,blocks=500,txs=16,skew=1.2,seed=7", "2f2eccfa3af794c1c1df3a7a"},
		{"scenario=airdrop,blocks=24,txs=12,skew=1.2,seed=8", "scenario=airdrop,blocks=24,txs=12,skew=1.2,seed=8", "dd68e0cd02b4d9e21b505b49"},
		{"scenario=oracle,blocks=500,txs=16,skew=1.2,seed=7", "scenario=oracle,blocks=500,txs=16,skew=1.2,seed=7", "3f4a38fd975f979e559e1c74"},
		{"scenario=oracle,blocks=24,txs=12,skew=1.2,seed=8", "scenario=oracle,blocks=24,txs=12,skew=1.2,seed=8", "a1cae5354dbe879770247eaf"},
	}
	for _, c := range cases {
		spec, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if got := spec.String(); got != c.str {
			t.Errorf("%q: String() = %q, want %q", c.in, got, c.str)
		}
		src, err := spec.OpenSource()
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		h := sha256.New()
		fmt.Fprint(h, src.Genesis().Digest())
		for i := 0; i < 3; i++ {
			if b, ok := src.Next(); ok {
				h.Write(b.EncodeRLP())
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:12]); got != c.hash {
			t.Errorf("%q: first blocks hash %s, want %s", c.in, got, c.hash)
		}
	}
}
