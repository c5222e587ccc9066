package workload

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"mtpu/internal/types"
)

func generate(t *testing.T, s Spec) *types.Block {
	t.Helper()
	_, block, err := s.Generate()
	if err != nil {
		t.Fatalf("%s: %v", s, err)
	}
	return block
}

func TestSpecValidate(t *testing.T) {
	for _, good := range []Spec{
		{Kind: "token", Txs: 8, Dep: 0.5, Seed: 1},
		{Kind: "token", Blocks: 3, Txs: 8, Dep: 0.5, Seed: 1},
		{Kind: "dex", Blocks: 2, Txs: 8, Skew: 1.2},
		{Kind: "airdrop", Blocks: 2, Txs: 8, Accounts: airdropDistributors},
		{Kind: "mixed", Txs: 8, Accounts: 2},
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("valid spec %s rejected: %v", good, err)
		}
	}
	bad := []Spec{
		{Kind: "warp", Txs: 8, Seed: 1},
		{Kind: "token", Txs: 0, Seed: 1},
		{Kind: "token", Txs: 8, Dep: 1.5, Seed: 1},
		{Kind: "sct", Txs: 8, Share: -0.1, Seed: 1},
		{Kind: "batch", Txs: 8, Seed: 1}, // no contract
		{Kind: "token", Txs: 8, Seed: 1, Accounts: -2},
		{Kind: "token", Txs: 8, Seed: 1, Drop: []int{8}},
		{Kind: "token", Txs: 8, Seed: 1, Drop: []int{1, 1}},
		{Kind: "token", Txs: 2, Seed: 1, Drop: []int{0, 1}},
		{Kind: "batch", Txs: 4, Contract: "Nope"},          // unknown contract
		{Kind: "mixed", Txs: 8, Accounts: 1},               // voters need two accounts
		{Kind: "erc20", Txs: 8, Share: 0.5, Accounts: 1},   // likewise
		{Kind: "airdrop", Blocks: 2, Txs: 8, Accounts: 5},  // eight distributors
		{Kind: "oracle", Blocks: 2, Txs: 8, Accounts: 7},   // eight posters
		{Kind: "mixed", Blocks: 2, Txs: 8},                 // a single-block kind
		{Kind: "dex", Txs: 8, Skew: 1},                     // a scenario is a chain
		{Kind: "token", Blocks: -1, Txs: 8},                // negative chain
		{Kind: "token", Blocks: 2, Txs: 8, Drop: []int{1}}, // chains have no drops
		{Kind: "dex", Blocks: 2, Txs: 8, Dep: 0.3},         // a knob the kind ignores
		{Kind: "token", Blocks: 2, Txs: 8, Skew: 1},        // likewise
		{Kind: "sct", Txs: 8, Dep: 0.5},                    // likewise
		{Kind: "token", Txs: 8, Contract: "Dai"},           // likewise
		{Kind: "dex", Blocks: 2, Txs: 8, Skew: 9},          // skew above 8
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("invalid spec accepted: %s", s)
		}
	}
}

func TestSpecParseRoundTrip(t *testing.T) {
	in := Spec{Kind: "batch", Txs: 24, Seed: 7, Contract: "WETH9", Drop: []int{3, 5}}
	buf, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseSpec(string(buf))
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.Txs != in.Txs || out.Seed != in.Seed ||
		out.Contract != in.Contract || len(out.Drop) != 2 {
		t.Fatalf("round trip changed the spec: %s -> %s", in, out)
	}
	if out.String() != string(buf) {
		t.Errorf("single-block String() = %s, want the canonical JSON %s", out, buf)
	}
	if _, err := ParseSpec(`{"kind":"token","txs":8,"seed":1,"warp":9}`); err == nil {
		t.Error("unknown field accepted")
	}
	// The layouts of the retired stream and scenario recipe types carry
	// no kind and are rejected by the strict decoder.
	for _, old := range []string{`{"blocks":5,"txs":10,"seed":2}`, `{"scenario":"dex","blocks":3,"txs":6,"seed":9}`} {
		if _, err := ParseSpec(old); err == nil {
			t.Errorf("old layout %s accepted", old)
		}
	}
}

// TestSpecGenerateEveryKind: each kind produces a valid block whose DAG
// matches sequential-replay conflicts (the corners included).
func TestSpecGenerateEveryKind(t *testing.T) {
	for _, s := range []Spec{
		{Kind: "token", Txs: 16, Dep: 0.5, Seed: 3},
		{Kind: "mixed", Txs: 16, Dep: 0.4, Seed: 3},
		{Kind: "sct", Txs: 16, Share: 0.5, Seed: 3},
		{Kind: "erc20", Txs: 16, Share: 0.6, Seed: 3},
		{Kind: "batch", Txs: 16, Seed: 3, Contract: "TetherUSD"},
		{Kind: "chain", Txs: 16, Seed: 3},
		{Kind: "hotspot", Txs: 16, Seed: 3},
		{Kind: "dupaddr", Txs: 16, Seed: 3},
	} {
		genesis, block, err := s.Generate()
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if len(block.Transactions) != 16 {
			t.Errorf("%s: %d transactions", s, len(block.Transactions))
		}
		if err := VerifyDAG(genesis, block); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
}

// TestCornerShapes pins the adversarial structure each corner promises.
func TestCornerShapes(t *testing.T) {
	n := 20
	chain := generate(t, Spec{Kind: "chain", Txs: n, Seed: 5})
	if got := chain.DAG.CriticalPathLen(); got != n {
		t.Errorf("pure chain critical path %d, want %d", got, n)
	}

	hot := generate(t, Spec{Kind: "hotspot", Txs: n, Seed: 5})
	for i, deps := range hot.DAG.Deps {
		if len(deps) != 0 {
			t.Errorf("hotspot tx %d has dependencies %v, want none", i, deps)
		}
	}
	addr := hot.Transactions[0].To
	for i, tx := range hot.Transactions {
		if *tx.To != *addr {
			t.Errorf("hotspot tx %d targets %s, want the single contract %s", i, tx.To, addr)
		}
	}

	dup := generate(t, Spec{Kind: "dupaddr", Txs: n, Seed: 5})
	senders := make(map[types.Address]bool)
	for _, tx := range dup.Transactions {
		senders[tx.From] = true
	}
	if len(senders) > dupAddrPool {
		t.Errorf("dupaddr block uses %d senders, want at most %d", len(senders), dupAddrPool)
	}
	if r := dup.DAG.DependentRatio(); r < 0.9 {
		t.Errorf("dupaddr dependent ratio %.2f, want near-total conflicts", r)
	}
}

// TestSpecDropRenumbersNonces: dropping transactions out of the middle
// of dependency chains keeps the survivors valid (nonces renumbered per
// sender) and the DAG rebuilt for the smaller block.
func TestSpecDropRenumbersNonces(t *testing.T) {
	full := Spec{Kind: "dupaddr", Txs: 12, Seed: 9}
	dropped := full
	dropped.Drop = []int{1, 2, 7}
	genesis, block, err := dropped.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(block.Transactions); got != 9 {
		t.Fatalf("%d transactions after dropping 3 of 12", got)
	}
	nonces := make(map[types.Address]uint64)
	for i, tx := range block.Transactions {
		if tx.Nonce != nonces[tx.From] {
			t.Errorf("tx %d: nonce %d, want %d", i, tx.Nonce, nonces[tx.From])
		}
		nonces[tx.From]++
	}
	if err := VerifyDAG(genesis, block); err != nil {
		t.Errorf("dropped block DAG: %v", err)
	}
	// The chain corner survives mid-chain drops too.
	chain := Spec{Kind: "chain", Txs: 10, Seed: 9, Drop: []int{4}}
	if _, _, err := chain.Generate(); err != nil {
		t.Errorf("mid-chain drop: %v", err)
	}
}

// TestGeneratorDeterminismAcrossGoroutines: identically-seeded
// generators produce byte-identical blocks regardless of which goroutine
// runs them — the property the parallel sweeps and the differential
// harness lean on.
func TestGeneratorDeterminismAcrossGoroutines(t *testing.T) {
	specs := []Spec{
		{Kind: "token", Txs: 32, Dep: 0.6, Seed: 42},
		{Kind: "mixed", Txs: 32, Dep: 0.3, Seed: 42},
		{Kind: "dupaddr", Txs: 32, Seed: 42},
	}
	const workers = 8
	encoded := make([][][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, s := range specs {
				_, block, err := s.Generate()
				if err != nil {
					t.Errorf("worker %d: %s: %v", w, s, err)
					return
				}
				encoded[w] = append(encoded[w], block.EncodeRLP())
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if len(encoded[w]) != len(encoded[0]) {
			t.Fatalf("worker %d produced %d blocks, worker 0 %d", w, len(encoded[w]), len(encoded[0]))
		}
		for i := range encoded[w] {
			if !bytes.Equal(encoded[w][i], encoded[0][i]) {
				t.Errorf("worker %d: %s: block differs from worker 0", w, specs[i])
			}
		}
	}
}
