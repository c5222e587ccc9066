package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"mtpu/internal/contracts"
	"mtpu/internal/state"
	"mtpu/internal/types"
)

// Spec is the one serializable workload recipe: a single synthetic
// block (every generator knob the evaluation sweeps plus the adversarial
// corner shapes) or a chained block stream (the token chain and the
// Zipfian scenarios), so a workload can be saved, replayed and
// delta-shrunk byte-identically. The differential test harness
// (internal/difftest) stores Specs as its corpus format, mtpu-run -diff
// replays them and mtpu-serve -source streams them.
//
// Blocks == 0 means one self-contained block executing against genesis
// (Generate). Blocks >= 1 means a chain (OpenSource): account nonces,
// balances and resource cursors carry over from block to block, so
// block N+1 is only valid against the state block N left behind — the
// validator-node scenario the service's multi-version state layer
// serves. Only "token" and the Scenarios chain.
type Spec struct {
	// Kind selects the generator: "token", "mixed", "sct", "erc20",
	// "batch", one of the adversarial corners — "chain" (one pure
	// dependency chain), "hotspot" (every transaction invokes a single
	// contract) and "dupaddr" (a tiny sender/recipient pool, so addresses
	// repeat and nonce order chains transactions together) — or one of
	// the Scenarios.
	Kind string `json:"kind"`
	// Blocks is the chain length; 0 means a single block.
	Blocks int `json:"blocks,omitempty"`
	// Txs is the per-block transaction count before drops.
	Txs int `json:"txs"`
	// Dep is the target dependent-transaction ratio ("token"/"mixed").
	Dep float64 `json:"dep,omitempty"`
	// Share is the SCT or ERC-20 share ("sct"/"erc20").
	Share float64 `json:"share,omitempty"`
	// Skew is the Zipf s-parameter of a scenario's account/contract
	// popularity: 0 is uniform, ~1 matches mainnet account skew, larger
	// values concentrate traffic on ever-fewer hot entities.
	Skew float64 `json:"skew,omitempty"`
	// Seed drives the generator's deterministic randomness.
	Seed int64 `json:"seed"`
	// Accounts sizes the funded account pool; 0 means 4×Txs+64 (the CLI
	// default). Shrinking lowers it to squeeze the address space.
	Accounts int `json:"accounts,omitempty"`
	// Contract names the single contract of a "batch" block.
	Contract string `json:"contract,omitempty"`
	// Drop lists transaction indices (into the originally generated
	// sequence) removed from a single block. Per-sender nonces are
	// renumbered after the drop, so the surviving transactions stay
	// valid. This is the delta-shrinker's unit of reduction.
	Drop []int `json:"drop,omitempty"`
}

// SpecKinds lists every single-block Spec.Kind, corners last. The
// chained kinds are "token" and the Scenarios.
var SpecKinds = []string{"token", "mixed", "sct", "erc20", "batch", "chain", "hotspot", "dupaddr"}

// minPool is the smallest account pool a kind's generator can draw
// from: mixed/erc20 blocks and Ballot batches take voters from the back
// half of the pool, and the airdrop and oracle scenarios assign their
// fixed distributor and poster roles from its tail.
var minPool = map[string]int{
	"mixed": 2, "erc20": 2, "batch": 2,
	"airdrop": airdropDistributors, "oracle": oraclePosters,
}

// batchContracts is the set of contract names a "batch" spec may name.
var batchContracts = sync.OnceValue(func() map[string]bool {
	names := map[string]bool{}
	for _, c := range contracts.All() {
		names[c.Name] = true
	}
	return names
})

func (s Spec) isScenario() bool { return slices.Contains(Scenarios, s.Kind) }

// Validate rejects specs no generator can honour, and knobs the kind's
// generator would silently ignore.
func (s Spec) Validate() error {
	scenario := s.isScenario()
	if !scenario && !slices.Contains(SpecKinds, s.Kind) {
		return fmt.Errorf("workload: unknown spec kind %q (valid: %s, %s)", s.Kind,
			strings.Join(SpecKinds, ", "), strings.Join(Scenarios, ", "))
	}
	switch {
	case s.Blocks < 0:
		return fmt.Errorf("workload: negative block count %d", s.Blocks)
	case scenario && s.Blocks == 0:
		return fmt.Errorf("workload: scenario %q needs at least one block", s.Kind)
	case s.Blocks > 0 && !scenario && s.Kind != "token":
		return fmt.Errorf("workload: %q is a single-block kind; only token and the scenarios chain", s.Kind)
	}
	if s.Txs < 1 {
		return fmt.Errorf("workload: spec needs at least one transaction per block, got %d", s.Txs)
	}
	if err := checkKnob(s.Kind, "dep", s.Dep, 1, s.Kind == "token" || s.Kind == "mixed"); err != nil {
		return err
	}
	if err := checkKnob(s.Kind, "share", s.Share, 1, s.Kind == "sct" || s.Kind == "erc20"); err != nil {
		return err
	}
	if err := checkKnob(s.Kind, "skew", s.Skew, 8, scenario); err != nil {
		return err
	}
	switch {
	case s.Kind == "batch" && !batchContracts()[s.Contract]:
		return fmt.Errorf("workload: batch spec needs a known contract, got %q", s.Contract)
	case s.Kind != "batch" && s.Contract != "":
		return fmt.Errorf("workload: kind %q does not read a contract", s.Kind)
	}
	if s.Accounts < 0 {
		return fmt.Errorf("workload: negative account pool %d", s.Accounts)
	}
	if s.AccountPool() < minPool[s.Kind] {
		return fmt.Errorf("workload: kind %q needs at least %d accounts, got %d", s.Kind, minPool[s.Kind], s.AccountPool())
	}
	if s.Blocks > 0 && len(s.Drop) > 0 {
		return fmt.Errorf("workload: a chain has no drop list")
	}
	seen := make(map[int]bool, len(s.Drop))
	for _, d := range s.Drop {
		if d < 0 || d >= s.Txs {
			return fmt.Errorf("workload: drop index %d outside the %d generated transactions", d, s.Txs)
		}
		if seen[d] {
			return fmt.Errorf("workload: duplicate drop index %d", d)
		}
		seen[d] = true
	}
	if len(s.Drop) >= s.Txs {
		return fmt.Errorf("workload: dropping all %d transactions", s.Txs)
	}
	return nil
}

// checkKnob bounds a ratio-like knob to [0, max] and rejects a non-zero
// value the kind does not read. Comparisons alone let NaN through: both
// bounds checks are false for it, and the flag shorthand reaches here
// via ParseFloat("NaN", 64).
func checkKnob(kind, name string, v, max float64, read bool) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > max {
		return fmt.Errorf("workload: %s %v outside [0,%g]", name, v, max)
	}
	if v != 0 && !read {
		return fmt.Errorf("workload: kind %q does not read %s", kind, name)
	}
	return nil
}

// AccountPool resolves the effective account-pool size.
func (s Spec) AccountPool() int {
	if s.Accounts > 0 {
		return s.Accounts
	}
	return 4*s.Txs + 64
}

// Generate materializes a single-block spec: a fresh generator, its
// genesis, and the block (drops applied, nonces renumbered, DAG built).
// The result is a pure function of the Spec — identical specs produce
// byte-identical blocks regardless of call order or goroutine.
func (s Spec) Generate() (*state.StateDB, *types.Block, error) {
	g, block, err := s.generate()
	if err != nil {
		return nil, nil, err
	}
	genesis := g.Genesis()
	if _, err := BuildDAG(genesis, block); err != nil {
		return nil, nil, err
	}
	return genesis, block, nil
}

// Block is Generate without the genesis and the DAG-building EVM pass,
// for callers that decode the block themselves against a genesis they
// already hold (a generator with the spec's seed and account pool).
func (s Spec) Block() (*types.Block, error) {
	_, block, err := s.generate()
	return block, err
}

// generate validates a single-block spec and runs its generator.
func (s Spec) generate() (*Generator, *types.Block, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	if s.Blocks > 0 {
		return nil, nil, fmt.Errorf("workload: %s is a chain; open it as a stream", s)
	}
	g := NewGenerator(s.Seed, s.AccountPool())
	var block *types.Block
	switch s.Kind {
	case "token":
		block = g.TokenBlock(s.Txs, s.Dep)
	case "mixed":
		block = g.MixedBlock(s.Txs, s.Dep)
	case "sct":
		block = g.SCTBlock(s.Txs, s.Share)
	case "erc20":
		block = g.ERC20Block(s.Txs, s.Share)
	case "batch":
		block = g.Batch(g.Contract(s.Contract), s.Txs)
	case "chain":
		block = g.PureChainBlock(s.Txs)
	case "hotspot":
		block = g.HotspotBlock(s.Txs)
	case "dupaddr":
		block = g.DuplicateAddressBlock(s.Txs)
	}
	if len(s.Drop) > 0 {
		applyDrop(block, s.Drop)
	}
	return g, block, nil
}

// applyDrop removes the dropped transactions and renumbers each sender's
// nonces in block order, keeping the survivors valid against genesis
// (all generated blocks start from nonce 0 for every sender).
func applyDrop(block *types.Block, drop []int) {
	dropped := make(map[int]bool, len(drop))
	for _, d := range drop {
		dropped[d] = true
	}
	kept := block.Transactions[:0]
	nonces := make(map[types.Address]uint64)
	for i, tx := range block.Transactions {
		if dropped[i] {
			continue
		}
		tx.Nonce = nonces[tx.From]
		nonces[tx.From]++
		kept = append(kept, tx)
	}
	block.Transactions = kept
	block.DAG = nil // stale after the drop; Generate rebuilds it
}

// ParseSpec decodes a Spec from either strict JSON of the struct
// (unknown fields rejected, so corpus files cannot silently carry
// typo'd knobs; no defaults) or the chain shorthand, then validates it.
// The shorthand spells a token chain — `blocks=500,txs=64,dep=0.3,seed=1`,
// defaults blocks 100, txs 64, dep 0.3, seed 1 — or, with a scenario
// key, a scenario chain — `scenario=dex,blocks=500,txs=64,skew=1.2,seed=1`,
// defaults blocks 100, txs 64, skew 1.0, seed 1. Both take accounts=N.
func ParseSpec(text string) (Spec, error) {
	text = strings.TrimSpace(text)
	if strings.HasPrefix(text, "{") {
		dec := json.NewDecoder(strings.NewReader(text))
		dec.DisallowUnknownFields()
		var s Spec
		if err := dec.Decode(&s); err != nil {
			return Spec{}, fmt.Errorf("workload: decoding spec: %w", err)
		}
		return s, s.Validate()
	}
	var fields [][2]string
	s := Spec{Kind: "token", Blocks: 100, Txs: 64, Dep: 0.3, Seed: 1}
	keys := []string{"blocks", "txs", "dep", "seed", "accounts"}
	for _, kv := range strings.Split(text, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Spec{}, fmt.Errorf("workload: spec field %q is not key=value", kv)
		}
		if key == "scenario" {
			if !slices.Contains(Scenarios, val) {
				return Spec{}, fmt.Errorf("workload: unknown scenario %q (valid: %s)", val, strings.Join(Scenarios, ", "))
			}
			s = Spec{Kind: val, Blocks: 100, Txs: 64, Skew: 1.0, Seed: 1}
			keys = []string{"scenario", "blocks", "txs", "skew", "seed", "accounts"}
		}
		fields = append(fields, [2]string{key, val})
	}
	for _, f := range fields {
		key, val := f[0], f[1]
		if !slices.Contains(keys, key) {
			return Spec{}, fmt.Errorf("workload: unknown %s spec key %q (valid: %s)", s.Kind, key, strings.Join(keys, ", "))
		}
		var err error
		switch key {
		case "blocks":
			s.Blocks, err = strconv.Atoi(val)
		case "txs":
			s.Txs, err = strconv.Atoi(val)
		case "dep":
			s.Dep, err = strconv.ParseFloat(val, 64)
		case "skew":
			s.Skew, err = strconv.ParseFloat(val, 64)
		case "seed":
			s.Seed, err = strconv.ParseInt(val, 10, 64)
		case "accounts":
			s.Accounts, err = strconv.Atoi(val)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("workload: spec %s=%q: %w", key, val, err)
		}
	}
	if s.Blocks < 1 {
		return Spec{}, fmt.Errorf("workload: a shorthand spec is a chain and needs at least one block, got %d", s.Blocks)
	}
	return s, s.Validate()
}

// SourceSpec and ParseSourceSpec are the names the block-stream
// benchmark (bench/) compiles against; the benchmark re-anchor (ROADMAP
// item 3) deletes them.
type SourceSpec = Spec

// ParseSourceSpec forwards to ParseSpec.
func ParseSourceSpec(text string) (SourceSpec, error) { return ParseSpec(text) }

// String renders the spec in a form ParseSpec reads back: the shorthand
// for a chain, canonical single-line JSON for a single block.
func (s Spec) String() string {
	var out string
	switch {
	case s.isScenario():
		out = fmt.Sprintf("scenario=%s,blocks=%d,txs=%d,skew=%g,seed=%d", s.Kind, s.Blocks, s.Txs, s.Skew, s.Seed)
	case s.Blocks > 0:
		out = fmt.Sprintf("blocks=%d,txs=%d,dep=%g,seed=%d", s.Blocks, s.Txs, s.Dep, s.Seed)
	default:
		buf, err := json.Marshal(s)
		if err != nil {
			return fmt.Sprintf("spec{%s/%d}", s.Kind, s.Txs)
		}
		return string(buf)
	}
	if s.Accounts > 0 {
		out += fmt.Sprintf(",accounts=%d", s.Accounts)
	}
	return out
}

// PureChainBlock builds the adversarial "one pure chain" corner: n token
// transfers forming a single dependency chain (each transaction spends
// the balance the previous one credited), so the DAG's critical path is
// the whole block and any parallel schedule degenerates to sequential.
func (g *Generator) PureChainBlock(n int) *types.Block {
	g.beginBlock()
	token := g.Contract("TetherUSD")
	from := g.freshAccount()
	txs := make([]*types.Transaction, 0, n)
	for i := 0; i < n; i++ {
		to := g.freshAccount()
		txs = append(txs, g.call(from, token, 0, "transfer", to, uint64(10)))
		from = to
	}
	return types.NewBlock(g.Header(), txs)
}

// HotspotBlock builds the single-contract-hotspot corner: every
// transaction invokes one contract (TetherUSD transfers from fresh
// senders). The transactions are pairwise independent, so the scheduler
// sees maximal parallelism while the redundancy/hotspot machinery sees a
// 100% skewed contract distribution.
func (g *Generator) HotspotBlock(n int) *types.Block {
	g.beginBlock()
	token := g.Contract("TetherUSD")
	txs := make([]*types.Transaction, 0, n)
	for i := 0; i < n; i++ {
		from, to := g.freshAccount(), g.freshAccount()
		txs = append(txs, g.call(from, token, 0, "transfer", to, uint64(10)))
	}
	return types.NewBlock(g.Header(), txs)
}

// dupAddrPool is the sender/recipient pool size of the duplicate-address
// corner: small enough that every block reuses each address many times.
const dupAddrPool = 3

// DuplicateAddressBlock builds the duplicate-address corner: a pool of
// only dupAddrPool senders and recipients, so the same address appears
// in many transactions — consecutive transactions of one sender chain
// through its nonce, and shared balance slots conflict across senders.
// The resulting DAG is dense and full of equal-priority ties, the shape
// most likely to expose nondeterministic tie-breaking.
func (g *Generator) DuplicateAddressBlock(n int) *types.Block {
	g.beginBlock()
	token := g.Contract("TetherUSD")
	pool := make([]types.Address, dupAddrPool)
	for i := range pool {
		pool[i] = g.freshAccount()
	}
	txs := make([]*types.Transaction, 0, n)
	for i := 0; i < n; i++ {
		from := pool[i%dupAddrPool]
		to := pool[(i+1+g.rng.Intn(dupAddrPool-1))%dupAddrPool]
		txs = append(txs, g.call(from, token, 0, "transfer", to, uint64(10)))
	}
	return types.NewBlock(g.Header(), txs)
}
