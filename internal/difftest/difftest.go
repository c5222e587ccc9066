// Package difftest is the cross-engine differential test harness: it
// generates workload specs (randomized sweeps plus adversarial corners),
// runs every registered execution engine on each one, and holds every
// result to the sequential oracle — digest and receipt identity from
// core.CollectTraces, schedule validity via core.VerifyResultAt, and the
// counter identities of obs.Report.CheckInvariants. Any divergence is
// delta-shrunk (drop transactions, lower the PU count, squeeze the
// window and account pool) to a minimal replayable Spec.
//
// The harness is wired three ways: the TestDiffGrid sweep over
// testdata/grid.json, the FuzzDiffEngines fuzz target seeded from
// testdata/corpus, and `mtpu-run -diff FILE` for replaying a saved spec.
package difftest

import (
	"bytes"
	"encoding/json"
	"fmt"

	"mtpu/internal/arch"
	"mtpu/internal/core"
	"mtpu/internal/engine"
	"mtpu/internal/mvstate"
	"mtpu/internal/obs"
	"mtpu/internal/types"
	"mtpu/internal/workload"
)

// Spec is one differential test case: a workload recipe plus the
// architectural dimensions the sweep varies. The zero value of every
// dimension means "the Table 5 default", so corpus files stay terse.
type Spec struct {
	// Workload is the recipe. A chained one (Blocks >= 1) is replayed
	// whole per engine over an mvstate store (each block against its
	// predecessor's post-state), every per-block chained digest checked
	// against one sequential whole-stream replay.
	Workload workload.Spec `json:"workload"`
	// PUs overrides arch.Config.NumPUs (0 = default).
	PUs int `json:"pus,omitempty"`
	// Window overrides the candidate window m (0 = default; engines that
	// never consult the window ignore it).
	Window int `json:"window,omitempty"`
	// DBLines overrides the DB-cache line capacity (0 = default,
	// -1 = unbounded).
	DBLines int `json:"db_lines,omitempty"`
	// MinLine overrides the smallest cacheable line (0 = default).
	MinLine int `json:"min_line,omitempty"`
	// HotspotTopN is how many hot contracts the Contract Table learns
	// before the replays (0 = 8, the CLI default).
	HotspotTopN int `json:"hotspot_top_n,omitempty"`
}

// Validate rejects specs outside the model's dimension ranges.
func (s Spec) Validate() error {
	if err := s.Workload.Validate(); err != nil {
		return err
	}
	if s.PUs < 0 {
		return fmt.Errorf("difftest: negative PU count %d", s.PUs)
	}
	if s.Window < 0 {
		return fmt.Errorf("difftest: negative candidate window %d", s.Window)
	}
	if s.DBLines < -1 {
		return fmt.Errorf("difftest: DB-cache capacity %d below -1 (unbounded)", s.DBLines)
	}
	if s.MinLine < 0 {
		return fmt.Errorf("difftest: negative min line %d", s.MinLine)
	}
	if s.HotspotTopN < 0 {
		return fmt.Errorf("difftest: negative hotspot top-n %d", s.HotspotTopN)
	}
	return nil
}

// Config materializes the architectural configuration the spec asks for.
func (s Spec) Config() arch.Config {
	cfg := arch.DefaultConfig()
	if s.PUs > 0 {
		cfg.NumPUs = s.PUs
	}
	if s.Window > 0 {
		cfg.CandidateWindow = s.Window
	}
	switch {
	case s.DBLines > 0:
		cfg.DBCacheEntries = s.DBLines
	case s.DBLines == -1:
		cfg.DBCacheEntries = 0 // the model's "unbounded" encoding
	}
	if s.MinLine > 0 {
		cfg.MinLineInstructions = s.MinLine
	}
	return cfg
}

func (s Spec) topN() int {
	if s.HotspotTopN > 0 {
		return s.HotspotTopN
	}
	return 8
}

// String renders the spec as its canonical single-line JSON.
func (s Spec) String() string {
	buf, err := json.Marshal(s)
	if err != nil {
		return fmt.Sprintf("difftest{%s}", s.Workload)
	}
	return string(buf)
}

// Failure is one engine's divergence from the sequential oracle on one
// spec.
type Failure struct {
	Spec   Spec
	Mode   engine.Mode
	Engine string
	Err    error
}

func (f Failure) Error() string {
	return fmt.Sprintf("difftest: engine %s diverged on %s: %v", f.Engine, f.Spec, f.Err)
}

// Harness runs specs through the registered engines. The zero value
// tests every engine with no result mutation.
type Harness struct {
	// Modes restricts the engines under test (nil = every registered
	// engine, in registration order).
	Modes []engine.Mode
	// Mutate, when non-nil, corrupts each result before verification —
	// the harness's own mutation testing uses it to prove a scheduler
	// bug cannot slip through (and to exercise the shrinker on demand).
	Mutate func(engine.Mode, *core.Result)
}

func (h *Harness) modes() []engine.Mode {
	if h.Modes != nil {
		return h.Modes
	}
	return engine.Modes()
}

// Run generates the spec's workload and runs every engine under test on
// it, returning one Failure per diverging engine. The error return is
// for the spec itself being unrunnable (invalid spec, generator or
// sequential-oracle failure) — that is a harness problem, not an engine
// divergence, and the shrinker treats it as "not failing".
func (h *Harness) Run(spec Spec) ([]Failure, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Workload.Blocks > 0 {
		return h.runChained(spec)
	}
	genesis, block, err := spec.Workload.Generate()
	if err != nil {
		return nil, err
	}
	// The consensus DAG is every engine's input contract: check it against
	// the conflicts a sequential replay actually observes before blaming
	// any engine for what would be a generator bug.
	if err := workload.VerifyDAG(genesis, block); err != nil {
		return nil, fmt.Errorf("difftest: workload DAG: %w", err)
	}
	traces, receipts, digest, err := core.CollectTraces(genesis, block)
	if err != nil {
		return nil, fmt.Errorf("difftest: sequential oracle: %w", err)
	}

	acc := core.New(spec.Config())
	acc.LearnHotspots(traces, spec.topN())

	var failures []Failure
	head := mvstate.NewStore(genesis, nil).Head()
	for _, m := range h.modes() {
		if err := h.runMode(acc, head, block, traces, receipts, digest, m); err != nil {
			failures = append(failures, Failure{Spec: spec, Mode: m, Engine: m.String(), Err: err})
		}
	}
	return failures, nil
}

// runChained runs a multi-block chained spec: one sequential replay of
// the whole stream over an evolving state is the oracle; then every
// engine under test replays the chain block by block over a shared
// mvstate store, each block decoded at and verified against its
// predecessor's post-state. The per-block chained digest must be
// byte-identical to the sequential whole-stream replay's digest at the
// same height, and the final folded head must equal the sequential
// end state — the digest-continuity property of the state layer.
func (h *Harness) runChained(spec Spec) ([]Failure, error) {
	src, err := spec.Workload.OpenSource()
	if err != nil {
		return nil, err
	}
	genesis := src.Genesis()
	var blocks []*types.Block
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		blocks = append(blocks, b)
	}

	// The whole-stream sequential oracle: one evolving state, one digest
	// per block boundary.
	seq := genesis.Copy()
	seqDigests := make([]types.Hash, len(blocks))
	for i, b := range blocks {
		_, _, d, err := core.CollectTracesOn(seq, b)
		if err != nil {
			return nil, fmt.Errorf("difftest: sequential oracle at block %d: %w", i, err)
		}
		seqDigests[i] = d
	}

	accs := make(map[engine.Mode]*core.Accelerator, len(h.modes()))
	for _, m := range h.modes() {
		accs[m] = core.New(spec.Config())
	}
	var failures []Failure
	store := mvstate.NewStore(genesis, nil)
	for i, block := range blocks {
		head := store.Head()
		prep, err := core.PrepareBlock(head, block)
		if err != nil {
			return nil, fmt.Errorf("difftest: chained decode of block %d: %w", i, err)
		}
		digest := prep.DigestAt(head, block.Header.Coinbase)
		if digest != seqDigests[i] {
			return nil, fmt.Errorf("difftest: chained digest %s at block %d != whole-stream sequential %s",
				digest, i, seqDigests[i])
		}
		for _, m := range h.modes() {
			if err := h.runMode(accs[m], head, block, prep.Traces, prep.Receipts, digest, m); err != nil {
				failures = append(failures, Failure{Spec: spec, Mode: m, Engine: m.String(),
					Err: fmt.Errorf("block %d: %w", i, err)})
			}
			accs[m].LearnHotspots(prep.Traces, spec.topN())
		}
		store.Commit(prep.WriteKeys, prep.WriteVals, block.Header.Coinbase, &prep.Fees)
	}
	if got := store.HeadDigest(); got != seqDigests[len(blocks)-1] {
		return nil, fmt.Errorf("difftest: folded head digest %s != whole-stream sequential end state %s",
			got, seqDigests[len(blocks)-1])
	}
	return failures, nil
}

// OracleCheckAt holds one engine result to the sequential oracle: state
// digest and per-receipt identity with the golden sequential execution,
// then the engine's declared serializability verification (DAG-order
// replay or conflict cross-check) via core.VerifyResultAt. It is the
// re-execution check the harness applies to every grid/fuzz spec and
// the one the block-stream service's shadow validator samples. head is
// the pre-block state: a one-shot snapshot of genesis, or — the chained
// form — the head a block folded from, which the stream service pins
// and validates against instead of genesis.
func OracleCheckAt(head *mvstate.Snapshot, block *types.Block,
	receipts []*types.Receipt, digest types.Hash, res *core.Result) error {
	if res.StateDigest != digest {
		return fmt.Errorf("state digest %s != sequential %s", res.StateDigest, digest)
	}
	if len(res.Receipts) != len(receipts) {
		return fmt.Errorf("%d receipts, sequential produced %d", len(res.Receipts), len(receipts))
	}
	for i, r := range res.Receipts {
		want := receipts[i]
		if r.Status != want.Status || r.GasUsed != want.GasUsed ||
			!bytes.Equal(r.ReturnData, want.ReturnData) {
			return fmt.Errorf("receipt %d diverged: status %d/%d gas %d/%d",
				i, r.Status, want.Status, r.GasUsed, want.GasUsed)
		}
	}
	return core.VerifyResultAt(head, block, res)
}

// runMode replays one engine at the given pre-state and applies every
// oracle check. head is a one-shot snapshot of genesis or the chained
// head of a multi-block run; both read the same way.
func (h *Harness) runMode(acc *core.Accelerator, head *mvstate.Snapshot, block *types.Block,
	traces []*arch.TxTrace, receipts []*types.Receipt, digest types.Hash, m engine.Mode) error {
	res, err := acc.ReplayWith(block, traces, receipts, digest, m,
		core.ReplayOpts{Head: head, Obs: obs.NewCollector()})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if h.Mutate != nil {
		h.Mutate(m, res)
	}

	// Digest, receipt and schedule identity against the sequential oracle.
	if err := OracleCheckAt(head, block, receipts, digest, res); err != nil {
		return err
	}

	// Counter identities across the instrumentation layers.
	if res.Obs == nil {
		return fmt.Errorf("no instrumentation report collected")
	}
	if res.Obs.Makespan != res.Cycles {
		return fmt.Errorf("report makespan %d != result cycles %d", res.Obs.Makespan, res.Cycles)
	}
	if err := res.Obs.CheckInvariants(); err != nil {
		return err
	}
	return nil
}

// RunAll runs every spec and concatenates the failures; spec-level
// errors become failures attributed to no engine so a sweep never
// silently skips a spec.
func (h *Harness) RunAll(specs []Spec) []Failure {
	var out []Failure
	for _, s := range specs {
		fails, err := h.Run(s)
		if err != nil {
			out = append(out, Failure{Spec: s, Engine: "spec", Err: err})
			continue
		}
		out = append(out, fails...)
	}
	return out
}
