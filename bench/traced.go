package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mtpu/internal/arch"
	"mtpu/internal/arch/pu"
	"mtpu/internal/core"
	"mtpu/internal/difftest"
	"mtpu/internal/engine"
	"mtpu/internal/evm"
	"mtpu/internal/mvstate"
	"mtpu/internal/telemetry"
	"mtpu/internal/types"
)

// Span names: the exported call each span wraps. The first nine are the
// calls the service's three stages make for one block, in order; their
// sum is the serial cost of a block. The last three sit outside that
// accounting.
const (
	spanBlock    = "block"
	spanDecode   = "types.DecodeBlockRLP"
	spanHead     = "mvstate.Store.Head"
	spanPrepare  = "core.PrepareBlock"
	spanPlans    = "pu.PlainPlans"
	spanFillMemo = "pu.AttachFillMemo"
	spanDigest   = "core.Prepared.DigestAt"
	spanReplay   = "core.Accelerator.ReplayWith"
	spanLearn    = "core.Accelerator.LearnHotspots"
	spanCommit   = "mvstate.Store.Commit"

	spanApply  = "evm.ApplyTransaction[untraced]"
	spanScalar = "core.Accelerator.ReplayWith[scalar]"
	spanOracle = "difftest.OracleCheckAt"
)

// serialSpans are the in-wall spans, in call order.
var serialSpans = []string{spanDecode, spanHead, spanPrepare, spanPlans, spanFillMemo,
	spanDigest, spanReplay, spanLearn, spanCommit}

// span is one timed call: its name, its interval since the trace began,
// and the block span that caused it. Spans of one block share the block
// index as their identifier.
type span struct {
	name       string
	block      int
	parent     int // index of the block span; -1 for block spans
	start, end time.Duration
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, block, parent int) int {
	t.spans = append(t.spans, span{name: name, block: block, parent: parent, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].end = time.Since(t.t0)
	return t.spans[i].end - t.spans[i].start
}

// writeChrome writes the spans as Chrome trace-event JSON (load in
// chrome://tracing or Perfetto). Serial spans share one track, the
// outside-wall spans another.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		tid := 1
		if s.name == spanApply || s.name == spanScalar || s.name == spanOracle {
			tid = 2
		}
		events[i] = event{Name: s.name, Ph: "X", TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: tid, Args: map[string]int{"block": s.block, "id": i, "parent": s.parent}}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// tracedResult is the serial traced run's outcome.
type tracedResult struct {
	tr        *tracer
	attempted int
	failed    int
	digest    string
	perLayer  map[string]float64
	spanUS    map[string]float64 // per block, by span name
	serialUS  float64            // per block
	cycles    uint64             // Σ workload-engine makespans
	scalar    uint64             // Σ scalar-engine makespans
	txs       uint64

	verifyError error
}

// runTraced drives, serially on one goroutine, the same exported calls
// the service's prefetch, execute and commit stages make for the first
// k blocks, one span around each. The simulated numbers (cycles, cache
// and scheduler counters) come from here too: they depend on the inputs
// only, so measuring them serially loses nothing.
func runTraced(w workloadDef, mode engine.Mode, in *inputs, want types.Hash) *tracedResult {
	res := &tracedResult{tr: &tracer{t0: time.Now()}, attempted: w.k, perLayer: map[string]float64{}}
	if err := res.run(w, mode, in); err != nil {
		res.verifyError = fmt.Errorf("traced: %w", err)
		res.failed = w.k
		return res
	}
	if res.digest != want.String() {
		res.verifyError = fmt.Errorf("traced: head digest %s != sequential reference %s", res.digest, want)
		res.failed = w.k
	}
	return res
}

func (r *tracedResult) run(w workloadDef, mode engine.Mode, in *inputs) error {
	acfg := arch.DefaultConfig()
	acfg.NumPUs = servePUs
	acc, scalarAcc := core.New(acfg), core.New(acfg)
	tel := telemetry.New()
	store := mvstate.NewStore(in.genesis, tel)
	tr := r.tr

	var (
		instr, skipped, executed, hitInstr, issue uint64
		busy, capacity, scans                     uint64
		edges, baseReads, writeKeys               uint64
		incarnations, aborts                      uint64
		oracleChecks                              int
		wall                                      time.Duration
	)
	for i := 0; i < w.k; i++ {
		bs := tr.begin(spanBlock, i, -1)
		wallStart := time.Since(tr.t0)

		s := tr.begin(spanDecode, i, bs)
		block, err := types.DecodeBlockRLP(in.raws[i])
		tr.end(s)
		if err != nil {
			return err
		}
		coinbase := block.Header.Coinbase

		s = tr.begin(spanHead, i, bs)
		head := store.Head()
		tr.end(s)

		s = tr.begin(spanPrepare, i, bs)
		prep, err := core.PrepareBlock(head, block)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("block %d: %w", i, err)
		}

		s = tr.begin(spanPlans, i, bs)
		plans := pu.PlainPlans(prep.Traces)
		tr.end(s)

		s = tr.begin(spanFillMemo, i, bs)
		pu.AttachFillMemo(acc.Cfg, plans)
		tr.end(s)

		s = tr.begin(spanDigest, i, bs)
		digest := prep.DigestAt(head, coinbase)
		tr.end(s)

		s = tr.begin(spanReplay, i, bs)
		out, err := acc.ReplayWith(block, prep.Traces, prep.Receipts, digest, mode,
			core.ReplayOpts{Genesis: head.DB(), Head: head, Plans: plans, Tel: tel})
		tr.end(s)
		if err != nil {
			return fmt.Errorf("block %d: %w", i, err)
		}

		s = tr.begin(spanLearn, i, bs)
		acc.LearnHotspots(prep.Traces, serveHotspotTop)
		tr.end(s)
		wall += time.Since(tr.t0) - wallStart

		// Outside the serial wall, still against the pre-state: the same
		// block interpreted with no tracer, which splits interpretation
		// from trace, access-set and DAG collection; and the scalar PU,
		// the base of the simulated speed-up.
		s = tr.begin(spanApply, i, bs)
		err = applyUntraced(head, block)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("block %d untraced: %w", i, err)
		}
		s = tr.begin(spanScalar, i, bs)
		scalarOut, err := scalarAcc.ReplayWith(block, prep.Traces, prep.Receipts, digest, engine.ModeScalar,
			core.ReplayOpts{Genesis: head.DB(), Head: head, Plans: plans})
		tr.end(s)
		if err != nil {
			return fmt.Errorf("block %d scalar: %w", i, err)
		}

		// The shadow validator's sample, pinned as the commit stage pins it.
		var pin *mvstate.Snapshot
		if i%shadowStride == 0 {
			pin = store.Pin()
		}
		s = tr.begin(spanCommit, i, bs)
		store.Commit(prep.WriteKeys, prep.WriteVals, coinbase, &prep.Fees)
		wall += tr.end(s)
		if pin != nil {
			s = tr.begin(spanOracle, i, bs)
			err = difftest.OracleCheckAt(pin, block, prep.Receipts, digest, out)
			tr.end(s)
			pin.Close()
			if err != nil {
				return fmt.Errorf("block %d oracle: %w", i, err)
			}
			oracleChecks++
		}
		tr.end(bs)

		r.cycles += out.Cycles
		r.scalar += scalarOut.Cycles
		r.txs += uint64(len(block.Transactions))
		for _, t := range prep.Traces {
			instr += uint64(t.InstructionCount())
		}
		executed += out.Instructions
		skipped += uint64(out.SkippedInstructions)
		hitInstr += out.Pipeline.HitInstructions
		issue += out.Pipeline.IssueCycles
		for _, b := range out.Sched.BusyCycles {
			busy += b
		}
		capacity += out.Cycles * uint64(len(out.Sched.BusyCycles))
		scans += out.Sched.RefillScans
		for _, deps := range block.DAG.Deps {
			edges += uint64(len(deps))
		}
		baseReads += uint64(len(prep.BaseReads))
		writeKeys += uint64(len(prep.WriteKeys))
		if out.STM != nil {
			incarnations += uint64(out.STM.Incarnations)
			aborts += uint64(out.STM.Aborts)
		}
	}
	r.digest = store.HeadDigest().String()

	blocks := float64(w.k)
	total := map[string]time.Duration{}
	for _, s := range tr.spans {
		total[s.name] += s.end - s.start
	}
	r.spanUS = map[string]float64{}
	var covered time.Duration
	for _, name := range serialSpans {
		r.spanUS[name] = float64(total[name]) / 1e3 / blocks
		covered += total[name]
	}
	r.serialUS = float64(wall) / 1e3 / blocks

	snap := tel.Snapshot()
	txs := float64(r.txs)
	p := r.perLayer
	p["types.rlp_decode_us_per_block"] = r.spanUS[spanDecode]
	p["evm.apply_us_per_block"] = float64(total[spanApply]) / 1e3 / blocks
	p["evm.instructions_per_tx"] = float64(instr) / txs
	p["core.prepare_us_per_block"] = r.spanUS[spanPrepare]
	p["core.dag_edges_per_tx"] = float64(edges) / txs
	p["mvstate.base_reads_per_block"] = float64(baseReads) / blocks
	p["mvstate.write_keys_per_block"] = float64(writeKeys) / blocks
	p["pu.plans_us_per_block"] = r.spanUS[spanPlans]
	p["pu.fillmemo_us_per_block"] = r.spanUS[spanFillMemo]
	p["mvstate.digest_us_per_block"] = r.spanUS[spanDigest]
	p["state.accounts"] = float64(store.HeadDB().AccountCount())
	p["engine.replay_us_per_block"] = r.spanUS[spanReplay]
	p["engine.replay_scalar_us_per_block"] = float64(total[spanScalar]) / 1e3 / blocks
	p["pipeline.db_hit_ratio"] = ratio(hitInstr, executed)
	p["pipeline.ipc"] = ratio(executed, issue)
	p["mtpu.pu_utilization"] = ratio(busy, capacity)
	p["mtpu.sbuf_hit_ratio"] = ratio(snap.SBufHits, snap.SBufHits+snap.SBufMisses)
	p["sched.refill_scans_per_tx"] = float64(scans) / txs
	p["stm.incarnations_per_tx"] = float64(incarnations) / txs
	p["stm.abort_rate"] = ratio(aborts, incarnations)
	p["hotspot.learn_us_per_block"] = r.spanUS[spanLearn]
	p["hotspot.skipped_instr_ratio"] = ratio(skipped, executed+skipped)
	p["mvstate.commit_us_per_block"] = r.spanUS[spanCommit]
	p["mvstate.max_chain_len"] = float64(snap.MVState.MaxChainLen)
	p["mvstate.versions_gcd_ratio"] = ratio(snap.MVState.VersionsGCd, snap.MVState.VersionsFolded)
	if oracleChecks > 0 {
		p["difftest.oracle_us_per_check"] = float64(total[spanOracle]) / 1e3 / float64(oracleChecks)
	}
	p["trace.serial_us_per_block"] = r.serialUS
	p["trace.span_coverage"] = float64(covered) / float64(wall)
	return nil
}

// applyUntraced interprets the block as PrepareBlock does but with no
// tracer and no access-set recording: pure interpretation cost.
func applyUntraced(head *mvstate.Snapshot, block *types.Block) error {
	ov := mvstate.NewOverlay(head, block.Header.Coinbase)
	e := evm.New(evm.NewBlockContext(block.Header), ov)
	for i, tx := range block.Transactions {
		if _, err := evm.ApplyTransaction(e, tx, i); err != nil {
			return err
		}
	}
	return nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
