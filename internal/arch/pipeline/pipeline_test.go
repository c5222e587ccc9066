package pipeline

import (
	"testing"

	"mtpu/internal/arch"
	"mtpu/internal/evm"
	"mtpu/internal/types"
)

var codeA = types.HexToAddress("0xc0de000000000000000000000000000000000001")
var codeB = types.HexToAddress("0xc0de000000000000000000000000000000000002")

// step builds a trace step with sensible defaults.
func step(pc uint64, op evm.Opcode) evm.Step {
	return evm.Step{PC: pc, Op: op, Depth: 1, CodeID: idA, GasCost: op.ConstGas()}
}

// seq builds a straight-line step sequence from opcodes, assigning pcs
// with correct push widths.
func seq(ops ...evm.Opcode) []evm.Step {
	var out []evm.Step
	pc := uint64(0)
	for _, op := range ops {
		out = append(out, step(pc, op))
		pc += 1 + uint64(op.PushSize())
	}
	return out
}

func ilpConfig() arch.Config {
	cfg := arch.DefaultConfig()
	cfg.DBCacheEntries = 0
	return cfg
}

// syms interns every hand-built step of this file, the way a Collector
// interns a real trace; idA and idB name codeA and codeB.
var (
	syms     = arch.NewSymbolTable()
	idA, idB = syms.CodeID(codeA), syms.CodeID(codeB)
)

// run interns steps, each under the code address its CodeID names and
// touching the zero key, and replays them through p.
func run(p *Pipeline, steps []evm.Step, ann []Annotation, mem MemModel) uint64 {
	var none types.Address
	var noSlot types.Hash
	for i := range steps {
		code := syms.CodeAddr(steps[i].CodeID)
		syms.Intern(&steps[i], &code, &none, &noSlot)
	}
	return p.Execute(steps, ann, NewHotPlan(steps, ann), mem)
}

// runTwice executes the steps twice, returning second-pass stats.
func runTwice(cfg arch.Config, steps []evm.Step) Stats {
	p := New(cfg)
	run(p, steps, nil, FlatMem{Cfg: cfg})
	p.ResetStats()
	run(p, steps, nil, FlatMem{Cfg: cfg})
	return p.Stats()
}

func TestScalarOneInstructionPerCycle(t *testing.T) {
	cfg := arch.ScalarConfig()
	p := New(cfg)
	steps := seq(evm.PUSH1, evm.PUSH1, evm.ADD, evm.POP, evm.STOP)
	cycles := run(p, steps, nil, FlatMem{Cfg: cfg})
	if cycles != 5 {
		t.Fatalf("scalar cycles %d, want 5", cycles)
	}
	st := p.Stats()
	if st.Instructions != 5 || st.IssueCycles != 5 || st.LineHits != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLinePacksAcrossUnits(t *testing.T) {
	// CALLER (FixedAccess) + PUSH (Stack) + MSTORE folded: all one line.
	steps := seq(evm.CALLER, evm.PUSH1, evm.MSTORE, evm.STOP)
	st := runTwice(ilpConfig(), steps)
	if st.LineHits == 0 {
		t.Fatalf("no hits on second pass: %+v", st)
	}
	if st.IPC() <= 1.0 {
		t.Fatalf("no packing: IPC %.2f", st.IPC())
	}
}

func TestUnitConflictEndsLine(t *testing.T) {
	// Two MLOADs compete for the single Memory field.
	cfg := ilpConfig()
	cfg.EnableFolding = false
	cfg.EnableForwarding = true
	p := New(cfg)
	steps := []evm.Step{
		step(0, evm.MLOAD), step(1, evm.POP),
		step(2, evm.MLOAD), step(3, evm.POP),
		step(4, evm.STOP),
	}
	run(p, steps, nil, FlatMem{Cfg: cfg})
	p.ResetStats()
	run(p, steps, nil, FlatMem{Cfg: cfg})
	st := p.Stats()
	// At least two separate lines: a single 5-instruction line would mean
	// the Memory unit held two instructions.
	if st.LineHits < 2 {
		t.Fatalf("unit conflict not enforced: %+v", st)
	}
}

func TestSecondRAWEndsLineWithoutForwarding(t *testing.T) {
	// PUSH, PUSH, ADD: ADD reads two in-line values — one RAW absorbed by
	// forwarding, so with forwarding OFF the ADD cannot join the pushes'
	// line at all (and the two pushes conflict on the Stack unit anyway).
	cfg := ilpConfig()
	cfg.EnableFolding = false
	cfg.EnableForwarding = false
	steps := seq(evm.PUSH1, evm.CALLER, evm.ADD, evm.STOP)
	st := runTwice(cfg, steps)
	// PUSH(Stack) + CALLER(FixedAccess) fit one line; ADD has 2 in-line
	// RAWs → must start a new line.
	if st.LineHits < 2 {
		t.Fatalf("expected ≥2 lines, got %+v", st)
	}

	// A single-RAW case: CALLER feeding ISZERO can be absorbed by
	// forwarding (reconfigurable producer), packing both in one line.
	single := seq(evm.CALLER, evm.ISZERO, evm.STOP)
	cfgF := ilpConfig()
	cfgF.EnableFolding = false
	pf := New(cfgF)
	run(pf, single, nil, FlatMem{Cfg: cfgF})
	if pf.Stats().ForwardedRAWs == 0 { // forwarding happens at fill time
		t.Fatalf("forwarding never used: %+v", pf.Stats())
	}
	cfgNF := cfgF
	cfgNF.EnableForwarding = false
	stNoFwd := runTwice(cfgNF, single)
	stFwd := runTwice(cfgF, single)
	if stFwd.IPC() <= stNoFwd.IPC() {
		t.Fatalf("forwarding did not improve IPC: %.2f vs %.2f", stFwd.IPC(), stNoFwd.IPC())
	}
}

func TestFoldingCombinesPushConsumer(t *testing.T) {
	cfg := ilpConfig()
	p := New(cfg)
	// The paper's selector-compare pattern: PUSH4 id, EQ, PUSH2, JUMPI.
	steps := []evm.Step{
		step(0, evm.DUP1),
		step(1, evm.PUSH4),
		step(6, evm.EQ),
		step(7, evm.PUSH2),
		step(10, evm.JUMPI),
		step(11, evm.STOP),
	}
	run(p, steps, nil, FlatMem{Cfg: cfg})
	if p.Stats().FoldedPairs == 0 {
		t.Fatalf("PUSH4+EQ not folded: %+v", p.Stats())
	}
	p.ResetStats()
	run(p, steps, nil, FlatMem{Cfg: cfg})
	st := p.Stats()
	// Dispatcher line: DUP1 + folded(PUSH4,EQ) + PUSH2 + JUMPI = 5
	// instructions in ideally one line.
	if st.IPC() < 2.0 {
		t.Fatalf("dispatch IPC %.2f", st.IPC())
	}
}

func TestBranchEndsLine(t *testing.T) {
	cfg := ilpConfig()
	cfg.EnableFolding = false
	p := New(cfg)
	// JUMPDEST after JUMP must start a new line even though no conflict.
	steps := []evm.Step{
		step(0, evm.PUSH2),
		step(3, evm.JUMP),
		step(10, evm.JUMPDEST),
		step(11, evm.CALLER),
		step(12, evm.STOP),
	}
	run(p, steps, nil, FlatMem{Cfg: cfg})
	p.ResetStats()
	run(p, steps, nil, FlatMem{Cfg: cfg})
	st := p.Stats()
	if st.LineHits < 2 {
		t.Fatalf("branch did not end line: %+v", st)
	}
}

func TestSingleInstructionLinesNotCached(t *testing.T) {
	cfg := ilpConfig()
	cfg.EnableFolding = false
	cfg.EnableForwarding = false
	p := New(cfg)
	// Isolated instructions separated by line-enders: STOP-only runs.
	steps := []evm.Step{step(0, evm.JUMPDEST), step(1, evm.JUMP)}
	// JUMPDEST+JUMP: JUMP pops a pre-existing value (no in-line RAW) so
	// they can share a line; use a harder case: lone POPs after branches.
	steps = []evm.Step{
		step(0, evm.PUSH2), step(3, evm.JUMP), // line 1
		step(8, evm.JUMPDEST), // will line with next...
	}
	_ = steps
	// Direct check: a 1-instruction fill is not inserted.
	run(p, []evm.Step{step(0, evm.STOP)}, nil, FlatMem{Cfg: cfg})
	if p.CacheLines() != 0 {
		t.Fatalf("%d lines cached for single STOP", p.CacheLines())
	}
}

func TestGasInvariant(t *testing.T) {
	// Gas charged through the pipeline must equal the trace gas exactly,
	// whether issued scalar or via hit lines (the per-line G field).
	steps := seq(evm.PUSH1, evm.PUSH1, evm.ADD, evm.CALLER, evm.POP, evm.POP, evm.STOP)
	var want uint64
	for _, s := range steps {
		want += s.GasCost
	}
	for _, mode := range []string{"scalar", "ilp"} {
		cfg := arch.ScalarConfig()
		if mode == "ilp" {
			cfg = ilpConfig()
		}
		p := New(cfg)
		run(p, steps, nil, FlatMem{Cfg: cfg})
		run(p, steps, nil, FlatMem{Cfg: cfg})
		if got := p.Stats().GasCharged; got != 2*want {
			t.Errorf("%s: gas %d, want %d", mode, got, 2*want)
		}
	}
}

func TestCrossContractTagIsolation(t *testing.T) {
	cfg := ilpConfig()
	p := New(cfg)
	a := seq(evm.PUSH1, evm.CALLER, evm.ADD, evm.STOP)
	b := make([]evm.Step, len(a))
	copy(b, a)
	for i := range b {
		b[i].CodeID = idB
		b[i].Op = []evm.Opcode{evm.PUSH1, evm.ORIGIN, evm.SUB, evm.STOP}[i]
	}
	run(p, a, nil, FlatMem{Cfg: cfg})
	// Same pcs, different contract: must not hit contract A's lines (and
	// must not panic on divergence).
	p.ResetStats()
	run(p, b, nil, FlatMem{Cfg: cfg})
	if p.Stats().LineHits != 0 {
		t.Fatalf("cross-contract cache hit: %+v", p.Stats())
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := ilpConfig()
	cfg.DBCacheEntries = 2
	p := New(cfg)
	mk := func(pcBase uint64) []evm.Step {
		return []evm.Step{
			step(pcBase, evm.CALLER), step(pcBase+1, evm.PUSH1),
			step(pcBase+3, evm.MSTORE), step(pcBase+4, evm.JUMP),
		}
	}
	run(p, mk(0), nil, FlatMem{Cfg: cfg})   // line @0
	run(p, mk(100), nil, FlatMem{Cfg: cfg}) // line @100
	run(p, mk(200), nil, FlatMem{Cfg: cfg}) // line @200 evicts @0
	if p.CacheLines() != 2 {
		t.Fatalf("cache holds %d lines, cap 2", p.CacheLines())
	}
	p.ResetStats()
	run(p, mk(0), nil, FlatMem{Cfg: cfg}) // must miss (evicted)
	if p.Stats().LineHits != 0 {
		t.Fatalf("evicted line hit")
	}
	p.ResetStats()
	run(p, mk(0), nil, FlatMem{Cfg: cfg}) // refilled now
	if p.Stats().LineHits != 1 {
		t.Fatalf("refilled line missed: %+v", p.Stats())
	}
}

func TestFlushClearsCache(t *testing.T) {
	cfg := ilpConfig()
	p := New(cfg)
	steps := seq(evm.CALLER, evm.PUSH1, evm.MSTORE, evm.STOP)
	run(p, steps, nil, FlatMem{Cfg: cfg})
	if p.CacheLines() == 0 {
		t.Fatal("nothing cached")
	}
	p.Flush()
	if p.CacheLines() != 0 {
		t.Fatal("flush did not clear")
	}
}

func TestStorageLatencyDominatesStalls(t *testing.T) {
	cfg := arch.ScalarConfig()
	p := New(cfg)
	sloadStep := step(0, evm.SLOAD)
	stop := step(1, evm.STOP)
	cycles := run(p, []evm.Step{sloadStep, stop}, nil, FlatMem{Cfg: cfg})
	want := 2 + cfg.MainMemLat
	if cycles != want {
		t.Fatalf("SLOAD cycles %d, want %d", cycles, want)
	}
}

func TestPrefetchAnnotationReducesLatency(t *testing.T) {
	cfg := arch.ScalarConfig()
	p := New(cfg)
	steps := []evm.Step{step(0, evm.SLOAD), step(1, evm.STOP)}
	slow := run(p, steps, nil, FlatMem{Cfg: cfg})
	p2 := New(cfg)
	fast := run(p2, steps, []Annotation{{Prefetched: true}, {}}, FlatMem{Cfg: cfg})
	if fast >= slow {
		t.Fatalf("prefetch did not help: %d vs %d", fast, slow)
	}
	if fast != 2+cfg.DCacheLat {
		t.Fatalf("prefetched SLOAD cycles %d", fast)
	}
}

func TestConstOperandsRemoveRAW(t *testing.T) {
	// CALLER, ADD-with-const-operands: without the annotation the ADD has
	// an in-line RAW against CALLER; with ConstOperands it packs freely.
	cfg := ilpConfig()
	cfg.EnableForwarding = false
	cfg.EnableFolding = false
	steps := seq(evm.CALLER, evm.ADD, evm.STOP)
	ann := []Annotation{{}, {ConstOperands: true}, {}}

	p1 := New(cfg)
	run(p1, steps, nil, FlatMem{Cfg: cfg})
	p1.ResetStats()
	run(p1, steps, nil, FlatMem{Cfg: cfg})
	without := p1.Stats().IPC()

	p2 := New(cfg)
	run(p2, steps, ann, FlatMem{Cfg: cfg})
	p2.ResetStats()
	run(p2, steps, ann, FlatMem{Cfg: cfg})
	with := p2.Stats().IPC()

	if with <= without {
		t.Fatalf("const operands did not improve packing: %.2f vs %.2f", with, without)
	}
}

func TestHitRatioMonotoneInCacheSize(t *testing.T) {
	// Synthetic working set larger than the small cache.
	var steps []evm.Step
	for base := uint64(0); base < 4000; base += 40 {
		steps = append(steps,
			step(base, evm.CALLER), step(base+1, evm.PUSH1),
			step(base+3, evm.MSTORE), step(base+4, evm.JUMP))
	}
	// Repeat the whole set three times (reuse opportunity).
	all := append(append(append([]evm.Step{}, steps...), steps...), steps...)

	prev := -1.0
	for _, size := range []int{8, 32, 128, 0} {
		cfg := ilpConfig()
		cfg.DBCacheEntries = size
		p := New(cfg)
		run(p, all, nil, FlatMem{Cfg: cfg})
		hr := p.Stats().HitRatio()
		if hr < prev-0.01 {
			t.Fatalf("hit ratio fell from %.3f to %.3f at size %d", prev, hr, size)
		}
		prev = hr
	}
	if prev < 0.5 {
		t.Fatalf("unbounded cache hit ratio %.2f too low", prev)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Instructions: 1, Cycles: 2, IssueCycles: 1, LineHits: 3, GasCharged: 4}
	b := Stats{Instructions: 10, Cycles: 20, IssueCycles: 10, LineMisses: 5}
	a.Add(b)
	if a.Instructions != 11 || a.Cycles != 22 || a.LineHits != 3 || a.LineMisses != 5 {
		t.Fatalf("%+v", a)
	}
	if (Stats{}).IPC() != 0 || (Stats{}).HitRatio() != 0 || (Stats{}).EffectiveIPC() != 0 {
		t.Fatal("zero stats ratios")
	}
}

func TestFrameBoundaryEndsLine(t *testing.T) {
	cfg := ilpConfig()
	cfg.EnableFolding = false
	p := New(cfg)
	steps := []evm.Step{
		step(0, evm.PUSH1),
		{PC: 2, Op: evm.CALLER, Depth: 2, CodeID: idB}, // inner frame
		{PC: 3, Op: evm.STOP, Depth: 2, CodeID: idB},
	}
	run(p, steps, nil, FlatMem{Cfg: cfg})
	p.ResetStats()
	run(p, steps, nil, FlatMem{Cfg: cfg})
	// The PUSH at depth 1 cannot share a line with depth-2 instructions.
	for _, d := range []int{1, 2} {
		_ = d
	}
	if p.Stats().HitInstructions > 0 {
		// Any hits must cover only intra-frame lines; specifically the
		// depth-1 PUSH must remain a 1-instruction (uncached) line.
		if p.Stats().HitInstructions == 3 {
			t.Fatalf("line spanned frames: %+v", p.Stats())
		}
	}
}

func TestAvgLineSize(t *testing.T) {
	if (Stats{}).AvgLineSize() != 0 {
		t.Fatal("empty stats line size")
	}
	st := runTwice(ilpConfig(), seq(evm.CALLER, evm.PUSH1, evm.MSTORE, evm.STOP))
	if got := st.AvgLineSize(); got < 1.5 {
		t.Fatalf("avg line size %.2f", got)
	}
}

// TestRewrittenVariantFallsBackToMiss pins the divergence fix: the
// hotspot Contract Table rewrites hot traces (pre-executed and
// eliminated instructions are dropped), so planned and plain
// transactions of one contract can share a line's entry key with
// different downstream pc streams. A tag hit on the stale variant must
// degrade to an ordinary miss that refills the line — priced exactly
// like a cold miss, never mis-charged, never a panic.
func TestRewrittenVariantFallsBackToMiss(t *testing.T) {
	plain := []evm.Step{
		step(0, evm.PUSH1), step(2, evm.PUSH1), step(4, evm.ADD),
		step(5, evm.POP), step(6, evm.STOP),
	}
	// The rewritten variant enters at the same pc, but its interior
	// differs — as if the plan dropped pre-executed steps. Each pc still
	// maps to the same opcode (code is immutable).
	rewritten := []evm.Step{
		step(0, evm.PUSH1), step(4, evm.ADD), step(5, evm.POP),
		step(2, evm.PUSH1), step(6, evm.STOP),
	}
	cfg := ilpConfig()
	mem := FlatMem{Cfg: cfg}
	var gas uint64
	for i := range rewritten {
		gas += rewritten[i].GasCost
	}
	cold := New(cfg)
	coldCycles := run(cold, rewritten, nil, mem)

	p := New(cfg)
	run(p, plain, nil, mem)
	if p.CacheLines() == 0 {
		t.Fatal("plain variant cached nothing; the stale-tag case is not exercised")
	}

	p.ResetStats()
	stale := run(p, rewritten, nil, mem)
	st := p.Stats()
	if st.LineHits != 0 {
		t.Fatalf("stale variant served as a hit: %+v", st)
	}
	if st.GasCharged != gas {
		t.Fatalf("gas %d, want %d", st.GasCharged, gas)
	}
	if stale != coldCycles {
		t.Fatalf("stale-tag pass %d cycles, cold miss %d", stale, coldCycles)
	}
	if st.LinesCached != cold.Stats().LinesCached {
		t.Fatalf("stale-tag pass refilled %d lines, cold miss fills %d", st.LinesCached, cold.Stats().LinesCached)
	}

	p.ResetStats()
	run(p, rewritten, nil, mem)
	if st := p.Stats(); st.LineHits == 0 {
		t.Fatalf("refill did not replace the stale line: %+v", st)
	}
}

// TestStepGasAboveUint32 replays a step whose gas cost does not fit 32
// bits (a zero-gas-price transaction paying for a large memory
// expansion). Gas never shapes timing, so the stream must cost exactly
// the cycles of its cheap twin, on the miss pass and on the hit pass,
// and charge the exact 64-bit sum. wantCycles are what the full-step
// loop this entry replaced charged for the same stream.
func TestStepGasAboveUint32(t *testing.T) {
	const huge = 1<<33 + 6
	wantCycles := [2][2]uint64{{6, 6}, {6, 2}} // [scalar, ilp][miss pass, hit pass]
	for ci, cfg := range []arch.Config{arch.ScalarConfig(), ilpConfig()} {
		cheap := seq(evm.PUSH1, evm.PUSH4, evm.MSTORE, evm.CALLER, evm.POP, evm.STOP)
		big := append([]evm.Step(nil), cheap...)
		big[2].GasCost = huge
		var want uint64
		for i := range big {
			want += big[i].GasCost
		}
		mem := FlatMem{Cfg: cfg}
		pc, pb := New(cfg), New(cfg)
		for pass := 0; pass < 2; pass++ {
			pb.ResetStats()
			if c, b := run(pc, cheap, nil, mem), run(pb, big, nil, mem); c != b || b != wantCycles[ci][pass] {
				t.Fatalf("dbcache=%v pass %d: %d cycles, cheap twin %d, want %d", cfg.EnableDBCache, pass, b, c, wantCycles[ci][pass])
			}
			if got := pb.Stats().GasCharged; got != want {
				t.Fatalf("dbcache=%v pass %d: gas %d, want %d", cfg.EnableDBCache, pass, got, want)
			}
		}
	}
}

// TestCallDepthLimitFrame replays frames at the interpreter's deepest
// call depth: the depth only decides frame equality, so the stream must
// cost what its shallow twin costs, and the line boundary between the
// two frames must hold.
func TestCallDepthLimitFrame(t *testing.T) {
	cfg := ilpConfig()
	mk := func(outer int) []evm.Step {
		return []evm.Step{
			{PC: 0, Op: evm.PUSH1, Depth: outer, CodeID: idA},
			{PC: 0, Op: evm.CALLER, Depth: outer + 1, CodeID: idB},
			{PC: 1, Op: evm.PUSH1, Depth: outer + 1, CodeID: idB},
			{PC: 3, Op: evm.MSTORE, Depth: outer + 1, CodeID: idB},
			{PC: 4, Op: evm.STOP, Depth: outer + 1, CodeID: idB},
		}
	}
	mem := FlatMem{Cfg: cfg}
	shallow, deep := New(cfg), New(cfg)
	for pass := 0; pass < 2; pass++ {
		deep.ResetStats()
		if s, d := run(shallow, mk(1), nil, mem), run(deep, mk(evm.CallDepthLimit-1), nil, mem); s != d {
			t.Fatalf("pass %d: %d cycles at the depth limit, %d shallow", pass, d, s)
		}
	}
	if st := deep.Stats(); st.LineHits == 0 || st.HitInstructions == 5 {
		t.Fatalf("warm pass at the depth limit: %+v (want hits, none spanning the frames)", st)
	}
}

func TestSideTableRecordsSingles(t *testing.T) {
	cfg := ilpConfig()
	cfg.EnableFolding = false
	cfg.EnableForwarding = false
	p := New(cfg)
	// A lone STOP is a single-instruction fill: not cached, side-tabled.
	run(p, []evm.Step{step(0, evm.STOP)}, nil, FlatMem{Cfg: cfg})
	if p.CacheLines() != 0 {
		t.Fatal("single cached")
	}
	if p.SideTableLen() != 1 {
		t.Fatalf("side table %d", p.SideTableLen())
	}
	p.Flush()
	if p.SideTableLen() != 0 {
		t.Fatal("flush kept side table")
	}
}
