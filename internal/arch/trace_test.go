package arch

import (
	"testing"
	"unsafe"

	"mtpu/internal/evm"
	"mtpu/internal/types"
)

func TestCollectorLifecycle(t *testing.T) {
	c := NewCollector()
	to := types.HexToAddress("0x1111111111111111111111111111111111111111")
	tx := &types.Transaction{To: &to, Data: []byte{0xa9, 0x05, 0x9c, 0xbb, 0x01}}

	c.Begin(tx)
	c.OnEnter(1, to, 321, len(tx.Data))
	var none types.Address
	var noSlot types.Hash
	c.OnStep(&evm.Step{PC: 0, Op: evm.PUSH1, Depth: 1}, &to, &none, &noSlot)
	c.OnStep(&evm.Step{PC: 2, Op: evm.STOP, Depth: 1}, &to, &none, &noSlot)
	c.OnExit(1, nil)
	tr := c.Finish(2100)

	if tr.Contract != to {
		t.Fatalf("contract %s", tr.Contract)
	}
	if !tr.HasSelector || tr.Selector != [4]byte{0xa9, 0x05, 0x9c, 0xbb} {
		t.Fatalf("selector %x ok=%v", tr.Selector, tr.HasSelector)
	}
	if tr.IsTransfer {
		t.Fatal("SCT marked as transfer")
	}
	if tr.GasUsed != 2100 {
		t.Fatalf("gas %d", tr.GasUsed)
	}
	if len(tr.Steps) != 2 || tr.InstructionCount() != 2 {
		t.Fatalf("%d steps", len(tr.Steps))
	}
	if len(tr.CodeLoads) != 1 || tr.CodeLoads[0].CodeBytes != 321 ||
		tr.CodeLoads[0].StepIndex != 0 {
		t.Fatalf("code loads %+v", tr.CodeLoads)
	}

	// Finish resets: the next trace is clean.
	c.Begin(&types.Transaction{To: &to})
	tr2 := c.Finish(0)
	if len(tr2.Steps) != 0 || tr2.HasSelector {
		t.Fatalf("collector leaked state: %+v", tr2)
	}
	if !tr2.IsTransfer {
		t.Fatal("empty-data call with To should be a transfer")
	}
}

func TestCollectorCreationTx(t *testing.T) {
	c := NewCollector()
	c.Begin(&types.Transaction{To: nil, Data: []byte{1, 2, 3, 4, 5}})
	tr := c.Finish(0)
	if tr.HasSelector || tr.IsTransfer || !tr.Contract.IsZero() {
		t.Fatalf("creation misclassified: %+v", tr)
	}
}

func TestCollectorNilTx(t *testing.T) {
	c := NewCollector()
	c.Begin(nil)
	var none types.Address
	var noSlot types.Hash
	c.OnStep(&evm.Step{Op: evm.STOP}, &none, &none, &noSlot)
	tr := c.Finish(7)
	if len(tr.Steps) != 1 || tr.GasUsed != 7 {
		t.Fatalf("%+v", tr)
	}
}

func TestScalarVsDefaultConfigs(t *testing.T) {
	d := DefaultConfig()
	if !d.EnableDBCache || !d.EnableForwarding || !d.EnableFolding || !d.ReuseContext {
		t.Fatal("default config lacks optimizations")
	}
	if d.NumPUs != 4 || d.DBCacheEntries != 2048 {
		t.Fatalf("default sizing %+v", d)
	}
	s := ScalarConfig()
	if s.EnableDBCache || s.ReuseContext || s.NumPUs != 1 {
		t.Fatalf("scalar config %+v", s)
	}
	// Shared latency constants must agree so speedups isolate features.
	if s.MainMemLat != d.MainMemLat || s.TxSetupLat != d.TxSetupLat {
		t.Fatal("scalar and default configs disagree on latencies")
	}
}

// runSteps hands the collector n steps of code, numbered by pc from
// first, the way the interpreter does.
func runSteps(c *Collector, code types.Address, first, n int) {
	var none types.Address
	var noSlot types.Hash
	for i := 0; i < n; i++ {
		c.OnStep(&evm.Step{PC: uint64(first + i), Op: evm.PUSH1, Depth: 1}, &code, &none, &noSlot)
	}
}

// checkPCs requires tr's steps to be numbered first, first+1, ... and
// interned under code.
func checkPCs(t *testing.T, name string, tr *TxTrace, code types.Address, first, n int) {
	t.Helper()
	if len(tr.Steps) != n {
		t.Fatalf("%s: %d steps, want %d", name, len(tr.Steps), n)
	}
	for i := range tr.Steps {
		s := &tr.Steps[i]
		if s.PC != uint64(first+i) || tr.Syms.CodeAddr(s.CodeID) != code {
			t.Fatalf("%s: step %d is pc %d of %s, want pc %d of %s", name, i, s.PC, tr.Syms.CodeAddr(s.CodeID), first+i, code)
		}
	}
}

var slabCode = types.HexToAddress("0x5ab0000000000000000000000000000000000001")

// TestSlabTracesDoNotAlias: transactions share a slab chunk, but each
// trace's Steps is capped, so appending to one copies it rather than
// overwriting the next transaction's steps.
func TestSlabTracesDoNotAlias(t *testing.T) {
	c := NewCollector()
	var traces []*TxTrace
	for i := 0; i < 3; i++ {
		c.Begin(nil)
		runSteps(c, slabCode, 100*i, 5)
		traces = append(traces, c.Finish(0))
	}
	// The case needs neighbours in one chunk: trace 1 starts right after
	// trace 0's last step.
	end := uintptr(unsafe.Pointer(&traces[0].Steps[4])) + unsafe.Sizeof(evm.Step{})
	if end != uintptr(unsafe.Pointer(&traces[1].Steps[0])) {
		t.Fatal("consecutive traces do not share a slab chunk; the case is not exercised")
	}
	for i, tr := range traces[:2] {
		if cap(tr.Steps) != len(tr.Steps) {
			t.Fatalf("trace %d: steps have capacity %d past their length %d", i, cap(tr.Steps), len(tr.Steps))
		}
		_ = append(tr.Steps, evm.Step{PC: 999})
	}
	for i, tr := range traces[1:] {
		checkPCs(t, "next trace", tr, slabCode, 100*(i+1), 5)
	}
}

// TestSlabTransactionCrossesChunk: a transaction that outgrows its chunk
// moves to a fresh one, its steps stay contiguous, its code loads keep
// their step indexes, and the transaction before it is untouched.
func TestSlabTransactionCrossesChunk(t *testing.T) {
	c := NewCollector()
	inner := types.HexToAddress("0x5ab0000000000000000000000000000000000002")
	c.Begin(nil)
	runSteps(c, slabCode, 0, slabChunkSteps-10)
	first := c.Finish(0)

	c.Begin(nil)
	c.OnEnter(1, slabCode, 100, 4)
	runSteps(c, slabCode, 0, 5)
	c.OnEnter(2, inner, 50, 4)
	runSteps(c, inner, 5, 20) // crosses the chunk boundary after 5 more
	c.OnEnter(2, inner, 50, 4)
	runSteps(c, inner, 25, 3)
	second := c.Finish(0)

	checkPCs(t, "first", first, slabCode, 0, slabChunkSteps-10)
	if len(second.Steps) != 28 {
		t.Fatalf("second: %d steps, want 28", len(second.Steps))
	}
	for i := range second.Steps {
		if second.Steps[i].PC != uint64(i) {
			t.Fatalf("second: step %d is pc %d after the move", i, second.Steps[i].PC)
		}
	}
	for i, want := range []int{0, 5, 25} {
		if got := second.CodeLoads[i].StepIndex; got != want {
			t.Fatalf("code load %d starts at step %d, want %d", i, got, want)
		}
	}
	if cl := second.CodeLoads[1]; second.Syms.CodeAddr(second.Steps[cl.StepIndex].CodeID) != cl.Addr {
		t.Fatal("the nested frame's first step is not its code's")
	}
}

// TestSlabEmptyAndLongTransactions: a plain transfer has no steps, and a
// transaction longer than a whole chunk is collected in full, with the
// transactions around it intact.
func TestSlabEmptyAndLongTransactions(t *testing.T) {
	c := NewCollector()
	to := types.HexToAddress("0x5ab0000000000000000000000000000000000003")
	c.Begin(&types.Transaction{To: &to})
	transfer := c.Finish(21000)
	if len(transfer.Steps) != 0 || !transfer.IsTransfer {
		t.Fatalf("transfer: %d steps, transfer=%v", len(transfer.Steps), transfer.IsTransfer)
	}

	c.Begin(nil)
	runSteps(c, slabCode, 0, 7)
	before := c.Finish(0)
	long := 3*slabChunkSteps + 7
	c.Begin(nil)
	runSteps(c, slabCode, 0, long)
	longTr := c.Finish(0)
	c.Begin(&types.Transaction{To: &to})
	after := c.Finish(21000)
	c.Begin(nil)
	runSteps(c, slabCode, 50, 4)
	last := c.Finish(0)

	checkPCs(t, "before", before, slabCode, 0, 7)
	checkPCs(t, "long", longTr, slabCode, 0, long)
	checkPCs(t, "last", last, slabCode, 50, 4)
	if len(after.Steps) != 0 {
		t.Fatalf("transfer after the long transaction has %d steps", len(after.Steps))
	}
}

// TestStepSize pins the trace step at one cache line at most: every
// executed instruction of a block is one, so growing it is a deliberate
// choice, not a side effect of a new field.
func TestStepSize(t *testing.T) {
	if size := unsafe.Sizeof(evm.Step{}); size > 64 {
		t.Fatalf("evm.Step is %d bytes, over 64", size)
	}
}
