package arch

import (
	"mtpu/internal/evm"
	"mtpu/internal/types"
)

// CodeLoad records one contract-context construction: entering a call
// frame loads the callee bytecode into the Call_Contract stack. Bytecode
// dominates the loaded context (Table 2), so it is the unit the
// redundancy and hotspot optimizations act on.
type CodeLoad struct {
	Addr      types.Address
	CodeBytes int
	InputLen  int
	Depth     int
	// StepIndex is the position in Steps where the frame began.
	StepIndex int
}

// TxTrace is the full dynamic record of one executed transaction,
// sufficient for the timing model to replay it cycle by cycle.
type TxTrace struct {
	// Contract is the top-level callee (zero for plain transfers).
	Contract types.Address
	// Selector is the entry-function identifier (ok=false for transfers).
	Selector    [4]byte
	HasSelector bool

	// Steps is a capped window of the collecting block's step slab:
	// appending to it copies, never writes into a neighbour's steps.
	Steps     []evm.Step
	CodeLoads []CodeLoad
	GasUsed   uint64

	// Plain value transfers have no Steps but still cost setup time.
	IsTransfer bool

	// Syms is the block-scoped symbol table that assigned the dense
	// CodeID/TouchID fields of Steps; every trace of one collected block
	// shares the same table. The timing model replays interned steps
	// only, so a trace built outside a Collector interns its steps
	// through a SymbolTable too.
	Syms *SymbolTable
}

// InstructionCount returns the number of executed instructions.
func (t *TxTrace) InstructionCount() int { return len(t.Steps) }

// slabChunkSteps is the size of one chunk of a Collector's step slab.
// A chunk is one allocation shared by many transactions' steps; larger
// chunks cut the allocation count but leave more of the last one unused.
const slabChunkSteps = 4096

// Collector implements evm.Tracer, accumulating a TxTrace per transaction.
type Collector struct {
	trace *TxTrace

	// syms interns addresses and storage keys as steps arrive; one table
	// spans every transaction the collector sees (one block), so dense
	// ids stay consistent across the whole replay.
	syms *SymbolTable

	// slab is the current chunk of the block's step slab: every step is
	// appended here, and the running transaction's steps are
	// slab[start:]. Finish hands them out as a capped window; a
	// transaction that outgrows the chunk moves to a fresh one.
	slab  []evm.Step
	start int

	// loadHint carries the previous transaction's code-load count as the
	// capacity hint for the next one — blocks are dominated by runs of
	// similar transactions, so the per-frame appends stop regrowing.
	loadHint int
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{syms: NewSymbolTable()}
}

// Begin starts the trace of a new transaction; every transaction's
// execution is bracketed by Begin and Finish.
func (c *Collector) Begin(tx *types.Transaction) {
	t := &TxTrace{}
	c.start = len(c.slab)
	if c.loadHint > 0 {
		t.CodeLoads = make([]CodeLoad, 0, c.loadHint)
	}
	if tx != nil {
		if tx.To != nil {
			t.Contract = *tx.To
		}
		if sel, ok := tx.Selector(); ok {
			t.Selector = sel
			t.HasSelector = true
		}
		t.IsTransfer = tx.To != nil && len(tx.Data) == 0
	}
	c.trace = t
}

// Finish returns the accumulated trace.
func (c *Collector) Finish(gasUsed uint64) *TxTrace {
	t := c.trace
	t.GasUsed = gasUsed
	t.Syms = c.syms
	t.Steps = c.slab[c.start:len(c.slab):len(c.slab)]
	c.start = len(c.slab)
	if len(t.CodeLoads) > 0 {
		c.loadHint = len(t.CodeLoads)
	}
	c.trace = nil
	return t
}

// OnEnter implements evm.Tracer.
func (c *Collector) OnEnter(depth int, codeAddr types.Address, codeLen, inputLen int) {
	c.trace.CodeLoads = append(c.trace.CodeLoads, CodeLoad{
		Addr:      codeAddr,
		CodeBytes: codeLen,
		InputLen:  inputLen,
		Depth:     depth,
		StepIndex: len(c.slab) - c.start,
	})
}

// OnStep implements evm.Tracer: the step is appended to the slab and
// interned there; the addresses are interned and never stored.
func (c *Collector) OnStep(step *evm.Step, codeAddr, touchAddr *types.Address, touchSlot *types.Hash) {
	n := len(c.slab)
	if n == cap(c.slab) {
		c.newChunk()
		n = len(c.slab)
	}
	c.slab = c.slab[:n+1]
	s := &c.slab[n]
	*s = *step
	c.syms.Intern(s, codeAddr, touchAddr, touchSlot)
}

// newChunk starts a fresh slab chunk and moves the running
// transaction's steps into it, so they stay contiguous. A transaction
// longer than a chunk gets a chunk twice its length.
func (c *Collector) newChunk() {
	partial := c.slab[c.start:]
	chunk := make([]evm.Step, len(partial), max(slabChunkSteps, 2*len(partial)))
	copy(chunk, partial)
	c.slab, c.start = chunk, 0
}

// OnExit implements evm.Tracer.
func (c *Collector) OnExit(depth int, err error) {}

var _ evm.Tracer = (*Collector)(nil)
