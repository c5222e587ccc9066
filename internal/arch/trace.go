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

// Collector implements evm.Tracer, accumulating a TxTrace per transaction.
type Collector struct {
	trace *TxTrace

	// syms interns addresses and storage keys as steps arrive; one table
	// spans every transaction the collector sees (one block), so dense
	// ids stay consistent across the whole replay.
	syms *SymbolTable

	// stepHint/loadHint carry the previous transaction's trace sizes as
	// capacity hints for the next one — blocks are dominated by runs of
	// similar transactions, so the per-step appends stop regrowing.
	stepHint int
	loadHint int
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{trace: &TxTrace{}, syms: NewSymbolTable()}
}

// Begin resets the collector for a new transaction.
func (c *Collector) Begin(tx *types.Transaction) {
	t := &TxTrace{}
	if c.stepHint > 0 {
		t.Steps = make([]evm.Step, 0, c.stepHint)
	}
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

// Finish returns the accumulated trace and resets.
func (c *Collector) Finish(gasUsed uint64) *TxTrace {
	t := c.trace
	t.GasUsed = gasUsed
	t.Syms = c.syms
	if len(t.Steps) > 0 {
		c.stepHint = len(t.Steps)
	}
	if len(t.CodeLoads) > 0 {
		c.loadHint = len(t.CodeLoads)
	}
	c.trace = &TxTrace{}
	return t
}

// OnEnter implements evm.Tracer.
func (c *Collector) OnEnter(depth int, codeAddr types.Address, codeLen, inputLen int) {
	c.trace.CodeLoads = append(c.trace.CodeLoads, CodeLoad{
		Addr:      codeAddr,
		CodeBytes: codeLen,
		InputLen:  inputLen,
		Depth:     depth,
		StepIndex: len(c.trace.Steps),
	})
}

// OnStep implements evm.Tracer.
func (c *Collector) OnStep(step *evm.Step) {
	c.trace.Steps = append(c.trace.Steps, *step)
	c.syms.Intern(&c.trace.Steps[len(c.trace.Steps)-1])
}

// OnExit implements evm.Tracer.
func (c *Collector) OnExit(depth int, err error) {}

var _ evm.Tracer = (*Collector)(nil)
