package evm

import (
	"mtpu/internal/types"
)

// Step describes one executed instruction. The architectural simulator
// replays streams of Steps through the MTPU pipeline model, so each Step
// carries what the timing model and the hotspot analyser read: the pc,
// operation, charged gas, memory footprint and branch outcome. The code
// address and the state a step touches are not stored: the tracer is
// handed them beside the step, and the Step names them by the dense ids
// of its block's symbol table (arch.SymbolTable), as the hardware names
// DB-cache lines and State Buffer entries by tag.
type Step struct {
	PC      uint64
	GasCost uint64

	// Memory footprint of the instruction: offset and bytes touched, for
	// copy/hash cost modelling and for the hotspot analyzer's abstract
	// memory tracking.
	MemOffset uint64
	MemBytes  uint64

	Depth int

	// CodeID and TouchID are dense interned ids assigned at trace-build
	// time by the per-block symbol table (arch.SymbolTable): CodeID names
	// the contract whose code is executing (the Call_Contract stack entry
	// DB-cache lines are tagged with), TouchID the state-buffer key this
	// step touches (the storage slot for SLOAD/SSTORE, the account for
	// state queries). Both are 1-based; the interpreter leaves them 0 and
	// the timing model only replays steps the symbol table has interned.
	CodeID  uint32
	TouchID uint32

	Op Opcode
	// BranchTaken is the outcome of a JUMP/JUMPI.
	BranchTaken bool
}

// Tracer observes execution. Implementations must not retain the Step
// pointer, nor the address and slot pointers OnStep is handed, past the
// call.
type Tracer interface {
	// OnEnter fires when a new call frame begins executing code.
	// codeLen is the size of the loaded contract bytecode — the dominant
	// part of the execution context (Table 2).
	OnEnter(depth int, codeAddr types.Address, codeLen int, inputLen int)
	// OnStep fires before each instruction, after gas has been charged.
	// codeAddr is the contract whose code executes the step. touchAddr
	// is the state target of a storage access (with its touchSlot), a
	// state query or a call; both are zero for every other step.
	OnStep(step *Step, codeAddr, touchAddr *types.Address, touchSlot *types.Hash)
	// OnExit fires when the frame finishes (err nil for normal return).
	OnExit(depth int, err error)
}

// NopTracer is a Tracer that records nothing.
type NopTracer struct{}

// OnEnter implements Tracer.
func (NopTracer) OnEnter(int, types.Address, int, int) {}

// OnStep implements Tracer.
func (NopTracer) OnStep(*Step, *types.Address, *types.Address, *types.Hash) {}

// OnExit implements Tracer.
func (NopTracer) OnExit(int, error) {}
