package evm

import (
	"mtpu/internal/types"
)

// Step describes one executed instruction. The architectural simulator
// replays streams of Steps through the MTPU pipeline model, so each Step
// carries exactly the information the hardware would see: address,
// operation, charged gas, and the externally visible accesses.
type Step struct {
	PC      uint64
	Op      Opcode
	GasCost uint64
	Depth   int
	// CodeAddr is the contract whose code is executing (the Call_Contract
	// stack entry); DB-cache lines are tagged with it.
	CodeAddr types.Address

	// StackLen is the stack depth before the instruction executes.
	StackLen int

	// Storage/state-query target (SLOAD, SSTORE, BALANCE, EXTCODE*).
	TouchAddr types.Address
	TouchSlot types.Hash
	// SstoreSet marks an SSTORE that wrote a fresh (zero → non-zero) slot.
	SstoreSet bool

	// Memory footprint of the instruction: offset and bytes touched, for
	// copy/hash cost modelling and for the hotspot analyzer's abstract
	// memory tracking.
	MemOffset uint64
	MemBytes  uint64

	// Branch outcome for JUMP/JUMPI.
	JumpTarget  uint64
	BranchTaken bool

	// CodeID and TouchID are dense interned ids assigned at trace-build
	// time by the per-block symbol table (arch.SymbolTable): CodeID names
	// CodeAddr, TouchID names the state-buffer key this step touches (the
	// storage slot for SLOAD/SSTORE, the account for state queries). Both
	// are 1-based; the interpreter leaves them 0 and the timing model
	// only replays steps the symbol table has interned.
	CodeID  uint32
	TouchID uint32
}

// Tracer observes execution. Implementations must not retain the Step
// pointer past the call.
type Tracer interface {
	// OnEnter fires when a new call frame begins executing code.
	// codeLen is the size of the loaded contract bytecode — the dominant
	// part of the execution context (Table 2).
	OnEnter(depth int, codeAddr types.Address, codeLen int, inputLen int)
	// OnStep fires before each instruction, after gas has been charged.
	OnStep(step *Step)
	// OnExit fires when the frame finishes (err nil for normal return).
	OnExit(depth int, err error)
}

// NopTracer is a Tracer that records nothing.
type NopTracer struct{}

// OnEnter implements Tracer.
func (NopTracer) OnEnter(int, types.Address, int, int) {}

// OnStep implements Tracer.
func (NopTracer) OnStep(*Step) {}

// OnExit implements Tracer.
func (NopTracer) OnExit(int, error) {}
