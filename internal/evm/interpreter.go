package evm

import (
	"mtpu/internal/keccak"
	"mtpu/internal/types"
	"mtpu/internal/uint256"
)

// StateDB is the world-state interface the interpreter executes against.
// *state.StateDB satisfies it.
type StateDB interface {
	GetBalance(types.Address) *uint256.Int
	AddBalance(types.Address, *uint256.Int)
	SubBalance(types.Address, *uint256.Int)

	GetNonce(types.Address) uint64
	SetNonce(types.Address, uint64)

	GetCode(types.Address) []byte
	GetCodeSize(types.Address) int
	GetCodeHash(types.Address) types.Hash
	SetCode(types.Address, []byte)

	GetState(types.Address, types.Hash) uint256.Int
	SetState(types.Address, types.Hash, uint256.Int)

	AddLog(*types.Log)
	TakeLogs() []*types.Log
	AddRefund(uint64)
	GetRefund() uint64
	ResetRefund()

	Snapshot() int
	RevertToSnapshot(int)
}

// BlockContext provides the per-block environment (Block Header of Table 4).
type BlockContext struct {
	Coinbase   types.Address
	Number     uint64
	Timestamp  uint64
	Difficulty uint64
	GasLimit   uint64
	// BlockHash resolves BLOCKHASH queries; nil yields zero hashes.
	BlockHash func(uint64) types.Hash
}

// TxContext provides the per-transaction environment.
type TxContext struct {
	Origin   types.Address
	GasPrice uint64
}

// CallDepthLimit is the maximum nesting of the Call_Contract stack (§3.3.6).
const CallDepthLimit = 1024

// MaxCodeSize bounds deployed contract code (EIP-170).
const MaxCodeSize = 24576

// EVM executes contract code against a StateDB. One EVM instance handles
// one transaction at a time; parallelism across transactions is the
// scheduler's job, with one EVM per processing unit.
type EVM struct {
	Block  BlockContext
	TxCtx  TxContext
	State  StateDB
	Tracer Tracer

	depth    int
	readOnly bool

	// cur is the instruction run hands the tracer. It lives on the EVM
	// rather than in run's frame, so the pointers OnStep receives
	// allocate nothing; run never reads it after OnStep, so a nested
	// frame may overwrite it.
	cur tracedStep
}

// tracedStep is a step and the addresses its ids will stand for.
type tracedStep struct {
	step                Step
	codeAddr, touchAddr types.Address
	touchSlot           types.Hash
}

// New returns an EVM bound to the given block context and state.
func New(block BlockContext, statedb StateDB) *EVM {
	return &EVM{Block: block, State: statedb, Tracer: NopTracer{}}
}

// frame is one entry of the Call_Contract stack: everything needed to
// execute one contract invocation.
type frame struct {
	caller   types.Address
	address  types.Address // storage & self address
	codeAddr types.Address
	code     []byte
	input    []byte
	value    uint256.Int
	gas      uint64

	jumpdests bitvec
}

// useGas deducts amount, reporting false when the gas margin is exhausted.
func (f *frame) useGas(amount uint64) bool {
	if f.gas < amount {
		return false
	}
	f.gas -= amount
	return true
}

// bitvec marks valid JUMPDEST positions (push immediates excluded).
type bitvec []byte

func analyzeJumpdests(code []byte) bitvec {
	bits := make(bitvec, (len(code)+7)/8)
	for i := 0; i < len(code); {
		op := Opcode(code[i])
		if op == JUMPDEST {
			bits[i/8] |= 1 << (i % 8)
		}
		i += 1 + op.PushSize()
	}
	return bits
}

func (b bitvec) isJumpdest(pos uint64) bool {
	i := int(pos)
	return i/8 < len(b) && b[i/8]&(1<<(i%8)) != 0
}

// Call executes the code at addr with the given input, transferring value
// from caller. It returns the output, the leftover gas and an error
// (ErrExecutionReverted preserves leftover gas; other errors consume it).
func (e *EVM) Call(caller, addr types.Address, input []byte, gas uint64, value *uint256.Int) ([]byte, uint64, error) {
	if e.depth > CallDepthLimit {
		return nil, gas, ErrCallDepth
	}
	if !value.IsZero() && e.State.GetBalance(caller).Lt(value) {
		return nil, gas, ErrInsufficientBalance
	}
	snapshot := e.State.Snapshot()
	if !value.IsZero() {
		e.State.SubBalance(caller, value)
		e.State.AddBalance(addr, value)
	}
	f := &frame{
		caller:   caller,
		address:  addr,
		codeAddr: addr,
		code:     e.State.GetCode(addr),
		input:    input,
		gas:      gas,
	}
	f.value.Set(value)
	ret, err := e.run(f)
	if err != nil {
		e.State.RevertToSnapshot(snapshot)
		if err != ErrExecutionReverted {
			f.gas = 0
		}
	}
	return ret, f.gas, err
}

// empty is EIP-161's rule for charging GasNewAccount: the account has no
// nonce, no balance and no code. The state has no separate notion of
// existence, so every view of it — journaled, buffered, speculative or
// pinned at a past height — gives the same answer.
func (e *EVM) empty(addr types.Address) bool {
	return e.State.GetNonce(addr) == 0 && e.State.GetBalance(addr).IsZero() && e.State.GetCodeSize(addr) == 0
}

// StaticCall executes addr with state mutation forbidden.
func (e *EVM) StaticCall(caller, addr types.Address, input []byte, gas uint64) ([]byte, uint64, error) {
	if e.depth > CallDepthLimit {
		return nil, gas, ErrCallDepth
	}
	snapshot := e.State.Snapshot()
	f := &frame{
		caller:   caller,
		address:  addr,
		codeAddr: addr,
		code:     e.State.GetCode(addr),
		input:    input,
		gas:      gas,
	}
	wasReadOnly := e.readOnly
	e.readOnly = true
	ret, err := e.run(f)
	e.readOnly = wasReadOnly
	if err != nil {
		e.State.RevertToSnapshot(snapshot)
		if err != ErrExecutionReverted {
			f.gas = 0
		}
	}
	return ret, f.gas, err
}

// callCode executes addr's code in caller's storage context (CALLCODE).
func (e *EVM) callCode(caller, addr types.Address, input []byte, gas uint64, value *uint256.Int) ([]byte, uint64, error) {
	if e.depth > CallDepthLimit {
		return nil, gas, ErrCallDepth
	}
	if !value.IsZero() && e.State.GetBalance(caller).Lt(value) {
		return nil, gas, ErrInsufficientBalance
	}
	snapshot := e.State.Snapshot()
	f := &frame{
		caller:   caller,
		address:  caller,
		codeAddr: addr,
		code:     e.State.GetCode(addr),
		input:    input,
		gas:      gas,
	}
	f.value.Set(value)
	ret, err := e.run(f)
	if err != nil {
		e.State.RevertToSnapshot(snapshot)
		if err != ErrExecutionReverted {
			f.gas = 0
		}
	}
	return ret, f.gas, err
}

// delegateCall executes addr's code with the parent frame's caller, value
// and storage context (DELEGATECALL).
func (e *EVM) delegateCall(parent *frame, addr types.Address, input []byte, gas uint64) ([]byte, uint64, error) {
	if e.depth > CallDepthLimit {
		return nil, gas, ErrCallDepth
	}
	snapshot := e.State.Snapshot()
	f := &frame{
		caller:   parent.caller,
		address:  parent.address,
		codeAddr: addr,
		code:     e.State.GetCode(addr),
		input:    input,
		gas:      gas,
	}
	f.value.Set(&parent.value)
	ret, err := e.run(f)
	if err != nil {
		e.State.RevertToSnapshot(snapshot)
		if err != ErrExecutionReverted {
			f.gas = 0
		}
	}
	return ret, f.gas, err
}

// Create deploys the contract defined by initCode, funded with value.
func (e *EVM) Create(caller types.Address, initCode []byte, gas uint64, value *uint256.Int) ([]byte, types.Address, uint64, error) {
	addr := types.CreateAddress(caller, e.State.GetNonce(caller))
	return e.create(caller, initCode, gas, value, addr)
}

// Create2 deploys at the salt-derived deterministic address.
func (e *EVM) Create2(caller types.Address, initCode []byte, gas uint64, value *uint256.Int, salt *uint256.Int) ([]byte, types.Address, uint64, error) {
	var buf []byte
	buf = append(buf, 0xff)
	buf = append(buf, caller.Bytes()...)
	sb := salt.Bytes32()
	buf = append(buf, sb[:]...)
	ch := keccak.Sum256(initCode)
	buf = append(buf, ch[:]...)
	h := keccak.Sum256(buf)
	return e.create(caller, initCode, gas, value, types.BytesToAddress(h[12:]))
}

func (e *EVM) create(caller types.Address, initCode []byte, gas uint64, value *uint256.Int, addr types.Address) ([]byte, types.Address, uint64, error) {
	if e.depth > CallDepthLimit {
		return nil, types.Address{}, gas, ErrCallDepth
	}
	if !value.IsZero() && e.State.GetBalance(caller).Lt(value) {
		return nil, types.Address{}, gas, ErrInsufficientBalance
	}
	e.State.SetNonce(caller, e.State.GetNonce(caller)+1)

	snapshot := e.State.Snapshot()
	e.State.SetNonce(addr, 1)
	if !value.IsZero() {
		e.State.SubBalance(caller, value)
		e.State.AddBalance(addr, value)
	}
	f := &frame{
		caller:   caller,
		address:  addr,
		codeAddr: addr,
		code:     initCode,
		input:    nil,
		gas:      gas,
	}
	f.value.Set(value)
	ret, err := e.run(f)

	if err == nil {
		if len(ret) > MaxCodeSize {
			err = ErrInvalidOpcode
		} else if depositGas := uint64(len(ret)) * GasCodeDeposit; !f.useGas(depositGas) {
			err = ErrOutOfGas
		} else {
			e.State.SetCode(addr, ret)
		}
	}
	if err != nil {
		e.State.RevertToSnapshot(snapshot)
		if err != ErrExecutionReverted {
			f.gas = 0
		}
		return ret, types.Address{}, f.gas, err
	}
	return ret, addr, f.gas, nil
}

// run executes one frame to completion. It implements the six conceptual
// pipeline stages in program order: fetch, decode, gas check, operand
// fetch, execute, write back.
func (e *EVM) run(f *frame) (ret []byte, err error) {
	e.depth++
	defer func() { e.depth-- }()

	e.Tracer.OnEnter(e.depth, f.codeAddr, len(f.code), len(f.input))
	defer func() { e.Tracer.OnExit(e.depth, err) }()

	if len(f.code) == 0 {
		return nil, nil
	}
	f.jumpdests = analyzeJumpdests(f.code)

	var (
		pc         uint64
		stack      = NewStack()
		mem        = NewMemory()
		returnData []byte
		cur        = &e.cur
		step       = &cur.step
		v1, v2, v3 uint256.Int
	)

	for {
		if pc >= uint64(len(f.code)) {
			// Implicit STOP falling off the end of code.
			return nil, nil
		}
		op := Opcode(f.code[pc])
		info := &opTable[op]
		if !info.valid || op == INVALID {
			return nil, ErrInvalidOpcode
		}
		if stack.Len() < info.pops {
			return nil, ErrStackUnderflow
		}
		if stack.Len()+info.pushes-info.pops > StackLimit {
			return nil, ErrStackOverflow
		}

		// Gas stage: constant + dynamic cost, charged before execution.
		gasCost := info.gas
		*step = Step{PC: pc, Op: op, Depth: e.depth}
		cur.codeAddr = f.codeAddr
		cur.touchAddr, cur.touchSlot = types.Address{}, types.Hash{}

		switch op {
		case EXP:
			exponent := stack.Back(1)
			gasCost += GasExpByte * uint64(exponent.ByteLen())

		case SHA3:
			offset, size := stack.Back(0), stack.Back(1)
			newSize, overflow := memRange(offset, size)
			if overflow {
				return nil, ErrGasUintOverflow
			}
			gasCost += GasSha3Word * toWordSize(size.Uint64())
			gasCost += memoryExpansionGas(mem.Len(), newSize)
			step.MemOffset = offset.Uint64()
			step.MemBytes = size.Uint64()

		case CALLDATACOPY, CODECOPY, RETURNDATACOPY:
			memOffset, size := stack.Back(0), stack.Back(2)
			newSize, overflow := memRange(memOffset, size)
			if overflow {
				return nil, ErrGasUintOverflow
			}
			gasCost += GasCopyWord * toWordSize(size.Uint64())
			gasCost += memoryExpansionGas(mem.Len(), newSize)
			step.MemOffset = memOffset.Uint64()
			step.MemBytes = size.Uint64()

		case EXTCODECOPY:
			memOffset, size := stack.Back(1), stack.Back(3)
			newSize, overflow := memRange(memOffset, size)
			if overflow {
				return nil, ErrGasUintOverflow
			}
			gasCost += GasCopyWord * toWordSize(size.Uint64())
			gasCost += memoryExpansionGas(mem.Len(), newSize)
			step.MemBytes = size.Uint64()
			cur.touchAddr = types.WordToAddress(stack.Back(0))

		case MLOAD, MSTORE:
			newSize, overflow := memRange(stack.Back(0), uint256.NewInt(32))
			if overflow {
				return nil, ErrGasUintOverflow
			}
			gasCost += memoryExpansionGas(mem.Len(), newSize)
			step.MemOffset = stack.Back(0).Uint64()
			step.MemBytes = 32

		case MSTORE8:
			newSize, overflow := memRange(stack.Back(0), uint256.NewInt(1))
			if overflow {
				return nil, ErrGasUintOverflow
			}
			gasCost += memoryExpansionGas(mem.Len(), newSize)
			step.MemOffset = stack.Back(0).Uint64()
			step.MemBytes = 1

		case JUMP:
			step.BranchTaken = true

		case JUMPI:
			step.BranchTaken = !stack.Back(1).IsZero()

		case SLOAD:
			cur.touchAddr = f.address
			cur.touchSlot = types.Hash(stack.Back(0).Bytes32())

		case SSTORE:
			if e.readOnly {
				return nil, ErrWriteProtection
			}
			slot := types.Hash(stack.Back(0).Bytes32())
			newVal := stack.Back(1)
			current := e.State.GetState(f.address, slot)
			switch {
			case current.IsZero() && !newVal.IsZero():
				gasCost += GasSstoreSet
			default:
				gasCost += GasSstoreReset
				if !current.IsZero() && newVal.IsZero() {
					e.State.AddRefund(GasSstoreRefund)
				}
			}
			cur.touchAddr = f.address
			cur.touchSlot = slot

		case BALANCE, EXTCODESIZE, EXTCODEHASH:
			cur.touchAddr = types.WordToAddress(stack.Back(0))

		case LOG0, LOG1, LOG2, LOG3, LOG4:
			if e.readOnly {
				return nil, ErrWriteProtection
			}
			offset, size := stack.Back(0), stack.Back(1)
			newSize, overflow := memRange(offset, size)
			if overflow {
				return nil, ErrGasUintOverflow
			}
			topics := uint64(op - LOG0)
			gasCost += GasLogTopic*topics + GasLogByte*size.Uint64()
			gasCost += memoryExpansionGas(mem.Len(), newSize)
			step.MemOffset = offset.Uint64()
			step.MemBytes = size.Uint64()

		case RETURN, REVERT:
			newSize, overflow := memRange(stack.Back(0), stack.Back(1))
			if overflow {
				return nil, ErrGasUintOverflow
			}
			gasCost += memoryExpansionGas(mem.Len(), newSize)
			step.MemBytes = stack.Back(1).Uint64()

		case CALL, CALLCODE:
			if e.readOnly && op == CALL && !stack.Back(2).IsZero() {
				return nil, ErrWriteProtection
			}
			newSize, overflow := callMemRange(stack, 3)
			if overflow {
				return nil, ErrGasUintOverflow
			}
			if !stack.Back(2).IsZero() {
				gasCost += GasCallValue
				if op == CALL && e.empty(types.WordToAddress(stack.Back(1))) {
					gasCost += GasNewAccount
				}
			}
			gasCost += memoryExpansionGas(mem.Len(), newSize)
			cur.touchAddr = types.WordToAddress(stack.Back(1))

		case DELEGATECALL, STATICCALL:
			newSize, overflow := callMemRange(stack, 2)
			if overflow {
				return nil, ErrGasUintOverflow
			}
			gasCost += memoryExpansionGas(mem.Len(), newSize)
			cur.touchAddr = types.WordToAddress(stack.Back(1))

		case CREATE, CREATE2:
			if e.readOnly {
				return nil, ErrWriteProtection
			}
			offset, size := stack.Back(1), stack.Back(2)
			newSize, overflow := memRange(offset, size)
			if overflow {
				return nil, ErrGasUintOverflow
			}
			if op == CREATE2 {
				gasCost += GasSha3Word * toWordSize(size.Uint64())
			}
			gasCost += memoryExpansionGas(mem.Len(), newSize)
			step.MemBytes = size.Uint64()
		}

		if !f.useGas(gasCost) {
			return nil, ErrOutOfGas
		}
		step.GasCost = gasCost
		e.Tracer.OnStep(step, &cur.codeAddr, &cur.touchAddr, &cur.touchSlot)

		// Execute stage.
		switch op {
		case STOP:
			return nil, nil

		case ADD:
			x, y := stack.Pop(), stack.Peek()
			y.Add(&x, y)
		case MUL:
			x, y := stack.Pop(), stack.Peek()
			y.Mul(&x, y)
		case SUB:
			x, y := stack.Pop(), stack.Peek()
			y.Sub(&x, y)
		case DIV:
			x, y := stack.Pop(), stack.Peek()
			y.Div(&x, y)
		case SDIV:
			x, y := stack.Pop(), stack.Peek()
			y.SDiv(&x, y)
		case MOD:
			x, y := stack.Pop(), stack.Peek()
			y.Mod(&x, y)
		case SMOD:
			x, y := stack.Pop(), stack.Peek()
			y.SMod(&x, y)
		case ADDMOD:
			x, y, m := stack.Pop(), stack.Pop(), stack.Peek()
			m.AddMod(&x, &y, m)
		case MULMOD:
			x, y, m := stack.Pop(), stack.Pop(), stack.Peek()
			m.MulMod(&x, &y, m)
		case EXP:
			base, exp := stack.Pop(), stack.Peek()
			exp.Exp(&base, exp)
		case SIGNEXTEND:
			b, x := stack.Pop(), stack.Peek()
			x.SignExtend(&b, x)

		case LT:
			x, y := stack.Pop(), stack.Peek()
			setBool(y, x.Lt(y))
		case GT:
			x, y := stack.Pop(), stack.Peek()
			setBool(y, x.Gt(y))
		case SLT:
			x, y := stack.Pop(), stack.Peek()
			setBool(y, x.Slt(y))
		case SGT:
			x, y := stack.Pop(), stack.Peek()
			setBool(y, x.Sgt(y))
		case EQ:
			x, y := stack.Pop(), stack.Peek()
			setBool(y, x.Eq(y))
		case ISZERO:
			y := stack.Peek()
			setBool(y, y.IsZero())
		case AND:
			x, y := stack.Pop(), stack.Peek()
			y.And(&x, y)
		case OR:
			x, y := stack.Pop(), stack.Peek()
			y.Or(&x, y)
		case XOR:
			x, y := stack.Pop(), stack.Peek()
			y.Xor(&x, y)
		case NOT:
			y := stack.Peek()
			y.Not(y)
		case BYTE:
			n, x := stack.Pop(), stack.Peek()
			x.Byte(&n, x)
		case SHL:
			n, x := stack.Pop(), stack.Peek()
			if n.IsUint64() && n.Uint64() < 256 {
				x.Lsh(x, uint(n.Uint64()))
			} else {
				x.Clear()
			}
		case SHR:
			n, x := stack.Pop(), stack.Peek()
			if n.IsUint64() && n.Uint64() < 256 {
				x.Rsh(x, uint(n.Uint64()))
			} else {
				x.Clear()
			}
		case SAR:
			n, x := stack.Pop(), stack.Peek()
			if n.IsUint64() && n.Uint64() < 256 {
				x.SRsh(x, uint(n.Uint64()))
			} else if x.Sign() < 0 {
				x.SetAllOne()
			} else {
				x.Clear()
			}

		case SHA3:
			offset, size := stack.Pop(), stack.Peek()
			data := mem.View(offset.Uint64(), size.Uint64())
			h := keccak.Sum256(data)
			size.SetBytes(h[:])

		case ADDRESS:
			v1 = f.address.Word()
			stack.Push(&v1)
		case BALANCE:
			addr := types.WordToAddress(stack.Peek())
			stack.Peek().Set(e.State.GetBalance(addr))
		case ORIGIN:
			v1 = e.TxCtx.Origin.Word()
			stack.Push(&v1)
		case CALLER:
			v1 = f.caller.Word()
			stack.Push(&v1)
		case CALLVALUE:
			stack.Push(&f.value)
		case CALLDATALOAD:
			x := stack.Peek()
			dataLoad(f.input, x.Uint64(), !x.IsUint64(), x)
		case CALLDATASIZE:
			v1.SetUint64(uint64(len(f.input)))
			stack.Push(&v1)
		case CALLDATACOPY:
			memOffset, dataOffset, size := stack.Pop(), stack.Pop(), stack.Pop()
			copyIn(mem, f.input, memOffset.Uint64(), dataOffset.Uint64(), size.Uint64(), !dataOffset.IsUint64())
		case CODESIZE:
			v1.SetUint64(uint64(len(f.code)))
			stack.Push(&v1)
		case CODECOPY:
			memOffset, codeOffset, size := stack.Pop(), stack.Pop(), stack.Pop()
			copyIn(mem, f.code, memOffset.Uint64(), codeOffset.Uint64(), size.Uint64(), !codeOffset.IsUint64())
		case GASPRICE:
			v1.SetUint64(e.TxCtx.GasPrice)
			stack.Push(&v1)
		case EXTCODESIZE:
			addr := types.WordToAddress(stack.Peek())
			stack.Peek().SetUint64(uint64(e.State.GetCodeSize(addr)))
		case EXTCODECOPY:
			addrW, memOffset, codeOffset, size := stack.Pop(), stack.Pop(), stack.Pop(), stack.Pop()
			code := e.State.GetCode(types.WordToAddress(&addrW))
			copyIn(mem, code, memOffset.Uint64(), codeOffset.Uint64(), size.Uint64(), !codeOffset.IsUint64())
		case RETURNDATASIZE:
			v1.SetUint64(uint64(len(returnData)))
			stack.Push(&v1)
		case RETURNDATACOPY:
			memOffset, dataOffset, size := stack.Pop(), stack.Pop(), stack.Pop()
			end, overflow := dataOffset.Uint64WithOverflow()
			_ = end
			if overflow {
				return nil, ErrReturnDataOutOfBounds
			}
			if dataOffset.Uint64()+size.Uint64() < dataOffset.Uint64() ||
				dataOffset.Uint64()+size.Uint64() > uint64(len(returnData)) {
				return nil, ErrReturnDataOutOfBounds
			}
			mem.Set(memOffset.Uint64(), returnData[dataOffset.Uint64():dataOffset.Uint64()+size.Uint64()])
		case EXTCODEHASH:
			addr := types.WordToAddress(stack.Peek())
			h := e.State.GetCodeHash(addr)
			stack.Peek().SetBytes(h[:])
		case BLOCKHASH:
			x := stack.Peek()
			if e.Block.BlockHash != nil && x.IsUint64() {
				h := e.Block.BlockHash(x.Uint64())
				x.SetBytes(h[:])
			} else {
				x.Clear()
			}
		case COINBASE:
			v1 = e.Block.Coinbase.Word()
			stack.Push(&v1)
		case TIMESTAMP:
			v1.SetUint64(e.Block.Timestamp)
			stack.Push(&v1)
		case NUMBER:
			v1.SetUint64(e.Block.Number)
			stack.Push(&v1)
		case DIFFICULTY:
			v1.SetUint64(e.Block.Difficulty)
			stack.Push(&v1)
		case GASLIMIT:
			v1.SetUint64(e.Block.GasLimit)
			stack.Push(&v1)

		case POP:
			stack.Pop()
		case MLOAD:
			offset := stack.Peek()
			mem.GetWord(offset.Uint64(), offset)
		case MSTORE:
			offset, val := stack.Pop(), stack.Pop()
			mem.SetWord(offset.Uint64(), &val)
		case MSTORE8:
			offset, val := stack.Pop(), stack.Pop()
			mem.SetByte(offset.Uint64(), &val)
		case SLOAD:
			slotW := stack.Peek()
			val := e.State.GetState(f.address, types.Hash(slotW.Bytes32()))
			slotW.Set(&val)
		case SSTORE:
			slotW, val := stack.Pop(), stack.Pop()
			e.State.SetState(f.address, types.Hash(slotW.Bytes32()), val)
		case JUMP:
			dest := stack.Pop()
			if !dest.IsUint64() || !f.jumpdests.isJumpdest(dest.Uint64()) {
				return nil, ErrInvalidJump
			}
			pc = dest.Uint64()
			continue
		case JUMPI:
			dest, cond := stack.Pop(), stack.Pop()
			if !cond.IsZero() {
				if !dest.IsUint64() || !f.jumpdests.isJumpdest(dest.Uint64()) {
					return nil, ErrInvalidJump
				}
				pc = dest.Uint64()
				continue
			}
		case PC:
			v1.SetUint64(pc)
			stack.Push(&v1)
		case MSIZE:
			v1.SetUint64(mem.Len())
			stack.Push(&v1)
		case GAS:
			v1.SetUint64(f.gas)
			stack.Push(&v1)
		case JUMPDEST:
			// No effect.

		case LOG0, LOG1, LOG2, LOG3, LOG4:
			topicCount := int(op - LOG0)
			offset, size := stack.Pop(), stack.Pop()
			topics := make([]types.Hash, topicCount)
			for i := 0; i < topicCount; i++ {
				t := stack.Pop()
				topics[i] = types.Hash(t.Bytes32())
			}
			e.State.AddLog(&types.Log{
				Address: f.address,
				Topics:  topics,
				Data:    mem.GetCopy(offset.Uint64(), size.Uint64()),
			})

		case CREATE, CREATE2:
			var salt uint256.Int
			value := stack.Pop()
			offset, size := stack.Pop(), stack.Pop()
			if op == CREATE2 {
				salt = stack.Pop()
			}
			initCode := mem.GetCopy(offset.Uint64(), size.Uint64())
			// EIP-150: forward all but 1/64th.
			childGas := f.gas - f.gas/64
			f.gas -= childGas
			var (
				addr types.Address
				left uint64
				cerr error
			)
			if op == CREATE {
				_, addr, left, cerr = e.Create(f.address, initCode, childGas, &value)
			} else {
				_, addr, left, cerr = e.Create2(f.address, initCode, childGas, &value, &salt)
			}
			f.gas += left
			if cerr != nil {
				v1.Clear()
			} else {
				v1 = addr.Word()
			}
			stack.Push(&v1)
			returnData = nil

		case CALL, CALLCODE:
			reqGas := stack.Pop()
			addrW := stack.Pop()
			value := stack.Pop()
			inOffset, inSize := stack.Pop(), stack.Pop()
			outOffset, outSize := stack.Pop(), stack.Pop()
			input := mem.GetCopy(inOffset.Uint64(), inSize.Uint64())
			childGas := availableCallGas(f.gas, &reqGas)
			f.gas -= childGas
			if !value.IsZero() {
				childGas += GasCallStipend
			}
			target := types.WordToAddress(&addrW)
			var (
				out  []byte
				left uint64
				cerr error
			)
			if op == CALL {
				out, left, cerr = e.Call(f.address, target, input, childGas, &value)
			} else {
				out, left, cerr = e.callCode(f.address, target, input, childGas, &value)
			}
			f.gas += left
			writeCallResult(mem, stack, &v2, out, cerr, outOffset.Uint64(), outSize.Uint64())
			returnData = out

		case DELEGATECALL, STATICCALL:
			reqGas := stack.Pop()
			addrW := stack.Pop()
			inOffset, inSize := stack.Pop(), stack.Pop()
			outOffset, outSize := stack.Pop(), stack.Pop()
			input := mem.GetCopy(inOffset.Uint64(), inSize.Uint64())
			childGas := availableCallGas(f.gas, &reqGas)
			f.gas -= childGas
			target := types.WordToAddress(&addrW)
			var (
				out  []byte
				left uint64
				cerr error
			)
			if op == DELEGATECALL {
				out, left, cerr = e.delegateCall(f, target, input, childGas)
			} else {
				out, left, cerr = e.StaticCall(f.address, target, input, childGas)
			}
			f.gas += left
			writeCallResult(mem, stack, &v2, out, cerr, outOffset.Uint64(), outSize.Uint64())
			returnData = out

		case RETURN:
			offset, size := stack.Pop(), stack.Pop()
			return mem.GetCopy(offset.Uint64(), size.Uint64()), nil
		case REVERT:
			offset, size := stack.Pop(), stack.Pop()
			return mem.GetCopy(offset.Uint64(), size.Uint64()), ErrExecutionReverted

		default:
			if op.IsPush() {
				n := op.PushSize()
				start := pc + 1
				end := start + uint64(n)
				if end > uint64(len(f.code)) {
					end = uint64(len(f.code))
				}
				v3.SetBytes(f.code[start:end])
				if end < start+uint64(n) {
					// Right-pad implicit zeros past end of code.
					v3.Lsh(&v3, uint(8*(start+uint64(n)-end)))
				}
				stack.Push(&v3)
				pc += 1 + uint64(n)
				continue
			}
			if op.IsDup() {
				stack.Dup(int(op-DUP1) + 1)
			} else if op.IsSwap() {
				stack.Swap(int(op-SWAP1) + 1)
			} else {
				return nil, ErrInvalidOpcode
			}
		}
		pc++
	}
}

// setBool writes 1 or 0 into z.
func setBool(z *uint256.Int, b bool) {
	if b {
		z.SetOne()
	} else {
		z.Clear()
	}
}

// memRange computes offset+size, reporting uint64 overflow. A zero size
// never expands memory.
func memRange(offset, size *uint256.Int) (uint64, bool) {
	if size.IsZero() {
		return 0, false
	}
	if !offset.IsUint64() || !size.IsUint64() {
		return 0, true
	}
	end := offset.Uint64() + size.Uint64()
	if end < offset.Uint64() {
		return 0, true
	}
	return end, false
}

// callMemRange returns the memory size needed by a call's input and output
// ranges, whose offsets start at stack position base (input) and base+2
// (output).
func callMemRange(stack *Stack, base int) (uint64, bool) {
	inEnd, over1 := memRange(stack.Back(base), stack.Back(base+1))
	outEnd, over2 := memRange(stack.Back(base+2), stack.Back(base+3))
	if over1 || over2 {
		return 0, true
	}
	if outEnd > inEnd {
		return outEnd, false
	}
	return inEnd, false
}

// availableCallGas caps the requested child gas to all-but-one-64th of the
// remaining frame gas (EIP-150).
func availableCallGas(frameGas uint64, requested *uint256.Int) uint64 {
	max := frameGas - frameGas/64
	if requested.IsUint64() && requested.Uint64() < max {
		return requested.Uint64()
	}
	return max
}

// writeCallResult pushes the success flag and copies bounded output.
func writeCallResult(mem *Memory, stack *Stack, scratch *uint256.Int, out []byte, cerr error, outOffset, outSize uint64) {
	if cerr == nil {
		scratch.SetOne()
	} else {
		scratch.Clear()
	}
	stack.Push(scratch)
	if n := uint64(len(out)); n > 0 && outSize > 0 {
		if n > outSize {
			n = outSize
		}
		mem.Set(outOffset, out[:n])
	}
}

// dataLoad reads a 32-byte word at offset from data (zero-padded past the
// end); oob forces a zero result for offsets beyond uint64.
func dataLoad(data []byte, offset uint64, oob bool, out *uint256.Int) {
	if oob || offset >= uint64(len(data)) {
		out.Clear()
		return
	}
	var word [32]byte
	copy(word[:], data[offset:])
	out.SetBytes(word[:])
}

// copyIn copies size bytes from src[srcOffset:] into memory at memOffset,
// zero-padding reads past the end of src. A huge srcOffset reads zeros.
func copyIn(mem *Memory, src []byte, memOffset, srcOffset, size uint64, srcOOB bool) {
	if size == 0 {
		return
	}
	buf := make([]byte, size)
	if !srcOOB && srcOffset < uint64(len(src)) {
		copy(buf, src[srcOffset:])
	}
	mem.Set(memOffset, buf)
}
