package mvstate

import (
	"fmt"
	"slices"

	"mtpu/internal/keccak"
	"mtpu/internal/state"
	"mtpu/internal/types"
	"mtpu/internal/uint256"
)

// EstimateAbort is thrown (as a panic) when a read lands on an ESTIMATE
// entry: the speculative execution cannot proceed until transaction Dep
// re-executes. The executor recovers it at the incarnation boundary —
// the standard way to surface an abort through the error-free StateDB
// interface.
type EstimateAbort struct{ Dep int }

// ReadObs is one entry of an incarnation's read set: the key and the
// writer version observed. Validation re-reads the key and fails when the
// observed writer changed.
type ReadObs struct {
	Key state.AccessKey
	Ver Version
}

// View is the one buffered evm.StateDB over a read-only base: reads
// resolve through its own write buffer, then the multi-version memory,
// then the base, recording the observed version of every first read;
// writes are buffered locally and never reach the base. A speculative
// transaction gets one view per incarnation, whose writes the executor
// publishes when the incarnation completes. With a nil multi-version
// memory there is no speculative writer below the reader, and the view
// is the sequential one the decode and verify paths run whole blocks
// through: its write-set is the block's net write-set (the input to
// Store.Commit and Snapshot.DigestAfter), its read-set the keys resolved from
// the base (what a speculative decode revalidates against later folds),
// and BeginTxRecord/EndTxRecord cut it into per-transaction access sets
// for DAG construction.
//
// The coinbase balance is carved out, mirroring workload.BuildDAG: fee
// crediting is commutative, so coinbase balance operations go to a local
// delta (applied at commit) and never enter read-, write- or access sets.
type View struct {
	base     Reader
	mv       *MVMemory // nil: every non-local read resolves from base
	tx       int
	coinbase types.Address

	reads   []ReadObs
	readIdx map[state.AccessKey]int

	writes     map[state.AccessKey]Value
	writeOrder []state.AccessKey

	logs     []*types.Log
	refund   uint64
	feeDelta uint256.Int

	journal []vEntry

	recording bool
	txReads   state.AccessSet
	txWrites  state.AccessSet
}

// NewView returns a view for one incarnation of transaction tx.
func NewView(base Reader, mv *MVMemory, tx int, coinbase types.Address) *View {
	return &View{
		base:     base,
		mv:       mv,
		tx:       tx,
		coinbase: coinbase,
		readIdx:  make(map[state.AccessKey]int),
		writes:   make(map[state.AccessKey]Value),
	}
}

// NewOverlay returns the sequential view of a whole block over snap.
func NewOverlay(snap *Snapshot, coinbase types.Address) *View {
	return NewView(snap, nil, 0, coinbase)
}

// vEntry is one undo record of the view's local journal (the same
// journaling discipline as state.StateDB, scoped to the buffers).
type vEntry struct {
	kind    vKind
	key     state.AccessKey
	prev    Value
	existed bool
	prevU64 uint64
	prevFee uint256.Int
}

type vKind uint8

const (
	vWrite vKind = iota
	vLog
	vRefund
	vFee
)

// BeginTxRecord starts per-transaction access recording, with exactly
// state.StateDB.BeginAccessRecord's rules (a getter records a read, a
// setter a write, Add/SubBalance only the write), so the DAG built from
// a view's windows is the one a journaled StateDB replay yields.
func (v *View) BeginTxRecord() {
	v.recording = true
	v.txReads = make(state.AccessSet)
	v.txWrites = make(state.AccessSet)
}

// EndTxRecord stops recording and returns the transaction's access sets.
func (v *View) EndTxRecord() (reads, writes state.AccessSet) {
	v.recording = false
	reads, writes = v.txReads, v.txWrites
	v.txReads, v.txWrites = nil, nil
	return reads, writes
}

func (v *View) recordRead(key state.AccessKey) {
	if v.recording {
		v.txReads[key] = struct{}{}
	}
}

func (v *View) recordWrite(key state.AccessKey) {
	if v.recording {
		v.txWrites[key] = struct{}{}
	}
}

// ReadSet returns the recorded read observations in first-read order.
func (v *View) ReadSet() []ReadObs { return v.reads }

// WriteSet returns the buffered writes in first-write order.
func (v *View) WriteSet() ([]state.AccessKey, []Value) {
	vals := make([]Value, len(v.writeOrder))
	for i, k := range v.writeOrder {
		vals[i] = v.writes[k]
	}
	return slices.Clone(v.writeOrder), vals
}

// FeeDelta returns the coinbase balance credit accumulated by this
// incarnation.
func (v *View) FeeDelta() uint256.Int { return v.feeDelta }

// read resolves key through write buffer → multi-version memory → base,
// recording the observed version on the first non-local read of each key.
// It panics with EstimateAbort when the resolving writer is an ESTIMATE.
func (v *View) read(key state.AccessKey) (Value, bool) {
	if val, ok := v.writes[key]; ok {
		return val, true
	}
	res := ReadResult{Status: ReadBase, Ver: Version{Tx: BaseVersion}}
	if v.mv != nil {
		res = v.mv.Read(key, v.tx)
	}
	if res.Status == ReadEstimate {
		panic(EstimateAbort{Dep: res.Ver.Tx})
	}
	if _, ok := v.readIdx[key]; !ok {
		v.readIdx[key] = len(v.reads)
		v.reads = append(v.reads, ReadObs{Key: key, Ver: res.Ver})
	}
	if res.Status == ReadValue {
		return res.Val, true
	}
	return Value{}, false // ReadBase: caller consults the base state
}

// write buffers a value for key, journaling the previous buffer content.
func (v *View) write(key state.AccessKey, val Value) {
	prev, existed := v.writes[key]
	v.journal = append(v.journal, vEntry{kind: vWrite, key: key, prev: prev, existed: existed})
	if !existed {
		v.writeOrder = append(v.writeOrder, key)
	}
	v.writes[key] = val
}

func balKey(addr types.Address) state.AccessKey {
	return state.AccessKey{Kind: state.AccessBalance, Addr: addr}
}
func nonceKey(addr types.Address) state.AccessKey {
	return state.AccessKey{Kind: state.AccessNonce, Addr: addr}
}
func codeKey(addr types.Address) state.AccessKey {
	return state.AccessKey{Kind: state.AccessCode, Addr: addr}
}
func storageKey(addr types.Address, slot types.Hash) state.AccessKey {
	return state.AccessKey{Kind: state.AccessStorage, Addr: addr, Slot: slot}
}

// GetBalance implements evm.StateDB.
func (v *View) GetBalance(addr types.Address) *uint256.Int {
	if addr == v.coinbase {
		bal := v.base.GetBalance(addr)
		bal.Add(bal, &v.feeDelta)
		return bal
	}
	v.recordRead(balKey(addr))
	return v.loadBalance(addr)
}

// loadBalance is the versioned read used by both GetBalance and the
// read-modify-write Add/SubBalance paths.
func (v *View) loadBalance(addr types.Address) *uint256.Int {
	if val, ok := v.read(balKey(addr)); ok {
		return val.Word.Clone()
	}
	return v.base.GetBalance(addr)
}

// SetBalance overwrites the balance of addr (a pure write).
func (v *View) SetBalance(addr types.Address, x *uint256.Int) {
	if addr == v.coinbase {
		var delta uint256.Int
		delta.Sub(x, v.base.GetBalance(addr))
		v.journal = append(v.journal, vEntry{kind: vFee, prevFee: v.feeDelta})
		v.feeDelta = delta
		return
	}
	v.recordWrite(balKey(addr))
	var val Value
	val.Word.Set(x)
	v.write(balKey(addr), val)
}

// AddBalance credits addr: a read-modify-write, so the current balance
// lands in the read set (a stale read must fail validation) while the
// access window records only the write, like state.StateDB — the DAG
// builder already gets the edge from the write-write overlap.
func (v *View) AddBalance(addr types.Address, x *uint256.Int) {
	if addr == v.coinbase {
		v.journal = append(v.journal, vEntry{kind: vFee, prevFee: v.feeDelta})
		v.feeDelta.Add(&v.feeDelta, x)
		return
	}
	v.recordWrite(balKey(addr))
	cur := v.loadBalance(addr)
	var val Value
	val.Word.Add(cur, x)
	v.write(balKey(addr), val)
}

// SubBalance debits addr (wraps on underflow, like state.StateDB).
func (v *View) SubBalance(addr types.Address, x *uint256.Int) {
	if addr == v.coinbase {
		v.journal = append(v.journal, vEntry{kind: vFee, prevFee: v.feeDelta})
		v.feeDelta.Sub(&v.feeDelta, x)
		return
	}
	v.recordWrite(balKey(addr))
	cur := v.loadBalance(addr)
	var val Value
	val.Word.Sub(cur, x)
	v.write(balKey(addr), val)
}

// GetNonce implements evm.StateDB.
func (v *View) GetNonce(addr types.Address) uint64 {
	v.recordRead(nonceKey(addr))
	if val, ok := v.read(nonceKey(addr)); ok {
		return val.U64
	}
	return v.base.GetNonce(addr)
}

// SetNonce implements evm.StateDB.
func (v *View) SetNonce(addr types.Address, n uint64) {
	v.recordWrite(nonceKey(addr))
	v.write(nonceKey(addr), Value{U64: n})
}

// GetCode implements evm.StateDB.
func (v *View) GetCode(addr types.Address) []byte {
	v.recordRead(codeKey(addr))
	if val, ok := v.read(codeKey(addr)); ok {
		return val.Code
	}
	return v.base.GetCode(addr)
}

// GetCodeSize implements evm.StateDB.
func (v *View) GetCodeSize(addr types.Address) int {
	return len(v.GetCode(addr))
}

// GetCodeHash implements evm.StateDB.
func (v *View) GetCodeHash(addr types.Address) types.Hash {
	v.recordRead(codeKey(addr))
	if val, ok := v.read(codeKey(addr)); ok {
		return val.Hash
	}
	return v.base.GetCodeHash(addr)
}

// SetCode implements evm.StateDB.
func (v *View) SetCode(addr types.Address, code []byte) {
	v.recordWrite(codeKey(addr))
	val := Value{Code: append([]byte(nil), code...)}
	if len(code) > 0 {
		val.Hash = types.Hash(keccak.Sum256(code))
	}
	v.write(codeKey(addr), val)
}

// GetState implements evm.StateDB.
func (v *View) GetState(addr types.Address, slot types.Hash) uint256.Int {
	v.recordRead(storageKey(addr, slot))
	if val, ok := v.read(storageKey(addr, slot)); ok {
		return val.Word
	}
	return v.base.GetState(addr, slot)
}

// SetState implements evm.StateDB.
func (v *View) SetState(addr types.Address, slot types.Hash, x uint256.Int) {
	v.recordWrite(storageKey(addr, slot))
	v.write(storageKey(addr, slot), Value{Word: x})
}

// AddLog implements evm.StateDB.
func (v *View) AddLog(l *types.Log) {
	v.journal = append(v.journal, vEntry{kind: vLog})
	v.logs = append(v.logs, l)
}

// TakeLogs implements evm.StateDB.
func (v *View) TakeLogs() []*types.Log {
	out := v.logs
	v.logs = nil
	return out
}

// AddRefund implements evm.StateDB.
func (v *View) AddRefund(x uint64) {
	v.journal = append(v.journal, vEntry{kind: vRefund, prevU64: v.refund})
	v.refund += x
}

// GetRefund implements evm.StateDB.
func (v *View) GetRefund() uint64 { return v.refund }

// ResetRefund implements evm.StateDB (per-transaction, not journaled —
// matching state.StateDB).
func (v *View) ResetRefund() { v.refund = 0 }

// Snapshot implements evm.StateDB.
func (v *View) Snapshot() int { return len(v.journal) }

// RevertToSnapshot implements evm.StateDB. Reads recorded inside the
// reverted span stay in the read set: the speculation still observed
// them, so validation must still cover them (state.StateDB's access
// recording behaves the same way for the DAG builder).
func (v *View) RevertToSnapshot(id int) {
	if id < 0 || id > len(v.journal) {
		panic(fmt.Sprintf("mvstate: invalid snapshot id %d (journal length %d)", id, len(v.journal)))
	}
	for i := len(v.journal) - 1; i >= id; i-- {
		e := v.journal[i]
		switch e.kind {
		case vWrite:
			if e.existed {
				v.writes[e.key] = e.prev
			} else {
				// The key's first write: undone last of all its writes, and
				// before any older key's, so it is writeOrder's tail.
				delete(v.writes, e.key)
				v.writeOrder = v.writeOrder[:len(v.writeOrder)-1]
			}
		case vLog:
			v.logs = v.logs[:len(v.logs)-1]
		case vRefund:
			v.refund = e.prevU64
		case vFee:
			v.feeDelta = e.prevFee
		}
	}
	v.journal = v.journal[:id]
}
