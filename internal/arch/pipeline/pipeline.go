// Package pipeline implements the timing model of one PU's instruction
// pipeline (§3.3.2-3.3.5): the six-stage in-order scalar path, the fill
// unit that packs decoded bytecodes into DB-cache lines under the
// dependency rules of the paper (one field per functional unit, WAR/WAW
// removed by R/W sequence numbers, a single RAW absorbed by forwarding,
// common patterns folded), and the LRU decoded-bytecode cache whose hits
// issue a whole line in one cycle with its gas pre-summed.
package pipeline

import (
	"fmt"
	"math"

	"mtpu/internal/arch"
	"mtpu/internal/evm"
	"mtpu/internal/obs"
	"mtpu/internal/types"
)

// Annotation carries hotspot-optimization facts about one trace step.
type Annotation struct {
	// Prefetched data costs a dcache hit instead of a state access (§3.4.4).
	Prefetched bool
	// ConstOperands marks instructions whose operands come from the
	// Constants Table, removing their stack dependencies (§3.4.3).
	ConstOperands bool
}

// MemModel resolves data-access latencies. The MTPU supplies an
// implementation backed by the shared State Buffer. Methods take the
// whole step so implementations can use its interned TouchID.
type MemModel interface {
	// StorageRead returns the SLOAD latency for the slot the step touches.
	StorageRead(s *evm.Step, prefetched bool) uint64
	// StorageWrite returns the SSTORE latency.
	StorageWrite(s *evm.Step) uint64
	// StateQuery returns the BALANCE/EXTCODE* latency.
	StateQuery(s *evm.Step, prefetched bool) uint64
}

// FlatMem is a MemModel with fixed latencies and no State Buffer,
// used by single-PU experiments.
type FlatMem struct {
	Cfg arch.Config
}

// StorageRead implements MemModel.
func (m FlatMem) StorageRead(_ *evm.Step, prefetched bool) uint64 {
	if prefetched {
		return m.Cfg.DCacheLat
	}
	return m.Cfg.MainMemLat
}

// StorageWrite implements MemModel.
func (m FlatMem) StorageWrite(*evm.Step) uint64 {
	return m.Cfg.StorageWriteLat
}

// StateQuery implements MemModel.
func (m FlatMem) StateQuery(_ *evm.Step, prefetched bool) uint64 {
	if prefetched {
		return m.Cfg.DCacheLat
	}
	return m.Cfg.MainMemLat
}

// Stats aggregates pipeline activity.
type Stats struct {
	// Instructions executed (original count; folded pairs count as two).
	Instructions uint64
	// Cycles consumed by the pipeline (excludes context loading),
	// including data-access stalls.
	Cycles uint64
	// IssueCycles counts issue slots only (one per scalar instruction or
	// per hit line) — the denominator of the paper's IPC metric, which
	// measures packing density rather than memory behaviour.
	IssueCycles uint64
	// LineHits / LineMisses count DB-cache lookups at line granularity.
	LineHits, LineMisses uint64
	// HitInstructions is the number of instructions issued from hit lines.
	HitInstructions uint64
	// FoldedPairs counts PUSH+op folds performed by the fill unit.
	FoldedPairs uint64
	// ForwardedRAWs counts RAW hazards absorbed by data forwarding.
	ForwardedRAWs uint64
	// GasCharged sums gas deducted (scalar or via line G fields).
	GasCharged uint64
	// LinesCached counts lines inserted into the DB cache.
	LinesCached uint64
	// LineEvictions counts LRU evictions from the DB cache.
	LineEvictions uint64
}

// HitRatio is the fraction of instructions issued from DB-cache hits.
func (s Stats) HitRatio() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.HitInstructions) / float64(s.Instructions)
}

// IPC is instructions per issue cycle — the Fig. 12/Table 7 metric:
// how many instructions the DB cache issues per slot, independent of
// data-access stalls (which EffectiveIPC includes).
func (s Stats) IPC() float64 {
	if s.IssueCycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.IssueCycles)
}

// AvgLineSize is the mean instructions per hit line — the packing
// density the fill unit achieved on reused lines.
func (s Stats) AvgLineSize() float64 {
	if s.LineHits == 0 {
		return 0
	}
	return float64(s.HitInstructions) / float64(s.LineHits)
}

// EffectiveIPC is instructions per total pipeline cycle, stalls included.
func (s Stats) EffectiveIPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.Instructions += o.Instructions
	s.Cycles += o.Cycles
	s.IssueCycles += o.IssueCycles
	s.LineHits += o.LineHits
	s.LineMisses += o.LineMisses
	s.HitInstructions += o.HitInstructions
	s.FoldedPairs += o.FoldedPairs
	s.ForwardedRAWs += o.ForwardedRAWs
	s.GasCharged += o.GasCharged
	s.LinesCached += o.LinesCached
	s.LineEvictions += o.LineEvictions
}

// MemStallCycles is the dependency-stall share of Cycles: time spent
// waiting on data accesses rather than issuing.
func (s Stats) MemStallCycles() uint64 { return s.Cycles - s.IssueCycles }

// MissIssueCycles is the share of IssueCycles spent on the DB-cache
// miss path (each hit line takes exactly one issue slot, so the rest of
// the issue slots are scalar streaming during fills or with the cache
// disabled).
func (s Stats) MissIssueCycles() uint64 { return s.IssueCycles - s.LineHits }

// member is one entry of a DB-cache line.
type member struct {
	pc uint64
	op evm.Opcode
	// foldedPC is the original instruction folded into this member (its
	// pc precedes pc in the trace); folding synthesizes at most one pair
	// (§3.3.4), so a scalar suffices and keeps members allocation-free.
	foldedPC  uint64
	hasFolded bool
}

// line is one DB-cache line: up to one member per functional unit, ended
// by a unit conflict, a second RAW, or a control-flow change. The address
// of the next instruction and the summed gas (G) live at the end of the
// line in hardware; here they are implicit in the trace replay.
type line struct {
	insts []member
	// count is the original instruction count (including folded ones).
	count int
	// keySum fingerprints the line's content: the sum of mix64'd pcs over
	// the exact step window the fill consumed.
	// A directory tag match does NOT imply a content match — the Contract
	// Table rewrites hot traces (pre-executed and eliminated instructions
	// are dropped), so planned and plain transactions of the same
	// contract can reach the same (code id, entry pc) key with different
	// downstream streams. Hit paths verify the window's pcs and treat a
	// mismatch as an ordinary miss that refills the line, the same way
	// fill-memo segments are verified by segValid.
	keySum uint64
	// flatWorst is the precomputed worst member stall under a stateless
	// flat memory model with no prefetching, baked at fill time from the
	// members' latency classes and the fill config; lineDynStall marks
	// lines whose stall depends on per-step data (SHA3/copy footprints)
	// and must be computed per execution.
	flatWorst uint32
}

// lineDynStall marks a line whose worst stall cannot be precomputed.
const lineDynStall = ^uint32(0)

// copyFrom overwrites ln with src, reusing ln's member capacity so a
// recycled cache node absorbs a new line without allocating.
func (ln *line) copyFrom(src *line) {
	ln.count = src.count
	ln.keySum = src.keySum
	ln.flatWorst = src.flatWorst
	ln.insts = append(ln.insts[:0], src.insts...)
}

// codeDir maps packed (code id, pc) keys to int32 payloads with two
// array indexes instead of a hash. Rows are allocated per dense
// symbol-table code id and grown to the highest pc seen (bytecode
// offsets, so rows stay at most code-sized). Cells carry a generation
// stamp in the high half so the whole directory empties with one counter
// bump (clear) — the clean-slate reuse a pooled pipeline needs. gen
// starts at 1 (constructors must set it) and rows are allocated zeroed,
// so a never-written cell can never read as present.
type codeDir struct {
	rows [][]uint64
	gen  uint32
}

// get returns the payload for key, -1 when absent. No allocation.
func (d *codeDir) get(key uint64) int32 {
	id := int(key >> 32)
	pc := int(uint32(key))
	if id >= len(d.rows) {
		return -1
	}
	row := d.rows[id]
	if pc >= len(row) {
		return -1
	}
	cell := row[pc]
	if uint32(cell>>32) != d.gen {
		return -1
	}
	return int32(uint32(cell))
}

// set stores the payload for key (use -1 to delete), growing the
// directory as needed.
func (d *codeDir) set(key uint64, v int32) {
	id := int(key >> 32)
	pc := int(uint32(key))
	d.rows = growRow(d.rows, id, pc)
	d.rows[id][pc] = uint64(d.gen)<<32 | uint64(uint32(v))
}

// growRow returns rows with rows[id][pc] addressable. Steady state — the
// row already spans the pc — is two bounds checks with no growth
// bookkeeping; growth at least doubles the row.
func growRow[T uint32 | uint64](rows [][]T, id, pc int) [][]T {
	if id < len(rows) && pc < len(rows[id]) {
		return rows
	}
	for len(rows) <= id {
		rows = append(rows, nil)
	}
	if row := rows[id]; pc >= len(row) {
		grown := make([]T, max(pc+1, 2*len(row)))
		copy(grown, row)
		rows[id] = grown
	}
	return rows
}

// clear empties the directory in O(1) by advancing the generation. The
// (in practice unreachable) wrap-around zeroes rows for real so ancient
// stamps can never alias.
func (d *codeDir) clear() {
	d.gen++
	if d.gen == 0 {
		for _, row := range d.rows {
			clear(row)
		}
		d.gen = 1
	}
}

// genDir is a generation-stamped membership set over the same key space:
// a cell is a member iff it holds the current generation, so emptying
// the set is one counter bump instead of a walk.
type genDir struct {
	rows  [][]uint32
	gen   uint32
	count int
}

func (d *genDir) add(key uint64) {
	id := int(key >> 32)
	pc := int(uint32(key))
	d.rows = growRow(d.rows, id, pc)
	if row := d.rows[id]; row[pc] != d.gen {
		row[pc] = d.gen
		d.count++
	}
}

// reset empties the set. On the (astronomically rare) generation wrap
// every cell is zeroed so stale stamps can never read as members.
func (d *genDir) reset() {
	d.count = 0
	d.gen++
	if d.gen == 0 {
		for _, row := range d.rows {
			clear(row)
		}
		d.gen = 1
	}
}

// dbCache is a fully-associative LRU cache of decoded lines. Lines are
// keyed by a packed word — interned CodeID in the high half, entry pc
// in the low half — resolved through a codeDir, so a lookup is two
// array indexes with no hashing at all. Nodes live in one arena slice
// linked by indexes; evicted and flushed nodes go to a free list and
// are recycled with their member capacity, so a warm cache inserts
// without allocating.
type dbCache struct {
	capacity int // 0 = unbounded
	dir      codeDir
	count    int
	nodes    []cacheNode
	// LRU doubly-linked list plus free list, as arena indexes (-1 = none).
	head, tail, free int32
	// lines[i] is node i's owned line copy (unused while the node
	// aliases a shared memo line); kept out of cacheNode so the hot LRU
	// state stays dense.
	lines []line
}

// cacheNode is the LRU hot state of one cache entry — 32 bytes, so
// lookups, touches and hint chases stride a dense array instead of
// dragging each node's line payload through the cache. The node-owned
// line copies live in the dbCache's parallel lines array (cold side).
type cacheNode struct {
	key uint64
	// shared, when non-nil, is the node's line aliased from the shared
	// fill memo (stable and read-only for the pipeline's life) — the
	// common case under FillMemo, inserted with no copy. Otherwise
	// lines[i] is the node-owned copy. insert always sets shared, so a
	// live node is never read with a stale alias.
	shared     *line
	prev, next int32
	// succ is a successor hint: the node that was looked up right after
	// this one last time. Replays are repetitive, so the hint usually
	// short-circuits the next map probe; it is validated against the
	// computed key (dead nodes zero their key), never trusted.
	succ int32
}

func newDBCache(capacity int) *dbCache {
	c := &dbCache{
		capacity: capacity,
		head:     -1, tail: -1, free: -1,
	}
	c.dir.gen = 1
	return c
}

// resolve returns node i's line: the memo alias when shared, else the
// node-owned copy.
func (c *dbCache) resolve(i int32) *line {
	if ln := c.nodes[i].shared; ln != nil {
		return ln
	}
	return &c.lines[i]
}

// insert stores a line in the cache, returning the node that holds it
// and whether an LRU victim was evicted. shared marks ln as stable for
// the pipeline's life (a FillMemo segment), letting the node alias it
// instead of copying; scratch and overlay lines are copied.
func (c *dbCache) insert(key uint64, ln *line, shared bool) (idx int32, evicted bool) {
	if i := c.dir.get(key); i >= 0 {
		n := &c.nodes[i]
		if shared {
			n.shared = ln
		} else {
			n.shared = nil
			c.lines[i].copyFrom(ln)
		}
		c.touch(i)
		return i, false
	}
	i := c.alloc()
	n := &c.nodes[i]
	n.key = key
	if shared {
		n.shared = ln
	} else {
		n.shared = nil
		c.lines[i].copyFrom(ln)
	}
	c.dir.set(key, i)
	c.pushFront(i)
	c.count++
	if c.capacity > 0 && c.count > c.capacity {
		c.evict()
		return i, true
	}
	return i, false
}

// alloc returns a node index, recycling the free list before growing
// the arena.
func (c *dbCache) alloc() int32 {
	if i := c.free; i >= 0 {
		c.free = c.nodes[i].next
		return i
	}
	c.nodes = append(c.nodes, cacheNode{})
	c.lines = append(c.lines, line{})
	return int32(len(c.nodes) - 1)
}

func (c *dbCache) touch(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}

func (c *dbCache) pushFront(i int32) {
	n := &c.nodes[i]
	n.prev = -1
	n.next = c.head
	if c.head >= 0 {
		c.nodes[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

func (c *dbCache) unlink(i int32) {
	n := &c.nodes[i]
	if n.prev >= 0 {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next >= 0 {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

func (c *dbCache) evict() {
	i := c.tail
	if i < 0 {
		return
	}
	c.unlink(i)
	c.dir.set(c.nodes[i].key, -1)
	// Zero the key so stale successor hints can never validate against a
	// free node (live keys always have a nonzero code id in the high half).
	c.nodes[i].key = 0
	c.nodes[i].next = c.free
	c.free = i
	c.count--
}

// reset empties the cache, keeping the directory rows and the node arena
// (with their member capacity) for reuse — a context-switch Flush in
// the no-reuse modes walks the resident list and allocates nothing.
func (c *dbCache) reset() {
	for i := c.head; i >= 0; {
		next := c.nodes[i].next
		c.nodes[i].key = 0
		c.nodes[i].next = c.free
		c.free = i
		i = next
	}
	c.dir.clear()
	c.head, c.tail = -1, -1
	c.count = 0
}

func (c *dbCache) size() int { return c.count }

// Why fill is memoizable: the line the fill unit builds is a pure
// function of the step window it consumes, the ConstOperands annotations
// over that window, and — when the line ends for a reason other than a
// control-flow opcode or the end of the trace — the two steps just past
// the window (the break candidate and its fold-lookahead). A segment
// records the fill result together with everything that decision depended
// on; reuse verifies all of it against the current trace and falls back
// to a real fill on any mismatch, so memoized and direct replays are
// indistinguishable. Keys share the packed (code id, pc) word with the
// DB cache; code is immutable and a pipeline never outlives one block's
// id space, so a key names one bytecode location for the pipeline's
// whole life and the memo is never invalidated.
type segment struct {
	// ln is the assembled line, ready for dbCache.insert to copy —
	// callers must treat it as read-only. hasLine mirrors fill returning
	// nil (a single uncacheable instruction).
	ln      line
	hasLine bool
	// consumed is how many trace steps the window covers.
	consumed int
	// folded/forwarded are the FoldedPairs / ForwardedRAWs stat deltas
	// one execution of this fill contributes.
	folded    uint64
	forwarded uint64
	// constMask bit j holds ConstOperands of window step j.
	constMask uint32
	term      uint8
	// Context past the window, checked only for termNext: the pc of the
	// break candidate and of its fold-lookahead, whether each exists and
	// shares the window's call frame, and their ConstOperands (a fold at
	// the candidate reads the lookahead step's annotation too).
	nextPC    [2]uint64
	nextOK    [2]bool
	nextSame  [2]bool
	nextConst [2]bool
}

const (
	// termEnder: the line ended at a control-flow opcode; the decision
	// looked at nothing past the window.
	termEnder uint8 = iota
	// termEnd: the trace ended exactly at the window's edge.
	termEnd
	// termNext: the break depended on the steps just past the window
	// (unit conflict, second RAW, or call-frame change).
	termNext
)

// constAt mirrors annAt for the one annotation fill reads.
func constAt(ann []Annotation, i int) bool {
	return ann != nil && i < len(ann) && ann[i].ConstOperands
}

// segMaxConsumed bounds memoized windows so constMask's 32 bits always
// cover them; fill lines hold at most one member per functional unit
// (each covering ≤ 2 steps), so real windows never get near this.
const segMaxConsumed = 32

// Pipeline is the per-PU instruction timing model. It retains DB-cache
// contents across Execute calls; Flush models a context switch without
// reuse. Every step it replays must carry the dense CodeID/TouchID its
// block's arch.SymbolTable assigned.
type Pipeline struct {
	cfg   arch.Config
	cache *dbCache
	stats Stats

	// sink receives instrumentation events when non-nil; the hot loop
	// pays one nil check per DB-cache transaction (lookup/fill/evict),
	// never per instruction. puID labels the events.
	sink obs.Sink
	puID int

	// scratch is the fill unit's assembly buffer, reused across fills so
	// a miss that ends up uncacheable (side-table entries re-streamed on
	// every replay) costs no allocation; insert copies it into the cache.
	scratch line

	// sideTable records addresses of single-instruction fills, keyed by
	// the same packed word as cache lines. They are never cached
	// ("fetching a single instruction from the DB cache is considered to
	// be inefficient", §3.4.1) but the hardware keeps their addresses so
	// the hotspot optimizer sees complete execution paths.
	sideTable genDir

	// pend batches DB-cache counters for the sink between commit
	// boundaries; pendContract attributes them (events of different
	// contracts never share a batch). syms is the symbol table of the
	// steps being replayed, which names pendContract (SetSymbols).
	pend         obs.DBDelta
	pendContract types.Address
	syms         *arch.SymbolTable

	// segIdx/segArena memoize fill results by packed line key. This is
	// software memoization of a pure function, not modeled hardware
	// state, so Flush leaves it alone — the no-reuse modes re-fill their
	// caches every transaction without re-deriving the same segmentation.
	segIdx   codeDir
	segArena []segment

	// memo is an optional shared segmentation consulted before the
	// private overlay (SetFillMemo).
	memo *FillMemo
}

// New returns a pipeline for the configuration.
func New(cfg arch.Config) *Pipeline {
	p := &Pipeline{
		cfg:       cfg,
		cache:     newDBCache(cfg.DBCacheEntries),
		sideTable: genDir{gen: 1},
	}
	p.segIdx.gen = 1
	return p
}

// Config returns the configuration the pipeline was built with.
func (p *Pipeline) Config() arch.Config { return p.cfg }

// Reset returns the pipeline to its just-constructed state while
// keeping every arena allocation warm (DB-cache nodes and lines, their
// member capacity, directory rows, overlay segments), so a pooled
// pipeline replays a new plan set with near-zero allocation. Unlike
// Flush, Reset also empties the private fill overlay — interned code
// ids are per-plan-set, so stale segments from another set could alias.
// Stats are cleared; replays after Reset are byte-identical to a fresh
// pipeline's.
func (p *Pipeline) Reset() {
	p.cache.reset()
	p.sideTable.reset()
	p.segIdx.clear()
	p.segArena = p.segArena[:0]
	p.memo = nil
	p.stats = Stats{}
	p.pend.Reset()
	p.pendContract = types.Address{}
	p.syms = nil
}

// packKey is the identity of the line starting at s, packed into the one
// word the DB cache, the side table and the fill memos are keyed by:
// dense code id high, entry pc low (bytecode offsets fit 32 bits).
func packKey(s *evm.Step) uint64 {
	return uint64(s.CodeID)<<32 | uint64(uint32(s.PC))
}

// mix64 is the splitmix64 finalizer — the avalanche behind line.keySum,
// which sums mixed pcs so that reordered or substituted windows cannot
// cancel out the way raw pc sums would.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SetSink attaches an instrumentation sink (nil disables) emitting
// events labelled with puID.
func (p *Pipeline) SetSink(s obs.Sink, puID int) {
	p.sink = s
	p.puID = puID
}

// SetSymbols names the symbol table whose ids the next replayed steps
// carry. Only a replay with a sink attached reads it, to attribute
// DB-cache events to contract addresses.
func (p *Pipeline) SetSymbols(st *arch.SymbolTable) { p.syms = st }

// Flush clears the DB cache and side table (used when ReuseContext is
// off). Both keep their backing storage, so the per-transaction flush
// of the no-reuse modes allocates nothing.
func (p *Pipeline) Flush() {
	p.cache.reset()
	p.sideTable.reset()
}

// SideTableLen reports how many single-instruction addresses the side
// table holds.
func (p *Pipeline) SideTableLen() int { return p.sideTable.count }

// Stats returns the accumulated counters.
func (p *Pipeline) Stats() Stats { return p.stats }

// ResetStats zeroes the counters (the cache is left intact).
func (p *Pipeline) ResetStats() { p.stats = Stats{} }

// CacheLines returns the number of resident DB-cache lines.
func (p *Pipeline) CacheLines() int { return p.cache.size() }

// foldableConsumers are the second halves of recognized fold patterns: a
// stack-manipulation instruction (PUSH/DUP/SWAP) immediately feeding one
// of these is synthesized into a single instruction on the consumer's
// functional unit (§3.3.4: "when a foldable pattern occurs, the fill unit
// fills the synthesized instruction directly into the cache line"). The
// R/W sequence numbers let the synthesized instruction address its
// operands directly, so the stack op vanishes from the issue stream.
var foldableConsumers = func() (t [256]bool) {
	for _, op := range []evm.Opcode{
		evm.EQ, evm.LT, evm.GT, evm.SLT, evm.SGT, evm.ISZERO, evm.NOT,
		evm.ADD, evm.SUB, evm.MUL, evm.DIV, evm.AND, evm.OR, evm.XOR,
		evm.SHR, evm.SHL, evm.MSTORE, evm.SLOAD,
	} {
		t[op] = true
	}
	return
}()

// foldKind classifies the folded stack producer.
type foldKind int

const (
	foldNone foldKind = iota
	// foldImmediate: a PUSH supplies one operand as an immediate.
	foldImmediate
	// foldAddressed: a DUP/SWAP is subsumed by R/W-sequence-number
	// operand addressing; the operand count is unchanged but the stack
	// op leaves the issue stream.
	foldAddressed
)

// reconfigurable units complete in half a cycle and can forward their
// results to each other (§3.3.4).
func reconfigurable(u evm.FuncUnit) bool {
	switch u {
	case evm.FUStack, evm.FULogic, evm.FUArithmetic, evm.FUFixedAccess:
		return true
	}
	return false
}

// lineEnder reports opcodes that always terminate a line after inclusion:
// control-flow changes and context switches.
func lineEnder(op evm.Opcode) bool {
	switch op.Unit() {
	case evm.FUBranch:
		return op != evm.JUMPDEST
	case evm.FUControl, evm.FUContext:
		return true
	}
	return false
}

// HotStep is the compact per-step image of the replay hit path: the
// step's packed line key (dense code id high, pc low), its latency class
// and its call depth — 16 bytes against evm.Step's cache-line-and-a-half,
// so the line-head load and the member walk of Execute stream an order
// of magnitude less memory. Instructions with a stall class still load
// the full step for their latency inputs.
type HotStep struct {
	Key   uint64
	Class uint8
	// Depth is the call depth (≤ evm.CallDepthLimit, so uint16 is exact);
	// with the code id in Key's high half it answers sameFrame without
	// the step.
	Depth uint16
}

// sameFrame is the step-level sameFrame on the compact image: equal
// depth and equal code id.
func (h *HotStep) sameFrame(o *HotStep) bool {
	return h.Depth == o.Depth && h.Key>>32 == o.Key>>32
}

// HotPlan is the per-plan precomputation Execute replays from: the
// compact HotStep image plus gas prefix sums and a next-stall index, so
// the hit and miss paths charge any window's gas with one subtraction
// and walk only the instructions that can stall.
type HotPlan struct {
	Steps []HotStep
	// GasPrefix[i] is the total gas of Steps[:i] (len(Steps)+1 entries).
	GasPrefix []uint64
	// NextStall[i] is the first index >= i whose latency class is not
	// latNone (len(Steps)+1 entries; NextStall[len] == len), so stall
	// walks advance stall-to-stall in ascending order — the MemModel
	// sees every access in trace order.
	NextStall []int32
	// Words[i] is the step's memory footprint in 32-byte words — the
	// SHA3/copy stall multiplier — so flat stall walks never load the
	// 56-byte step.
	Words []uint32
	// NoPrefetch records that no annotation marks a prefetched access,
	// making every flat-memory stall a pure function of the latency
	// class (plus SHA3/copy footprints) — the precondition for serving
	// hits from line.flatWorst.
	NoPrefetch bool
	// KeySum[i] is the sum of mix64'd pcs of Steps[:i] (len(Steps)+1
	// entries), so the hit path checks a whole window's pc sequence
	// against line.keySum with one subtraction.
	KeySum []uint64
}

// NewHotPlan precomputes the replay image of an interned step stream and
// its annotations (nil = none). The packed ranges are bounded by the
// interpreter — pc by evm.MaxCodeSize, depth by evm.CallDepthLimit, and
// a memory footprint is materialized before its step is traced — so a
// step outside them is a trace-construction bug and panics.
func NewHotPlan(steps []evm.Step, ann []Annotation) *HotPlan {
	n := len(steps)
	hp := &HotPlan{
		Steps:      make([]HotStep, n),
		GasPrefix:  make([]uint64, n+1),
		NextStall:  make([]int32, n+1),
		Words:      make([]uint32, n),
		NoPrefetch: true,
		KeySum:     make([]uint64, n+1),
	}
	for i := range steps {
		s := &steps[i]
		w := (s.MemBytes + 31) / 32
		if s.PC > math.MaxUint32 || s.Depth < 0 || s.Depth > math.MaxUint16 || w > math.MaxUint32 {
			panic(fmt.Sprintf("pipeline: step %d (pc %d, depth %d, %d memory bytes) is outside the packed ranges",
				i, s.PC, s.Depth, s.MemBytes))
		}
		hp.Steps[i] = HotStep{
			Key:   packKey(s),
			Class: latClass[s.Op],
			Depth: uint16(s.Depth),
		}
		hp.GasPrefix[i+1] = hp.GasPrefix[i] + s.GasCost
		hp.KeySum[i+1] = hp.KeySum[i] + mix64(s.PC)
		hp.Words[i] = uint32(w)
	}
	hp.NextStall[n] = int32(n)
	for i := n - 1; i >= 0; i-- {
		if hp.Steps[i].Class != latNone {
			hp.NextStall[i] = int32(i)
		} else {
			hp.NextStall[i] = hp.NextStall[i+1]
		}
	}
	for i := range ann {
		if ann[i].Prefetched {
			hp.NoPrefetch = false
			break
		}
	}
	return hp
}

// Execute replays one instruction stream through the pipeline and returns
// the cycles it consumed. steps and ann are parallel slices (ann may be
// nil for no hotspot annotations), hp is NewHotPlan(steps, ann), and mem
// resolves data latencies (nil = FlatMem under the pipeline's config).
//
// The plan only removes redundant work from the walks: gas comes from
// prefix sums, stall walks skip stall-free instructions (they stay
// ascending, so a stateful MemModel observes every access in trace
// order), and checking a resident line against the window it is about to
// serve is one keySum prefix subtraction — the window's mixed-pc sum
// equals line.keySum exactly when every pc matches, up to a negligible
// 2^-64 mix collision.
func (p *Pipeline) Execute(steps []evm.Step, ann []Annotation, hp *HotPlan, mem MemModel) uint64 {
	if len(hp.Steps) != len(steps) {
		panic("pipeline: hot plan built from a different step stream")
	}
	if mem == nil {
		mem = FlatMem{Cfg: p.cfg}
	}
	hot, gp, ns, words := hp.Steps, hp.GasPrefix, hp.NextStall, hp.Words
	var cycles uint64

	if !p.cfg.EnableDBCache {
		// Pure scalar: one issue per cycle plus stalls.
		cycles = uint64(len(steps))
		for j := int(ns[0]); j < len(steps); j = int(ns[j+1]) {
			cycles += p.classLat(hot[j].Class, &steps[j], annAt(ann, j), mem)
		}
		p.stats.Instructions += uint64(len(steps))
		p.stats.IssueCycles += uint64(len(steps))
		p.stats.GasCharged += gp[len(steps)]
		p.stats.Cycles += cycles
		return cycles
	}

	// Under a flat memory model agreeing with the pipeline's config on
	// every latency a stall walk can read, with no prefetched
	// annotations, stalls are a pure function of the latency class and
	// footprint: hits use the precomputed line.flatWorst and walks use
	// the devirtualized flatLat. Field-wise compare — a whole-Config
	// equality is a memeq per call.
	fm, isFlat := mem.(FlatMem)
	flatOK := isFlat && hp.NoPrefetch &&
		fm.Cfg.MainMemLat == p.cfg.MainMemLat &&
		fm.Cfg.StorageWriteLat == p.cfg.StorageWriteLat &&
		fm.Cfg.ContextSwitchLat == p.cfg.ContextSwitchLat &&
		fm.Cfg.Sha3PerWordLat == p.cfg.Sha3PerWordLat &&
		fm.Cfg.CopyPerWordLat == p.cfg.CopyPerWordLat
	// Streaming counters accumulate in locals and land in p.stats once
	// at the end, so the loop body touches no heap-resident counters.
	var instructions, issueCycles, lineHits, lineMisses, hitInstructions, gasCharged uint64
	// last is the previous line's cache node; its successor hint usually
	// resolves the next lookup without probing the directory.
	last := int32(-1)

	for i := 0; i < len(steps); {
		key := hot[i].Key
		ni := int32(-1)
		if last >= 0 {
			if h := p.cache.nodes[last].succ; h >= 0 && p.cache.nodes[h].key == key {
				ni = h
			}
		}
		if ni < 0 {
			ni = p.cache.dir.get(key)
		}
		if ni >= 0 {
			p.cache.touch(ni)
			ln := p.cache.resolve(ni)
			if end := i + ln.count; end <= len(steps) &&
				hp.KeySum[end]-hp.KeySum[i] == ln.keySum {
				// Hit: the whole line issues in one cycle; stalls overlap,
				// so the line costs 1 + the slowest member. A tag match
				// alone is not enough — the Contract Table rewrites hot
				// traces, so two variants of the same contract can share an
				// entry key with different downstream streams; the keySum
				// check sends the stale variant down the miss path, which
				// refills the line.
				if p.sink != nil {
					p.obsLookup(&steps[i], true, ln.count)
				}
				gasCharged += gp[end] - gp[i]
				var worst uint64
				if flatOK && ln.flatWorst != lineDynStall {
					worst = uint64(ln.flatWorst)
				} else {
					for j := int(ns[i]); j < end; j = int(ns[j+1]) {
						var l uint64
						if flatOK {
							l = p.flatLat(hot[j].Class, uint64(words[j]))
						} else {
							l = p.classLat(hot[j].Class, &steps[j], annAt(ann, j), mem)
						}
						if l > worst {
							worst = l
						}
					}
				}
				cycles += 1 + worst
				issueCycles++
				lineHits++
				hitInstructions += uint64(ln.count)
				instructions += uint64(ln.count)
				if last >= 0 {
					p.cache.nodes[last].succ = ni
				}
				last = ni
				i = end
				continue
			}
		}

		// Miss: instructions stream through the scalar path while the
		// fill unit builds a line alongside (memoized — the segmentation
		// is a pure function of the trace window).
		lineMisses++
		ln, consumed, stable := p.fillCached(steps, ann, hot, i, key)
		if p.sink != nil {
			p.obsLookup(&steps[i], false, consumed)
		}
		end := i + consumed
		gasCharged += gp[end] - gp[i]
		cycles += uint64(consumed)
		for j := int(ns[i]); j < end; j = int(ns[j+1]) {
			if flatOK {
				cycles += p.flatLat(hot[j].Class, uint64(words[j]))
			} else {
				cycles += p.classLat(hot[j].Class, &steps[j], annAt(ann, j), mem)
			}
		}
		instructions += uint64(consumed)
		issueCycles += uint64(consumed)
		if ln != nil && ln.count >= max(2, p.cfg.MinLineInstructions) {
			idx, evicted := p.cache.insert(key, ln, stable)
			p.stats.LinesCached++
			if evicted {
				p.stats.LineEvictions++
			}
			if p.sink != nil {
				p.pend.AddFill(ln.count)
				if evicted {
					p.pend.Evictions++
				}
			}
			if last >= 0 {
				p.cache.nodes[last].succ = idx
			}
			last = idx
		} else {
			if consumed == 1 {
				// §3.4.1: record the lone instruction's address only.
				p.sideTable.add(key)
			}
			last = -1
		}
		i = end
	}
	p.stats.Cycles += cycles
	p.stats.Instructions += instructions
	p.stats.IssueCycles += issueCycles
	p.stats.LineHits += lineHits
	p.stats.LineMisses += lineMisses
	p.stats.HitInstructions += hitInstructions
	p.stats.GasCharged += gasCharged
	if p.sink != nil {
		p.flushObs()
	}
	return cycles
}

// obsLookup batches one DB-cache lookup at step s for the sink,
// flushing the pending delta when the executing contract changes so
// attribution stays exact. Only called with a non-nil sink, so only an
// observed replay resolves code ids to addresses.
func (p *Pipeline) obsLookup(s *evm.Step, hit bool, insts int) {
	contract := p.syms.CodeAddr(s.CodeID)
	if contract != p.pendContract && !p.pend.Empty() {
		p.flushObs()
	}
	p.pendContract = contract
	p.pend.Lookups++
	if hit {
		p.pend.Hits++
		p.pend.HitInstructions += uint64(insts)
	} else {
		p.pend.Misses++
	}
}

// flushObs hands the pending delta to the sink — the commit-boundary
// flush of the batched obs scheme.
func (p *Pipeline) flushObs() {
	if p.pend.Empty() {
		return
	}
	p.sink.DBFlush(p.puID, p.pendContract, &p.pend)
	p.pend.Reset()
}

// segValid reports whether replaying fill at start would reproduce seg
// exactly: the window's pcs and call frame, its ConstOperands, and —
// when the original fill's break looked past the window — the break
// context must all match what was recorded. It reads the compact step
// image (pc and frame from the packed key and depth); n is the stream
// length.
func (p *Pipeline) segValid(seg *segment, hot []HotStep, ann []Annotation, start, n int) bool {
	if start+seg.consumed > n {
		return false
	}
	h0 := &hot[start]
	k := start
	for mi := range seg.ln.insts {
		m := &seg.ln.insts[mi]
		if m.hasFolded {
			h := &hot[k]
			if uint64(uint32(h.Key)) != m.foldedPC || !h0.sameFrame(h) {
				return false
			}
			k++
		}
		h := &hot[k]
		if uint64(uint32(h.Key)) != m.pc || !h0.sameFrame(h) {
			return false
		}
		k++
	}
	if ann == nil {
		if seg.constMask != 0 {
			return false
		}
	} else {
		for j := 0; j < seg.consumed; j++ {
			if constAt(ann, start+j) != ((seg.constMask>>uint(j))&1 != 0) {
				return false
			}
		}
	}
	switch seg.term {
	case termEnder:
		// A control-flow opcode ended the line; nothing past the window
		// was consulted.
		return true
	case termEnd:
		return start+seg.consumed == n
	}
	// termNext: the break candidate (and possibly its fold lookahead)
	// shaped the decision.
	j := start + seg.consumed
	if j >= n {
		return false
	}
	b0 := &hot[j]
	if h0.sameFrame(b0) != seg.nextSame[0] {
		return false
	}
	if !seg.nextSame[0] {
		// The break was the frame change itself; only the frame flag of
		// the candidate was ever read.
		return true
	}
	if uint64(uint32(b0.Key)) != seg.nextPC[0] || constAt(ann, j) != seg.nextConst[0] {
		return false
	}
	if (j+1 < n) != seg.nextOK[1] {
		return false
	}
	if seg.nextOK[1] {
		b1 := &hot[j+1]
		if h0.sameFrame(b1) != seg.nextSame[1] {
			return false
		}
		if seg.nextSame[1] && (uint64(uint32(b1.Key)) != seg.nextPC[1] || constAt(ann, j+1) != seg.nextConst[1]) {
			return false
		}
	}
	return true
}

// fillCached returns fill's result for the window at start, serving it
// from the segment memo when the recorded context still matches and
// recording a fresh segment (replacing any stale one) otherwise. Memo
// segments are verified against the compact step image; real fills read
// the full steps. The stable result reports whether the returned line
// pointer outlives the call unchanged for the pipeline's whole life:
// true only for shared-memo segments (the memo is frozen after
// construction). Overlay segments live in segArena, which may still grow
// and move, and real fills return the reused scratch buffer — both must
// be copied if retained.
func (p *Pipeline) fillCached(steps []evm.Step, ann []Annotation, hot []HotStep, start int, key uint64) (ln *line, consumed int, stable bool) {
	n := len(hot)
	if m := p.memo; m != nil {
		if si := m.idx.get(key); si >= 0 {
			if seg := &m.arena[si]; p.segValid(seg, hot, ann, start, n) {
				p.stats.FoldedPairs += seg.folded
				p.stats.ForwardedRAWs += seg.forwarded
				if !seg.hasLine {
					return nil, seg.consumed, false
				}
				return &seg.ln, seg.consumed, true
			}
		}
	}
	if si := p.segIdx.get(key); si >= 0 {
		if seg := &p.segArena[si]; p.segValid(seg, hot, ann, start, n) {
			p.stats.FoldedPairs += seg.folded
			p.stats.ForwardedRAWs += seg.forwarded
			if !seg.hasLine {
				return nil, seg.consumed, false
			}
			// The caller only reads the line (insert copies it), so the
			// memo's own copy is handed out directly.
			return &seg.ln, seg.consumed, false
		}
	}
	f0, r0 := p.stats.FoldedPairs, p.stats.ForwardedRAWs
	ln, consumed = p.fill(steps, ann, start)
	recordInto(&p.segIdx, &p.segArena, key, ln, consumed, steps, ann, start,
		p.stats.FoldedPairs-f0, p.stats.ForwardedRAWs-r0)
	return ln, consumed, false
}

// recordInto stores the outcome of one real fill into a memo's storage;
// shared by the per-pipeline overlay and FillMemo construction.
func recordInto(idx *codeDir, arena *[]segment, key uint64, ln *line, consumed int, steps []evm.Step, ann []Annotation, start int, folded, forwarded uint64) {
	if consumed > segMaxConsumed {
		return
	}
	si := idx.get(key)
	if si < 0 {
		// Reslice before appending so a truncated arena (pooled pipeline
		// reuse) hands back its old segments' member capacity.
		if n := len(*arena); n < cap(*arena) {
			*arena = (*arena)[:n+1]
		} else {
			*arena = append(*arena, segment{})
		}
		si = int32(len(*arena) - 1)
		idx.set(key, si)
	}
	seg := &(*arena)[si]
	var lastOp evm.Opcode
	if ln != nil {
		seg.ln.copyFrom(ln)
		seg.hasLine = true
		lastOp = ln.insts[len(ln.insts)-1].op
	} else {
		// Single uncacheable instruction; never folded (a folded pair
		// counts two instructions and is cached as a line).
		seg.ln.insts = seg.ln.insts[:0]
		seg.ln.count = 0
		seg.hasLine = false
		lastOp = steps[start].Op
	}
	seg.consumed = consumed
	seg.folded = folded
	seg.forwarded = forwarded
	seg.constMask = 0
	for j := 0; j < consumed; j++ {
		if constAt(ann, start+j) {
			seg.constMask |= 1 << uint(j)
		}
	}
	seg.nextPC = [2]uint64{}
	seg.nextOK = [2]bool{}
	seg.nextSame = [2]bool{}
	seg.nextConst = [2]bool{}
	end := start + consumed
	switch {
	case lineEnder(lastOp):
		seg.term = termEnder
	case end >= len(steps):
		seg.term = termEnd
	default:
		seg.term = termNext
		b0 := &steps[end]
		seg.nextOK[0] = true
		seg.nextPC[0] = b0.PC
		seg.nextSame[0] = sameFrame(&steps[start], b0)
		seg.nextConst[0] = constAt(ann, end)
		if end+1 < len(steps) {
			b1 := &steps[end+1]
			seg.nextOK[1] = true
			seg.nextPC[1] = b1.PC
			seg.nextSame[1] = sameFrame(&steps[start], b1)
			seg.nextConst[1] = constAt(ann, end+1)
		}
	}
}

// FillMemo is a fill-segmentation memo shared across pipelines: the
// canonical segments of a plan set, computed once and consulted
// read-only by every PU and every replay of the same cached entry.
// Reuse goes through the same segValid verification as the private
// overlay, so a memo built from one trace serves another only where the
// decision context genuinely matches.
type FillMemo struct {
	cfg   arch.Config
	idx   codeDir
	arena []segment

	// builder drives the real fill unit during construction; it is not
	// used after AddTrace calls stop.
	builder *Pipeline
}

// NewFillMemo returns an empty memo recording segments under the
// configuration's fill rules. SetFillMemo refuses memos whose build
// configuration could yield different lines (see fillCompatible).
func NewFillMemo(cfg arch.Config) *FillMemo {
	m := &FillMemo{
		cfg:     cfg,
		builder: New(cfg),
	}
	m.idx.gen = 1
	return m
}

// AddTrace walks one trace's canonical segmentation — the chain a cold
// pipeline produces, starting at the trace head and advancing by each
// fill's consumed count — and records the first segment seen per line
// key. Construction must be single-threaded; replays treat the memo as
// immutable.
func (m *FillMemo) AddTrace(steps []evm.Step, ann []Annotation) {
	b := m.builder
	for i := 0; i < len(steps); {
		f0, r0 := b.stats.FoldedPairs, b.stats.ForwardedRAWs
		ln, consumed := b.fill(steps, ann, i)
		key := packKey(&steps[i])
		if m.idx.get(key) < 0 {
			recordInto(&m.idx, &m.arena, key, ln, consumed, steps, ann, i,
				b.stats.FoldedPairs-f0, b.stats.ForwardedRAWs-r0)
		}
		i += consumed
	}
}

// SetFillMemo attaches a shared memo consulted before the pipeline's
// private overlay. A memo built under an incompatible configuration is
// ignored entirely, so attaching one can never change timing — only
// skip re-deriving identical segmentations.
func (p *Pipeline) SetFillMemo(m *FillMemo) {
	if m != nil && !fillCompatible(m.cfg, p.cfg) {
		m = nil
	}
	p.memo = m
}

// fillCompatible reports whether lines filled under a reproduce lines
// filled under b exactly: the same folding/forwarding rules (which shape
// segmentation) and the same flat-memory latencies (which are baked into
// line.flatWorst at fill time). SHA3/copy per-word rates are excluded —
// lines with those members carry the lineDynStall sentinel regardless.
func fillCompatible(a, b arch.Config) bool {
	return a.EnableFolding == b.EnableFolding &&
		a.EnableForwarding == b.EnableForwarding &&
		a.MainMemLat == b.MainMemLat &&
		a.StorageWriteLat == b.StorageWriteLat &&
		a.ContextSwitchLat == b.ContextSwitchLat
}

// fill implements the fill unit: starting at steps[start], pack
// instructions into one line until a functional-unit conflict, an
// unabsorbable RAW, or a control-flow change. Returns the line (nil if
// only one instruction fit) and how many trace steps it covers.
func (p *Pipeline) fill(steps []evm.Step, ann []Annotation, start int) (*line, int) {
	ln := &p.scratch
	ln.count = 0
	ln.insts = ln.insts[:0]
	unitUsed := [evm.NumFuncUnits + 1]bool{}
	// flatWorst/flatDyn accumulate the line's precomputed worst stall
	// under a flat memory model with no prefetching (see line.flatWorst).
	var flatWorst uint64
	flatDyn := false
	// produced tracks how many of the virtual stack's top values were
	// pushed by instructions already in this line (the RAW window).
	produced := 0
	forwardingUsed := false
	lastProducerUnit := evm.FUInvalid

	i := start
	for i < len(steps) {
		s := &steps[i]
		a := annAt(ann, i)
		op := s.Op
		unit := op.Unit()

		// Folding: a stack op feeding a foldable consumer synthesizes
		// into one instruction on the consumer's unit (§3.3.4).
		fold := foldNone
		var foldedPC uint64
		if p.cfg.EnableFolding && i+1 < len(steps) && sameFrame(s, &steps[i+1]) {
			next := &steps[i+1]
			if foldableConsumers[next.Op] && !unitUsed[next.Op.Unit()] {
				switch {
				case op.IsPush():
					fold = foldImmediate
				case op.IsDup() || op.IsSwap():
					fold = foldAddressed
				}
				if fold != foldNone {
					foldedPC = s.PC
					op = next.Op
					unit = op.Unit()
					s = next
					a = annAt(ann, i+1)
				}
			}
		}

		if unitUsed[unit] {
			break // the field for this functional unit is already filled
		}

		// Dependency analysis. Reads against values produced in-line are
		// RAW; WAR/WAW never end a line (R/W sequence numbers).
		reads := op.Pops()
		if fold == foldImmediate {
			reads-- // the folded PUSH supplies one operand as an immediate
		}
		if a.ConstOperands {
			reads = 0 // operands come from the Constants Table
		}
		raw := reads
		if raw > produced {
			raw = produced
		}
		if raw > 0 && len(ln.insts) > 0 {
			if raw == 1 && p.cfg.EnableForwarding && !forwardingUsed && reconfigurable(lastProducerUnit) {
				forwardingUsed = true
				p.stats.ForwardedRAWs++
			} else {
				break // second RAW (or forwarding unavailable) ends the line
			}
		}

		m := member{pc: s.PC, op: op}
		if fold != foldNone {
			m.foldedPC = foldedPC
			m.hasFolded = true
			ln.count += 2
			i += 2
			p.stats.FoldedPairs++
		} else {
			ln.count++
			i++
		}
		ln.insts = append(ln.insts, m)
		unitUsed[unit] = true

		// Folded producers are stack ops (latNone), so member ops alone
		// determine the line's flat-memory stall profile.
		switch latClass[op] {
		case latNone:
		case latStorageRead, latStateQuery:
			if p.cfg.MainMemLat > flatWorst {
				flatWorst = p.cfg.MainMemLat
			}
		case latStorageWrite:
			if p.cfg.StorageWriteLat > flatWorst {
				flatWorst = p.cfg.StorageWriteLat
			}
		case latContext:
			if p.cfg.ContextSwitchLat > flatWorst {
				flatWorst = p.cfg.ContextSwitchLat
			}
		default: // latSha3, latCopy — stall depends on the memory footprint
			flatDyn = true
		}

		pops := op.Pops()
		if fold == foldImmediate {
			pops--
		}
		produced -= pops
		if produced < 0 {
			produced = 0
		}
		produced += op.Pushes()
		if op.Pushes() > 0 {
			lastProducerUnit = unit
		}

		if lineEnder(op) {
			break
		}
		// A line cannot cross into a different call frame.
		if i < len(steps) && !sameFrame(s, &steps[i]) {
			break
		}
	}

	consumed := i - start
	if consumed == 0 {
		// Defensive: always make progress even if the first instruction
		// could not be placed (cannot happen with an empty line).
		consumed = 1
	}
	if len(ln.insts) < 2 && ln.count < 2 {
		// Single-instruction lines are not cached (§3.4.1) — hardware
		// records only their address in the hotspot side table.
		return nil, consumed
	}
	if flatDyn || flatWorst >= uint64(lineDynStall) {
		ln.flatWorst = lineDynStall
	} else {
		ln.flatWorst = uint32(flatWorst)
	}
	var ks uint64
	for j := start; j < start+consumed; j++ {
		ks += mix64(steps[j].PC)
	}
	ln.keySum = ks
	return ln, consumed
}

// sameFrame reports whether two steps execute in the same call frame, so
// a line never spans a context switch. Interned ids stand in for the
// 20-byte address compare: within one block's symbol table, equal
// addresses and equal ids coincide.
func sameFrame(a, b *evm.Step) bool {
	return a.Depth == b.Depth && a.CodeID == b.CodeID
}

// Latency classes partition opcodes by which extra-latency rule applies,
// so the hot loop pays one table index instead of a chain of opcode and
// unit comparisons (latNone — no stall — is by far the common case).
const (
	latNone uint8 = iota
	latSha3
	latStorageRead
	latStorageWrite
	latStateQuery
	latContext
	latCopy
)

var latClass = func() (t [256]uint8) {
	for i := 0; i < 256; i++ {
		op := evm.Opcode(i)
		switch {
		case op == evm.SHA3:
			t[i] = latSha3
		case op == evm.SLOAD:
			t[i] = latStorageRead
		case op == evm.SSTORE:
			t[i] = latStorageWrite
		case op.Unit() == evm.FUStateQuery:
			t[i] = latStateQuery
		case op.Unit() == evm.FUContext:
			t[i] = latContext
		case op == evm.CALLDATACOPY || op == evm.CODECOPY ||
			op == evm.RETURNDATACOPY || op == evm.EXTCODECOPY,
			op >= evm.LOG0 && op <= evm.LOG4:
			t[i] = latCopy
		}
	}
	return
}()

// classLat resolves the stall cycles for a non-latNone class: hashing,
// copies, storage and state-query accesses, and context switches.
func (p *Pipeline) classLat(c uint8, s *evm.Step, a Annotation, mem MemModel) uint64 {
	words := func(n uint64) uint64 { return (n + 31) / 32 }
	switch c {
	case latSha3:
		return p.cfg.Sha3PerWordLat * words(s.MemBytes)
	case latStorageRead:
		return mem.StorageRead(s, a.Prefetched)
	case latStorageWrite:
		return mem.StorageWrite(s)
	case latStateQuery:
		return mem.StateQuery(s, a.Prefetched)
	case latContext:
		return p.cfg.ContextSwitchLat
	case latCopy:
		return p.cfg.CopyPerWordLat * words(s.MemBytes)
	}
	return 0
}

// flatLat is classLat specialized to a FlatMem agreeing with the
// pipeline's config, with no prefetched annotations — Execute's flatOK
// precondition. words is the step's precomputed footprint
// (HotPlan.Words); the returned stalls are identical to classLat's.
func (p *Pipeline) flatLat(c uint8, words uint64) uint64 {
	switch c {
	case latSha3:
		return p.cfg.Sha3PerWordLat * words
	case latStorageRead, latStateQuery:
		return p.cfg.MainMemLat
	case latStorageWrite:
		return p.cfg.StorageWriteLat
	case latContext:
		return p.cfg.ContextSwitchLat
	case latCopy:
		return p.cfg.CopyPerWordLat * words
	}
	return 0
}

func annAt(ann []Annotation, i int) Annotation {
	if ann == nil || i >= len(ann) {
		return Annotation{}
	}
	return ann[i]
}
