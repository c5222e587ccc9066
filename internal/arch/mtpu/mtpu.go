// Package mtpu assembles the multi-transaction processing unit: NumPUs
// processing units sharing an execution-environment buffer whose State
// Buffer serves recently touched state at buffer latency instead of main
// memory (§3.3.6), exactly the reuse channel the redundancy optimization
// exploits between transactions that touch the same contract state.
package mtpu

import (
	"mtpu/internal/arch"
	"mtpu/internal/arch/pipeline"
	"mtpu/internal/arch/pu"
	"mtpu/internal/evm"
	"mtpu/internal/obs"
)

// StateBuffer is the shared recently-touched-state cache. Modified state
// is written back after commit but "the state of dependent transactions
// is kept for a period of time so that subsequent transactions are able
// to access it directly". Entries are identified by the dense TouchID
// the trace-build symbol table assigned (storage slots and account
// states share the one id space), so a touch is two array indexes and an
// LRU splice — no hashing of the 53-byte (kind, addr, slot) key — and
// all storage (the id-indexed directory plus a node arena with a free
// list) is reused, so a warm buffer never allocates.
type StateBuffer struct {
	capacity int
	// dir maps TouchIDs (1-based) to their arena node, -1 when absent. It
	// grows to the largest id seen and is never shrunk.
	dir   []int32
	nodes []sbNode
	// LRU list plus free list as arena indexes (-1 = none).
	head, tail, free int32
	count            int

	Hits, Misses uint64
}

type sbNode struct {
	id         uint32
	prev, next int32
}

// NewStateBuffer returns a buffer holding up to capacity entries.
func NewStateBuffer(capacity int) *StateBuffer {
	return &StateBuffer{capacity: capacity, head: -1, tail: -1, free: -1}
}

// TouchID records an access to the interned key id and reports whether
// it hit.
func (b *StateBuffer) TouchID(id uint32) bool {
	slot := b.dirSlot(id)
	if i := *slot; i >= 0 {
		b.unlink(i)
		b.pushFront(i)
		b.Hits++
		return true
	}
	i := b.alloc()
	n := &b.nodes[i]
	n.id = id
	*slot = i
	b.pushFront(i)
	b.count++
	if b.capacity > 0 && b.count > b.capacity {
		victim := b.tail
		b.unlink(victim)
		*b.dirSlot(b.nodes[victim].id) = -1
		b.nodes[victim].next = b.free
		b.free = victim
		b.count--
	}
	b.Misses++
	return false
}

// dirSlot returns the directory cell for id, growing the directory on
// first sight.
func (b *StateBuffer) dirSlot(id uint32) *int32 {
	for len(b.dir) <= int(id) {
		b.dir = append(b.dir, -1)
	}
	return &b.dir[id]
}

// Reset empties the buffer while keeping the directory and node arena
// for reuse. TouchIDs are per-plan-set, so resident entries must be
// dropped before the buffer serves another set.
func (b *StateBuffer) Reset() {
	for i := b.head; i >= 0; {
		next := b.nodes[i].next
		*b.dirSlot(b.nodes[i].id) = -1
		b.nodes[i].next = b.free
		b.free = i
		i = next
	}
	b.head, b.tail = -1, -1
	b.count = 0
	b.Hits, b.Misses = 0, 0
}

func (b *StateBuffer) alloc() int32 {
	if i := b.free; i >= 0 {
		b.free = b.nodes[i].next
		return i
	}
	b.nodes = append(b.nodes, sbNode{})
	return int32(len(b.nodes) - 1)
}

func (b *StateBuffer) pushFront(i int32) {
	n := &b.nodes[i]
	n.prev = -1
	n.next = b.head
	if b.head >= 0 {
		b.nodes[b.head].prev = i
	}
	b.head = i
	if b.tail < 0 {
		b.tail = i
	}
}

func (b *StateBuffer) unlink(i int32) {
	n := &b.nodes[i]
	if n.prev >= 0 {
		b.nodes[n.prev].next = n.next
	} else {
		b.head = n.next
	}
	if n.next >= 0 {
		b.nodes[n.next].prev = n.prev
	} else {
		b.tail = n.prev
	}
}

// Len returns the number of resident entries.
func (b *StateBuffer) Len() int { return b.count }

// Processor is the MTPU: the PUs plus the shared memory system.
type Processor struct {
	Cfg  arch.Config
	PUs  []*pu.PU
	SBuf *StateBuffer
}

// New builds a processor with cfg.NumPUs processing units.
func New(cfg arch.Config) *Processor {
	m := &Processor{
		Cfg:  cfg,
		SBuf: NewStateBuffer(cfg.StateBufferSlots),
	}
	for i := 0; i < cfg.NumPUs; i++ {
		m.PUs = append(m.PUs, pu.New(i, cfg))
	}
	return m
}

// Reset returns the processor to its just-constructed state — every PU
// and the State Buffer cleared, all arenas kept warm — so a pooled
// processor replays a new block byte-identically to a fresh one.
func (m *Processor) Reset() {
	m.SBuf.Reset()
	for _, p := range m.PUs {
		p.Reset()
	}
}

// SetSink attaches an instrumentation sink to every PU's pipeline
// (nil disables). Call before dispatching work.
func (m *Processor) SetSink(s obs.Sink) {
	for _, p := range m.PUs {
		p.SetSink(s)
	}
}

// Mem returns the memory model PUs execute against.
func (m *Processor) Mem() pipeline.MemModel {
	return procMem{m}
}

// procMem implements pipeline.MemModel over the shared State Buffer,
// indexed by each step's TouchID.
type procMem struct{ m *Processor }

// StorageRead implements pipeline.MemModel.
func (pm procMem) StorageRead(s *evm.Step, prefetched bool) uint64 {
	cfg := &pm.m.Cfg
	if prefetched {
		return cfg.DCacheLat
	}
	if cfg.ReuseContext && pm.m.SBuf.TouchID(s.TouchID) {
		return cfg.EnvBufferLat
	}
	return cfg.MainMemLat
}

// StorageWrite implements pipeline.MemModel. Writes land in the State
// Buffer and are written back off the critical path.
func (pm procMem) StorageWrite(s *evm.Step) uint64 {
	cfg := &pm.m.Cfg
	if cfg.ReuseContext {
		pm.m.SBuf.TouchID(s.TouchID)
	}
	return cfg.StorageWriteLat
}

// StateQuery implements pipeline.MemModel.
func (pm procMem) StateQuery(s *evm.Step, prefetched bool) uint64 {
	cfg := &pm.m.Cfg
	if prefetched {
		return cfg.DCacheLat
	}
	if cfg.ReuseContext && pm.m.SBuf.TouchID(s.TouchID) {
		return cfg.EnvBufferLat
	}
	return cfg.MainMemLat
}

// PipelineStats sums the pipeline counters of every PU.
func (m *Processor) PipelineStats() pipeline.Stats {
	var s pipeline.Stats
	for _, p := range m.PUs {
		s.Add(p.Pipeline().Stats())
	}
	return s
}
