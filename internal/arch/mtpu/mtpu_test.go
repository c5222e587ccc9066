package mtpu

import (
	"testing"

	"mtpu/internal/arch"
	"mtpu/internal/evm"
	"mtpu/internal/types"
)

var (
	acctA = types.HexToAddress("0x00000000000000000000000000000000000000d1")
	slotX = types.BytesToHash([]byte{0x11})
	slotY = types.BytesToHash([]byte{0x22})
)

func TestStateBufferLRU(t *testing.T) {
	b := NewStateBuffer(2)
	const k1, k2, k3 = 1, 2, 3

	if b.TouchID(k1) {
		t.Fatal("cold hit")
	}
	if !b.TouchID(k1) {
		t.Fatal("warm miss")
	}
	b.TouchID(k2)
	b.TouchID(k1) // refresh k1; k2 is now LRU
	b.TouchID(k3) // evicts k2
	if b.TouchID(k2) {
		t.Fatal("evicted key hit")
	}
	// Re-inserting k2 evicted k1 (capacity 2: k3, k2 resident).
	if b.TouchID(k1) {
		t.Fatal("k1 survived k2's reinsertion")
	}
	if b.Len() != 2 {
		t.Fatalf("len %d", b.Len())
	}
}

func TestStateBufferStats(t *testing.T) {
	b := NewStateBuffer(10)
	b.TouchID(1)
	b.TouchID(1)
	b.TouchID(1)
	if b.Hits != 2 || b.Misses != 1 {
		t.Fatalf("hits %d misses %d", b.Hits, b.Misses)
	}
}

// syms interns the hand-built steps below, as a Collector would; storage
// slots and account states share its TouchID space.
var syms = arch.NewSymbolTable()

// storStep builds an interned storage-access step.
func storStep(addr types.Address, slot types.Hash) *evm.Step {
	s := &evm.Step{Op: evm.SLOAD}
	syms.Intern(s, &types.Address{}, &addr, &slot)
	return s
}

func TestProcessorMemLatencies(t *testing.T) {
	cfg := arch.DefaultConfig()
	m := New(cfg)
	mem := m.Mem()

	// Cold storage read → main memory; warm → env buffer.
	if got := mem.StorageRead(storStep(acctA, slotX), false); got != cfg.MainMemLat {
		t.Fatalf("cold read %d", got)
	}
	if got := mem.StorageRead(storStep(acctA, slotX), false); got != cfg.EnvBufferLat {
		t.Fatalf("warm read %d", got)
	}
	// Prefetched → dcache regardless of buffer.
	if got := mem.StorageRead(storStep(acctA, slotY), true); got != cfg.DCacheLat {
		t.Fatalf("prefetched read %d", got)
	}
	// Writes cost the write latency and warm the buffer.
	if got := mem.StorageWrite(storStep(acctA, slotY)); got != cfg.StorageWriteLat {
		t.Fatalf("write %d", got)
	}
	if got := mem.StorageRead(storStep(acctA, slotY), false); got != cfg.EnvBufferLat {
		t.Fatalf("read after write %d", got)
	}
	// Account queries share the buffer.
	q := &evm.Step{Op: evm.BALANCE}
	syms.Intern(q, &types.Address{}, &acctA, &types.Hash{})
	if got := mem.StateQuery(q, false); got != cfg.MainMemLat {
		t.Fatalf("cold query %d", got)
	}
	if got := mem.StateQuery(q, false); got != cfg.EnvBufferLat {
		t.Fatalf("warm query %d", got)
	}
}

func TestReuseOffDisablesStateBuffer(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.ReuseContext = false
	m := New(cfg)
	mem := m.Mem()
	mem.StorageRead(storStep(acctA, slotX), false)
	if got := mem.StorageRead(storStep(acctA, slotX), false); got != cfg.MainMemLat {
		t.Fatalf("state buffer active with reuse off: %d", got)
	}
	if m.SBuf.Len() != 0 {
		t.Fatal("buffer populated with reuse off")
	}
}

func TestProcessorBuildsPUs(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.NumPUs = 6
	m := New(cfg)
	if len(m.PUs) != 6 {
		t.Fatalf("%d PUs", len(m.PUs))
	}
	for i, p := range m.PUs {
		if p.ID != i {
			t.Fatalf("PU %d has ID %d", i, p.ID)
		}
	}
	// Aggregated stats start zeroed.
	if s := m.PipelineStats(); s.Instructions != 0 || s.Cycles != 0 {
		t.Fatalf("fresh stats %+v", s)
	}
}

func TestStateBufferResetDropsEntries(t *testing.T) {
	b := NewStateBuffer(4)
	b.TouchID(2)
	b.TouchID(7)
	b.TouchID(7)
	if b.Len() != 2 || b.Hits != 1 {
		t.Fatalf("len %d hits %d before reset", b.Len(), b.Hits)
	}

	b.Reset()
	if b.Len() != 0 || b.Hits != 0 || b.Misses != 0 {
		t.Fatalf("len %d hits %d misses %d after reset", b.Len(), b.Hits, b.Misses)
	}
	// Every reset key is cold again — the ids belonged to the previous
	// plan set's symbol table and must not alias whatever set comes next.
	if b.TouchID(7) || b.TouchID(2) {
		t.Fatal("stale TouchID survived Reset")
	}
}

func TestStateBufferResetMatchesFresh(t *testing.T) {
	touch := func(b *StateBuffer) (hits, misses uint64) {
		for round := 0; round < 3; round++ {
			for id := uint32(1); id <= 24; id++ {
				b.TouchID(id)
			}
		}
		return b.Hits, b.Misses
	}
	fresh := NewStateBuffer(16)
	fh, fm := touch(fresh)

	reused := NewStateBuffer(16)
	for id := uint32(1); id <= 40; id += 3 { // arbitrary prior block
		reused.TouchID(id)
	}
	reused.Reset()
	rh, rm := touch(reused)
	if rh != fh || rm != fm {
		t.Fatalf("reused buffer hits/misses %d/%d, fresh %d/%d", rh, rm, fh, fm)
	}
}

// TestStateBufferWarmTouchZeroAllocs pins the arena layout property the
// perf pass depends on: once a working set is resident, touches are pure
// array/LRU operations.
func TestStateBufferWarmTouchZeroAllocs(t *testing.T) {
	b := NewStateBuffer(64)
	for id := uint32(1); id <= 32; id++ {
		b.TouchID(id)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for id := uint32(1); id <= 32; id++ {
			b.TouchID(id)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm State Buffer touches allocated %.1f times per run", allocs)
	}
}

func TestProcessorResetClearsPUs(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.NumPUs = 2
	m := New(cfg)
	m.SBuf.TouchID(3)
	m.PUs[0].LastContract = acctA
	m.PUs[1].BusyUntil = 99

	m.Reset()
	if m.SBuf.Len() != 0 {
		t.Fatalf("state buffer kept %d entries", m.SBuf.Len())
	}
	if m.PUs[0].LastContract != (types.Address{}) || m.PUs[1].BusyUntil != 0 {
		t.Fatal("PU state survived Reset")
	}
}
