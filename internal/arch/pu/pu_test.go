package pu

import (
	"testing"

	"mtpu/internal/arch"
	"mtpu/internal/arch/pipeline"
	"mtpu/internal/evm"
	"mtpu/internal/types"
)

var (
	conA = types.HexToAddress("0x00000000000000000000000000000000000000a1")
	conB = types.HexToAddress("0x00000000000000000000000000000000000000b2")
)

// syms interns the steps of every hand-built trace, as a Collector would.
var syms = arch.NewSymbolTable()

// trace builds a minimal SCT trace: one code load plus a few steps.
func trace(addr types.Address, codeBytes int, ops ...evm.Opcode) *arch.TxTrace {
	t := &arch.TxTrace{Contract: addr, HasSelector: true, Selector: [4]byte{1}, Syms: syms}
	t.CodeLoads = []arch.CodeLoad{{Addr: addr, CodeBytes: codeBytes, Depth: 1}}
	pc := uint64(0)
	for _, op := range ops {
		s := evm.Step{PC: pc, Op: op, Depth: 1}
		syms.Intern(&s, &addr, &types.Address{}, &types.Hash{})
		t.Steps = append(t.Steps, s)
		pc += 1 + uint64(op.PushSize())
	}
	return t
}

func TestTransferCost(t *testing.T) {
	cfg := arch.ScalarConfig()
	p := New(0, cfg)
	tr := &arch.TxTrace{IsTransfer: true}
	cost := p.Run(PlainPlan(tr), pipeline.FlatMem{Cfg: cfg})
	want := cfg.TxSetupLat + 2*cfg.MainMemLat
	if cost.Total != want {
		t.Fatalf("transfer cost %d, want %d", cost.Total, want)
	}
	if cost.Pipeline != 0 {
		t.Fatal("transfer has pipeline cycles")
	}
}

func TestCodeLoadBandwidth(t *testing.T) {
	cfg := arch.ScalarConfig()
	p := New(0, cfg)
	tr := trace(conA, int(3*cfg.CodeLoadBytesPerCycle), evm.STOP)
	cost := p.Run(PlainPlan(tr), pipeline.FlatMem{Cfg: cfg})
	wantLoad := cfg.TxSetupLat + 3
	if cost.Load != wantLoad {
		t.Fatalf("load %d, want %d", cost.Load, wantLoad)
	}
	if cost.Total != cost.Load+cost.Pipeline {
		t.Fatal("total != load + pipeline")
	}
}

func TestResidencySkipsReload(t *testing.T) {
	cfg := arch.DefaultConfig() // ReuseContext on
	p := New(0, cfg)
	tr := trace(conA, 3200, evm.STOP)
	first := p.Run(PlainPlan(tr), pipeline.FlatMem{Cfg: cfg})
	second := p.Run(PlainPlan(tr), pipeline.FlatMem{Cfg: cfg})
	if second.Load >= first.Load {
		t.Fatalf("redundant tx reloaded code: %d vs %d", second.Load, first.Load)
	}
	if second.Load != cfg.TxSetupLat {
		t.Fatalf("warm load %d, want setup only %d", second.Load, cfg.TxSetupLat)
	}
}

func TestNoReuseAlwaysReloads(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.ReuseContext = false
	p := New(0, cfg)
	tr := trace(conA, 3200, evm.STOP)
	first := p.Run(PlainPlan(tr), pipeline.FlatMem{Cfg: cfg})
	second := p.Run(PlainPlan(tr), pipeline.FlatMem{Cfg: cfg})
	if second.Load != first.Load {
		t.Fatalf("no-reuse PU reused context: %d vs %d", second.Load, first.Load)
	}
}

func TestResidencyEviction(t *testing.T) {
	cfg := arch.DefaultConfig()
	p := New(0, cfg)
	mem := pipeline.FlatMem{Cfg: cfg}
	// Fill residency beyond capacity with distinct contracts.
	for i := 0; i < DefaultContractResidency+2; i++ {
		var a types.Address
		a[19] = byte(i + 1)
		p.Run(PlainPlan(trace(a, 640, evm.STOP)), mem)
	}
	// The first contract must have been evicted → full reload cost.
	var first types.Address
	first[19] = 1
	cost := p.Run(PlainPlan(trace(first, 640, evm.STOP)), mem)
	if cost.Load == cfg.TxSetupLat {
		t.Fatal("evicted contract served from residency")
	}
}

func TestLoadScaleAppliesFraction(t *testing.T) {
	cfg := arch.ScalarConfig()
	p := New(0, cfg)
	tr := trace(conA, 3200, evm.STOP)
	plan := PlainPlan(tr)
	plan.LoadScale = map[types.Address]float64{conA: 0.25}
	cost := p.Run(plan, pipeline.FlatMem{Cfg: cfg})
	wantLoad := cfg.TxSetupLat + (800+cfg.CodeLoadBytesPerCycle-1)/cfg.CodeLoadBytesPerCycle
	if cost.Load != wantLoad {
		t.Fatalf("scaled load %d, want %d", cost.Load, wantLoad)
	}
}

func TestBusyAccountingAndLastContract(t *testing.T) {
	cfg := arch.DefaultConfig()
	p := New(3, cfg)
	mem := pipeline.FlatMem{Cfg: cfg}
	c1 := p.Run(PlainPlan(trace(conA, 64, evm.STOP)), mem)
	c2 := p.Run(PlainPlan(trace(conB, 64, evm.STOP)), mem)
	if p.BusyCycles != c1.Total+c2.Total {
		t.Fatalf("busy %d", p.BusyCycles)
	}
	if p.TxCount != 2 {
		t.Fatalf("tx count %d", p.TxCount)
	}
	if p.LastContract != conB {
		t.Fatalf("last contract %s", p.LastContract)
	}
	if p.ID != 3 {
		t.Fatal("ID lost")
	}
}

func TestInnerCallLoadsCalleeCode(t *testing.T) {
	cfg := arch.ScalarConfig()
	p := New(0, cfg)
	tr := trace(conA, 320, evm.PUSH1, evm.STOP)
	tr.CodeLoads = append(tr.CodeLoads, arch.CodeLoad{Addr: conB, CodeBytes: 640, Depth: 2, StepIndex: 1})
	cost := p.Run(PlainPlan(tr), pipeline.FlatMem{Cfg: cfg})
	bw := cfg.CodeLoadBytesPerCycle
	wantLoad := cfg.TxSetupLat + (320+bw-1)/bw + (640+bw-1)/bw
	if cost.Load != wantLoad {
		t.Fatalf("load %d, want %d", cost.Load, wantLoad)
	}
}
