package isa

import (
	"testing"

	"repro/internal/mem"
)

func TestEvalFootprintDirect(t *testing.T) {
	b := NewBuilder("swap")
	b.Load(R8, R0, 0)
	b.Load(R9, R1, 0)
	b.Store(R0, 0, R9)
	b.Store(R1, 0, R8)
	b.Halt()
	p := b.Build(1)

	accesses, ok := EvalFootprint(p, [NumRegs]uint64{R0: 0x1000, R1: 0x2000})
	if !ok {
		t.Fatal("direct AR footprint not computable")
	}
	if len(accesses) != 2 {
		t.Fatalf("%d lines, want 2", len(accesses))
	}
	want := map[mem.LineAddr]bool{mem.Addr(0x1000).Line(): true, mem.Addr(0x2000).Line(): true}
	for _, a := range accesses {
		if !want[a.Line] || !a.Written {
			t.Fatalf("unexpected access %+v", a)
		}
	}
}

func TestEvalFootprintComputedAddress(t *testing.T) {
	// addr = base + idx*64: computable from preset registers.
	b := NewBuilder("indexed")
	b.Muli(R8, R1, 64)
	b.Add(R8, R8, R0)
	b.Load(R9, R8, 0)
	b.Store(R8, 0, R9)
	b.Halt()
	p := b.Build(1)
	accesses, ok := EvalFootprint(p, [NumRegs]uint64{R0: 0x4000, R1: 3})
	if !ok || len(accesses) != 1 {
		t.Fatalf("ok=%v accesses=%v", ok, accesses)
	}
	if accesses[0].Line != mem.Addr(0x4000+3*64).Line() {
		t.Fatalf("line %v", accesses[0].Line)
	}
}

func TestEvalFootprintRejectsIndirection(t *testing.T) {
	b := NewBuilder("ptr")
	b.Load(R8, R0, 0)
	b.Load(R9, R8, 0) // address from a loaded value
	b.Halt()
	if _, ok := EvalFootprint(b.Build(1), [NumRegs]uint64{R0: 0x1000}); ok {
		t.Fatal("indirection accepted as static footprint")
	}
}

func TestEvalFootprintRejectsDataBranch(t *testing.T) {
	b := NewBuilder("branchy")
	b.Load(R8, R0, 0)
	b.Beq(R8, R14, "skip")
	b.Store(R1, 0, R8)
	b.Label("skip")
	b.Halt()
	if _, ok := EvalFootprint(b.Build(1), [NumRegs]uint64{R0: 0x1000, R1: 0x2000}); ok {
		t.Fatal("loaded-value branch accepted")
	}
}

func TestEvalFootprintImmediateLoop(t *testing.T) {
	// A loop bounded by preset registers is statically evaluable.
	b := NewBuilder("loop")
	b.Li(R8, 0)
	b.Label("loop")
	b.Bge(R8, R1, "done")
	b.Muli(R9, R8, 64)
	b.Add(R9, R9, R0)
	b.Store(R9, 0, R14)
	b.Addi(R8, R8, 1)
	b.Jump("loop")
	b.Label("done")
	b.Halt()
	accesses, ok := EvalFootprint(b.Build(1), [NumRegs]uint64{R0: 0x8000, R1: 5})
	if !ok || len(accesses) != 5 {
		t.Fatalf("ok=%v lines=%d, want 5", ok, len(accesses))
	}
}

func TestEvalFootprintRejectsRdTsc(t *testing.T) {
	b := NewBuilder("tsc")
	b.RdTsc(R8)
	b.Store(R8, 0, R14) // address from a non-deterministic source
	b.Halt()
	if _, ok := EvalFootprint(b.Build(1), [NumRegs]uint64{}); ok {
		t.Fatal("rdtsc-derived address accepted")
	}
}

func TestEvalFootprintRejectsRunaway(t *testing.T) {
	b := NewBuilder("forever")
	b.Label("loop")
	b.Jump("loop")
	if _, ok := EvalFootprint(b.Build(1), [NumRegs]uint64{}); ok {
		t.Fatal("non-terminating program accepted")
	}
}

func TestRdTscIsIndirection(t *testing.T) {
	b := NewBuilder("tsc-branch")
	b.RdTsc(R8)
	b.Beq(R8, R14, "skip")
	b.Nop()
	b.Label("skip")
	b.Halt()
	a := Analyze(b.Build(1))
	if !a.HasIndirection || a.Mutability != Mutable {
		t.Fatalf("rdtsc control dependence classified %v", a.Mutability)
	}
}
