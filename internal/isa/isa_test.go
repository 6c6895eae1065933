package isa

import (
	"strings"
	"testing"
)

func TestBuilderLabels(t *testing.T) {
	b := NewBuilder("t")
	b.Li(R1, 5)
	b.Label("loop")
	b.Addi(R1, R1, -1)
	b.Bne(R1, R14, "loop")
	b.Halt()
	p := b.Build(1)
	if p.Code[2].Imm != 1 {
		t.Fatalf("branch target %d, want 1 (the label)", p.Code[2].Imm)
	}
}

func TestBuilderForwardLabel(t *testing.T) {
	b := NewBuilder("t")
	b.Beq(R0, R1, "end")
	b.Nop()
	b.Label("end")
	b.Halt()
	p := b.Build(1)
	if p.Code[0].Imm != 2 {
		t.Fatalf("forward branch target %d, want 2", p.Code[0].Imm)
	}
}

func TestBuilderUndefinedLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("undefined label did not panic")
		}
	}()
	b := NewBuilder("t")
	b.Jump("nowhere")
	b.Halt()
	b.Build(1)
}

func TestBuilderDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate label did not panic")
		}
	}()
	b := NewBuilder("t")
	b.Label("x")
	b.Nop()
	b.Label("x")
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	cases := []Program{
		{Name: "empty"},
		{Name: "no-halt", Code: []Instr{{Op: OpNop}}},
		{Name: "bad-target", Code: []Instr{{Op: OpJump, Imm: 9}, {Op: OpHalt}}},
	}
	for _, p := range cases {
		p := p
		if err := p.Validate(); err == nil {
			t.Errorf("program %q validated", p.Name)
		}
	}
}

func TestSrcRegs(t *testing.T) {
	cases := []struct {
		in   Instr
		want []Reg
	}{
		{Instr{Op: OpLoadImm, Dst: R1, Src1: R2}, nil},
		{Instr{Op: OpMov, Dst: R1, Src1: R2, Src2: R3}, []Reg{R2}},
		{Instr{Op: OpLoad, Dst: R1, Src1: R2}, []Reg{R2}},
		{Instr{Op: OpStore, Src1: R3, Src2: R4}, []Reg{R3, R4}},
		{Instr{Op: OpAdd, Dst: R1, Src1: R2, Src2: R3}, []Reg{R2, R3}},
		{Instr{Op: OpAddImm, Dst: R1, Src1: Reg(31), Src2: R3}, []Reg{Reg(31)}},
		{Instr{Op: OpBeq, Src1: R5, Src2: R6}, []Reg{R5, R6}},
		{Instr{Op: OpRdTsc, Dst: R1, Src1: R2}, nil},
		{Instr{Op: OpJump, Src1: R2, Src2: R3}, nil},
	}
	for _, c := range cases {
		var want uint32
		for _, r := range c.want {
			want |= 1 << r
		}
		if got := c.in.SrcMask(); got != want {
			t.Errorf("%v: SrcMask = %#x, want %#x", c.in, got, want)
		}
	}
}

func TestDisassembleMentionsEveryInstr(t *testing.T) {
	b := NewBuilder("demo")
	b.Li(R1, 7)
	b.Load(R2, R1, 8)
	b.Store(R1, 0, R2)
	b.Beq(R1, R2, "end")
	b.Label("end")
	b.Halt()
	text := Disassemble(b.Build(3))
	for _, want := range []string{"demo", "li r1, 7", "ld r2, [r1+8]", "st [r1+0], r2", "beq r1, r2, @4", "halt", "->"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly missing %q:\n%s", want, text)
		}
	}
}

// --- Analyzer classification tests ---------------------------------------

func progDirect() *Program {
	b := NewBuilder("direct")
	b.Load(R8, R0, 0)
	b.Addi(R8, R8, 1)
	b.Store(R0, 0, R8)
	b.Halt()
	return b.Build(1)
}

func progPtrChase(declare bool) *Program {
	b := NewBuilder("ptr")
	if declare {
		b.DeclareIndirectionsImmutable()
	}
	b.Load(R8, R0, 0) // pointer
	b.Load(R9, R8, 0) // through it: indirection
	b.Store(R8, 0, R9)
	b.Halt()
	return b.Build(2)
}

func progTraversal() *Program {
	b := NewBuilder("walk")
	b.Load(R8, R0, 0)
	b.Label("loop")
	b.Beq(R8, R14, "done")
	b.Load(R8, R8, 8) // loop-carried indirection
	b.Jump("loop")
	b.Label("done")
	b.Halt()
	return b.Build(3)
}

func progBranchOnLoad() *Program {
	b := NewBuilder("branchy")
	b.Load(R8, R0, 0)
	b.Beq(R8, R14, "skip")
	b.Store(R1, 0, R8) // addresses all preset
	b.Label("skip")
	b.Halt()
	return b.Build(4)
}

func TestAnalyzeImmutable(t *testing.T) {
	a := Analyze(progDirect())
	if a.Mutability != Immutable || a.HasIndirection {
		t.Fatalf("direct AR classified %v (indir=%v)", a.Mutability, a.HasIndirection)
	}
	if a.Loads != 1 || a.Stores != 1 {
		t.Fatalf("counted %d loads %d stores", a.Loads, a.Stores)
	}
}

func TestAnalyzePointerChase(t *testing.T) {
	if a := Analyze(progPtrChase(false)); a.Mutability != Mutable || !a.HasIndirection {
		t.Fatalf("undeclared pointer chase classified %v", a.Mutability)
	}
	if a := Analyze(progPtrChase(true)); a.Mutability != LikelyImmutable {
		t.Fatalf("declared pointer chase classified %v, want likely-immutable", a.Mutability)
	}
}

func TestAnalyzeLoopCarriedTaint(t *testing.T) {
	a := Analyze(progTraversal())
	if !a.HasIndirection || a.Mutability != Mutable {
		t.Fatalf("traversal classified %v (indir=%v); loop-carried taint missed", a.Mutability, a.HasIndirection)
	}
}

// TestAnalyzeControlDependence: a branch on a loaded value is an indirection
// even when every address is preset (§3: "control dependencies are treated
// similarly to data dependencies").
func TestAnalyzeControlDependence(t *testing.T) {
	a := Analyze(progBranchOnLoad())
	if !a.HasIndirection {
		t.Fatal("branch on loaded value not flagged as indirection")
	}
}

// TestAnalyzeTaintCleared: overwriting a load result with an immediate
// clears the taint, so later uses are not indirections.
func TestAnalyzeTaintCleared(t *testing.T) {
	b := NewBuilder("clear")
	b.Load(R8, R0, 0)
	b.Li(R8, 64)      // kills the taint
	b.Load(R9, R8, 0) // constant address: not an indirection
	b.Halt()
	a := Analyze(b.Build(5))
	if a.HasIndirection {
		t.Fatal("killed taint still reported as indirection")
	}
}

// TestAnalyzeTaintThroughALU: taint propagates through arithmetic.
func TestAnalyzeTaintThroughALU(t *testing.T) {
	b := NewBuilder("alu")
	b.Load(R8, R0, 0)
	b.Muli(R9, R8, 8)
	b.Add(R10, R9, R1)
	b.Load(R11, R10, 0) // address derived from a load
	b.Halt()
	a := Analyze(b.Build(6))
	if !a.HasIndirection {
		t.Fatal("taint lost through ALU chain")
	}
}

func TestMutabilityString(t *testing.T) {
	if Immutable.String() != "immutable" || LikelyImmutable.String() != "likely-immutable" || Mutable.String() != "mutable" {
		t.Fatal("Mutability strings wrong")
	}
}

func TestOpPredicates(t *testing.T) {
	if !OpLoad.IsMemory() || !OpStore.IsMemory() || OpAdd.IsMemory() {
		t.Fatal("IsMemory wrong")
	}
	if !OpBeq.IsBranch() || !OpJump.IsBranch() || OpHalt.IsBranch() {
		t.Fatal("IsBranch wrong")
	}
	if !OpBne.IsConditional() || OpJump.IsConditional() {
		t.Fatal("IsConditional wrong")
	}
	if Op(200).String() == "" {
		t.Fatal("unknown opcode String empty")
	}
}
