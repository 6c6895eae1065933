// Package isa defines the small register instruction set in which workload
// atomic regions (ARs) are written. Writing ARs as interpreted programs —
// rather than Go closures — makes the properties CLEAR exploits emerge
// naturally: a load whose result feeds an address register is an
// indirection, and a branch on a loaded value is a control dependence,
// exactly what the hardware indirection bits of §5 track.
package isa

import "fmt"

// Reg names an architectural register. The machine has NumRegs of them.
type Reg uint8

// NumRegs is the architectural register count.
const NumRegs = 32

// Conventional register names used by the workload builders.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
)

func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Op is an instruction opcode.
type Op uint8

const (
	// OpNop does nothing for one cycle.
	OpNop Op = iota
	// OpLoadImm: Dst = Imm.
	OpLoadImm
	// OpMov: Dst = Src1.
	OpMov
	// OpLoad: Dst = mem[Src1 + Imm] (64-bit word).
	OpLoad
	// OpStore: mem[Src1 + Imm] = Src2.
	OpStore
	// OpAdd: Dst = Src1 + Src2.
	OpAdd
	// OpAddImm: Dst = Src1 + Imm.
	OpAddImm
	// OpSub: Dst = Src1 - Src2.
	OpSub
	// OpMulImm: Dst = Src1 * Imm (index scaling).
	OpMulImm
	// OpAndImm: Dst = Src1 & Imm (masking, e.g. hash buckets).
	OpAndImm
	// OpShrImm: Dst = Src1 >> Imm.
	OpShrImm
	// OpXor: Dst = Src1 ^ Src2 (hash mixing).
	OpXor
	// OpBeq: if Src1 == Src2, jump to Imm (absolute instruction index).
	OpBeq
	// OpBne: if Src1 != Src2, jump to Imm.
	OpBne
	// OpBlt: if Src1 < Src2 (unsigned), jump to Imm.
	OpBlt
	// OpBge: if Src1 >= Src2 (unsigned), jump to Imm.
	OpBge
	// OpJump: unconditional jump to Imm.
	OpJump
	// OpRdTsc: Dst = current cycle counter — a source of non-determinism;
	// §4.1 requires such destinations to be marked as indirections because
	// re-executions may read different values.
	OpRdTsc
	// OpXAbort aborts the current AR explicitly.
	OpXAbort
	// OpHalt ends the AR (the implicit XEnd).
	OpHalt
)

var opNames = [...]string{
	OpNop:     "nop",
	OpLoadImm: "li",
	OpMov:     "mov",
	OpLoad:    "ld",
	OpStore:   "st",
	OpAdd:     "add",
	OpAddImm:  "addi",
	OpSub:     "sub",
	OpMulImm:  "muli",
	OpAndImm:  "andi",
	OpShrImm:  "shri",
	OpXor:     "xor",
	OpBeq:     "beq",
	OpBne:     "bne",
	OpBlt:     "blt",
	OpBge:     "bge",
	OpJump:    "j",
	OpRdTsc:   "rdtsc",
	OpXAbort:  "xabort",
	OpHalt:    "halt",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsMemory reports whether the opcode accesses memory.
func (o Op) IsMemory() bool { return o == OpLoad || o == OpStore }

// IsBranch reports whether the opcode may transfer control.
func (o Op) IsBranch() bool {
	switch o {
	case OpBeq, OpBne, OpBlt, OpBge, OpJump:
		return true
	}
	return false
}

// IsConditional reports whether the opcode is a conditional branch.
func (o Op) IsConditional() bool {
	switch o {
	case OpBeq, OpBne, OpBlt, OpBge:
		return true
	}
	return false
}

// Instr is one instruction. Branch targets are absolute instruction indices
// carried in Imm.
type Instr struct {
	Op   Op
	Dst  Reg
	Src1 Reg
	Src2 Reg
	Imm  int64
}

// The instruction rules below are the ISA's one definition: the cpu
// interpreter, the Table 1 analyzer (Analyze) and the static-footprint
// evaluator (EvalFootprint) all execute through them. They run on the
// interpreter's hottest path, so they must stay small enough to inline, and
// they take pointer receivers: Instr has too many fields for the compiler
// to keep in registers, and a value receiver copies it at every call.

// Operand shapes: which registers an opcode reads and what it writes.
const (
	readsSrc1 = 1 << iota
	readsSrc2
	// writesDst: the opcode writes Dst, which inherits the taint of the
	// registers it reads (none for OpLoadImm) unless taintsDst is set.
	writesDst
	// taintsDst: Dst is load-derived or non-deterministic, so it is
	// always an indirection source.
	taintsDst
)

// shapes holds each opcode's operand shape, the facts SrcMask and Taint are
// computed from. Indexing by the full uint8 range needs no bounds check;
// unlisted opcodes read and write nothing.
var shapes = [256]uint8{
	OpLoadImm: writesDst,
	OpMov:     readsSrc1 | writesDst,
	OpLoad:    readsSrc1 | writesDst | taintsDst,
	OpStore:   readsSrc1 | readsSrc2,
	OpAdd:     readsSrc1 | readsSrc2 | writesDst,
	OpAddImm:  readsSrc1 | writesDst,
	OpSub:     readsSrc1 | readsSrc2 | writesDst,
	OpMulImm:  readsSrc1 | writesDst,
	OpAndImm:  readsSrc1 | writesDst,
	OpShrImm:  readsSrc1 | writesDst,
	OpXor:     readsSrc1 | readsSrc2 | writesDst,
	OpBeq:     readsSrc1 | readsSrc2,
	OpBne:     readsSrc1 | readsSrc2,
	OpBlt:     readsSrc1 | readsSrc2,
	OpBge:     readsSrc1 | readsSrc2,
	OpRdTsc:   writesDst | taintsDst,
}

// SrcMask returns the set of registers the instruction reads, one bit per
// register. Address base registers count as sources.
func (in *Instr) SrcMask() uint32 {
	s := uint32(shapes[in.Op])
	return (s&readsSrc1)<<in.Src1 | (s&readsSrc2>>1)<<in.Src2
}

// Taint applies the §5 indirection rule: given t, the set of registers
// holding load-derived values before the instruction, it returns the set
// after it. A load or a non-determinism source (§4.1: "upon sources of
// non-determinism, affected registers should also be marked as
// indirections") taints its destination, any other register write passes
// on the taint of its sources, and an instruction that writes no register
// leaves t unchanged.
func (in *Instr) Taint(t uint32) uint32 {
	s := shapes[in.Op]
	switch {
	case s&writesDst == 0:
		return t
	case s&taintsDst != 0 || t&in.SrcMask() != 0:
		return t | 1<<in.Dst
	}
	return t &^ (1 << in.Dst)
}

// ALU returns the value a register-only instruction (OpLoadImm through
// OpXor) writes to Dst when Src1 holds a and Src2 holds b.
func (in *Instr) ALU(a, b uint64) uint64 {
	imm := uint64(in.Imm)
	switch in.Op {
	case OpLoadImm:
		return imm
	case OpMov:
		return a
	case OpAdd:
		return a + b
	case OpAddImm:
		return a + imm
	case OpSub:
		return a - b
	case OpMulImm:
		return a * imm
	case OpAndImm:
		return a & imm
	case OpShrImm:
		return a >> imm
	case OpXor:
		return a ^ b
	}
	panic("isa: ALU of an instruction that is not register-only")
}

// Taken reports whether the instruction transfers control to Imm when Src1
// holds a and Src2 holds b: a conditional branch whose condition holds, or
// OpJump.
func (in *Instr) Taken(a, b uint64) bool {
	switch in.Op {
	case OpBeq:
		return a == b
	case OpBne:
		return a != b
	case OpBlt:
		return a < b
	case OpBge:
		return a >= b
	}
	return in.Op == OpJump
}

func (in Instr) String() string {
	switch in.Op {
	case OpNop, OpXAbort, OpHalt:
		return in.Op.String()
	case OpRdTsc:
		return fmt.Sprintf("%s %s", in.Op, in.Dst)
	case OpLoadImm:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Dst, in.Imm)
	case OpMov:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Dst, in.Src1)
	case OpLoad:
		return fmt.Sprintf("%s %s, [%s+%d]", in.Op, in.Dst, in.Src1, in.Imm)
	case OpStore:
		return fmt.Sprintf("%s [%s+%d], %s", in.Op, in.Src1, in.Imm, in.Src2)
	case OpAdd, OpSub, OpXor:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Dst, in.Src1, in.Src2)
	case OpAddImm, OpMulImm, OpAndImm, OpShrImm:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Dst, in.Src1, in.Imm)
	case OpBeq, OpBne, OpBlt, OpBge:
		return fmt.Sprintf("%s %s, %s, @%d", in.Op, in.Src1, in.Src2, in.Imm)
	case OpJump:
		return fmt.Sprintf("%s @%d", in.Op, in.Imm)
	}
	return fmt.Sprintf("%s ?", in.Op)
}

// Program is one atomic region: a straight-line-or-looping instruction
// sequence executed between an implicit XBegin (entry) and XEnd (OpHalt).
type Program struct {
	// ID identifies the AR, playing the role of the first instruction's
	// program counter in the ERT (§5). IDs are unique within a workload.
	ID int
	// Name is a human-readable label, e.g. "sorted-list/insert".
	Name string
	Code []Instr
	// IndirectionsImmutable declares (workload knowledge) that the values
	// feeding this AR's indirections are never modified by concurrent ARs,
	// upgrading a would-be Mutable classification to LikelyImmutable
	// (Listing 2 of the paper, the bitcoin case).
	IndirectionsImmutable bool
}

// Validate checks branch targets and register indices; workload constructors
// call it once at build time.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("isa: program %q is empty", p.Name)
	}
	last := p.Code[len(p.Code)-1]
	if last.Op != OpHalt && last.Op != OpJump {
		return fmt.Errorf("isa: program %q does not end in halt or jump", p.Name)
	}
	for i, in := range p.Code {
		if in.Op.IsBranch() {
			if in.Imm < 0 || in.Imm >= int64(len(p.Code)) {
				return fmt.Errorf("isa: program %q instr %d: branch target %d out of range", p.Name, i, in.Imm)
			}
		}
		if in.Dst >= NumRegs || in.Src1 >= NumRegs || in.Src2 >= NumRegs {
			return fmt.Errorf("isa: program %q instr %d: register out of range", p.Name, i)
		}
	}
	return nil
}
