package isa

import "repro/internal/mem"

// FootprintAccess is one statically-determined memory access of an AR.
type FootprintAccess struct {
	Line    mem.LineAddr
	Written bool
}

// maxFootprintSteps bounds the evaluation (static footprints come from
// loop-free or immediate-bounded programs; anything longer is not
// MCAS-friendly anyway).
const maxFootprintSteps = 4096

// EvalFootprint determines an AR's memory footprint before execution, the
// way the multi-address atomic proposals of §2.2 (MCAS [33], MAD atomics
// [16]) require: addresses must be computable from the preset registers
// alone. It runs the program on the interpreter's instruction rules (ALU,
// Taken, Taint) from the register values regs, with the Taint set standing
// for the values it cannot know, and fails (ok=false) as soon as an address
// or a branch depends on one — exactly the cases the paper calls
// indirections. On success it returns the distinct lines touched, in the
// order of their first access, each marked with whether any store hits it.
//
// The lines are appended to accesses[:0], and the slice comes back on
// failure too, emptied: a caller that passes back what it got evaluates
// without allocating once the slice has grown to its largest footprint.
// Footprints are a few lines, so a linear scan finds a line seen before.
func EvalFootprint(p *Program, regs [NumRegs]uint64, accesses []FootprintAccess) ([]FootprintAccess, bool) {
	accesses = accesses[:0]
	var unknown uint32 // the Taint set: values no static evaluation can know
	pc := 0
	for steps := 0; steps < maxFootprintSteps; steps++ {
		if pc < 0 || pc >= len(p.Code) {
			return accesses[:0], false
		}
		in := p.Code[pc]
		switch in.Op {
		case OpNop, OpRdTsc:
			// The cycle counter cannot be known statically; Taint below
			// marks OpRdTsc's destination unknown.
		case OpLoadImm, OpMov, OpAdd, OpAddImm, OpSub, OpMulImm, OpAndImm, OpShrImm, OpXor:
			regs[in.Dst] = in.ALU(regs[in.Src1], regs[in.Src2])
		case OpLoad, OpStore:
			if unknown&(1<<in.Src1) != 0 {
				return accesses[:0], false // address depends on a loaded value
			}
			l := mem.Addr(regs[in.Src1] + uint64(in.Imm)).Line()
			i := 0
			for i < len(accesses) && accesses[i].Line != l {
				i++
			}
			if i == len(accesses) {
				accesses = append(accesses, FootprintAccess{Line: l})
			}
			accesses[i].Written = accesses[i].Written || in.Op == OpStore
		case OpBeq, OpBne, OpBlt, OpBge, OpJump:
			if unknown&in.SrcMask() != 0 {
				return accesses[:0], false // control depends on a loaded value
			}
			if in.Taken(regs[in.Src1], regs[in.Src2]) {
				pc = int(in.Imm)
				continue
			}
		case OpHalt:
			return accesses, true
		default:
			// An explicitly aborting path (OpXAbort) has no static
			// completion.
			return accesses[:0], false
		}
		unknown = in.Taint(unknown)
		pc++
	}
	return accesses[:0], false
}
