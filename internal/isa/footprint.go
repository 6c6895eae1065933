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
// indirections. On success it returns the distinct lines touched, each
// marked with whether any store hits it.
func EvalFootprint(p *Program, regs [NumRegs]uint64) (accesses []FootprintAccess, ok bool) {
	var unknown uint32 // the Taint set: values no static evaluation can know
	lineIdx := make(map[mem.LineAddr]int)
	pc := 0
	for steps := 0; steps < maxFootprintSteps; steps++ {
		if pc < 0 || pc >= len(p.Code) {
			return nil, false
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
				return nil, false // address depends on a loaded value
			}
			l := mem.Addr(regs[in.Src1] + uint64(in.Imm)).Line()
			written := in.Op == OpStore
			if i, seen := lineIdx[l]; seen {
				accesses[i].Written = accesses[i].Written || written
			} else {
				lineIdx[l] = len(accesses)
				accesses = append(accesses, FootprintAccess{Line: l, Written: written})
			}
		case OpBeq, OpBne, OpBlt, OpBge, OpJump:
			if unknown&in.SrcMask() != 0 {
				return nil, false // control depends on a loaded value
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
			return nil, false
		}
		unknown = in.Taint(unknown)
		pc++
	}
	return nil, false
}
