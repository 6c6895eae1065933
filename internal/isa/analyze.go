package isa

// Mutability is the Table 1 classification of an AR's memory footprint
// across retries.
type Mutability int

const (
	// Immutable: no indirections and no control dependence on loaded
	// values; the footprint is identical on every re-execution (Listing 1).
	Immutable Mutability = iota
	// LikelyImmutable: the footprint depends on loaded values, but those
	// values are not modified by concurrent ARs (Listing 2).
	LikelyImmutable
	// Mutable: the footprint depends on values that concurrent ARs modify,
	// including ARs that modify their own indirection chain (Listing 3).
	Mutable
)

func (m Mutability) String() string {
	switch m {
	case Immutable:
		return "immutable"
	case LikelyImmutable:
		return "likely-immutable"
	case Mutable:
		return "mutable"
	}
	return "unknown"
}

// Analysis is the static summary of one AR program.
type Analysis struct {
	Program *Program
	// HasIndirection: some address operand or conditional branch operand is
	// (transitively) load-derived.
	HasIndirection bool
	// WritesIndirection: the AR stores to lines it also uses as indirection
	// sources — the self-mutating case (e.g. list insertion).
	WritesIndirection bool
	// Loads, Stores and Branches count static instructions by kind.
	Loads, Stores, Branches int
	Mutability              Mutability
}

// Analyze performs the static dataflow the hardware indirection bits
// compute dynamically (§5): Instr.Taint, the rule the interpreter's
// indirection bits follow, is the transfer function. The analysis runs to a
// fixed point over the (unstructured) control flow so loop-carried taint —
// the sorted-list curr = curr->next pattern — is found.
func Analyze(p *Program) Analysis {
	a := Analysis{Program: p}

	// taintIn[i] is the set of tainted registers before instruction i.
	taintIn := make([]uint32, len(p.Code))

	// Fixed-point propagation (programs are tiny; iterate until stable).
	for changed := true; changed; {
		changed = false
		for i, in := range p.Code {
			out := in.Taint(taintIn[i])
			propagate := func(to int) {
				if to < len(p.Code) && taintIn[to]|out != taintIn[to] {
					taintIn[to] |= out
					changed = true
				}
			}
			switch {
			case in.Op == OpJump:
				propagate(int(in.Imm))
			case in.Op.IsConditional():
				propagate(int(in.Imm))
				propagate(i + 1)
			case in.Op == OpHalt || in.Op == OpXAbort:
				// No successor.
			default:
				propagate(i + 1)
			}
		}
	}

	for i, in := range p.Code {
		taint := taintIn[i]
		switch {
		case in.Op == OpLoad:
			a.Loads++
			if taint&(1<<uint(in.Src1)) != 0 {
				a.HasIndirection = true
			}
		case in.Op == OpStore:
			a.Stores++
			if taint&(1<<uint(in.Src1)) != 0 {
				a.HasIndirection = true
				a.WritesIndirection = true
			}
		case in.Op.IsConditional():
			a.Branches++
			if taint&in.SrcMask() != 0 {
				// Control dependence on a loaded value is treated like a
				// data dependence (§3).
				a.HasIndirection = true
			}
		}
	}

	switch {
	case !a.HasIndirection:
		a.Mutability = Immutable
	case p.IndirectionsImmutable:
		// The workload vouches that nothing — concurrent ARs or this AR
		// itself — rewrites the values feeding the indirections. A store
		// through a tainted address (WritesIndirection) is compatible with
		// that claim when it targets data fields rather than the pointer
		// chain (the bitcoin balance update of Listing 2); statically
		// separating the two needs type knowledge the hardware does not
		// have either, so the declaration decides.
		a.Mutability = LikelyImmutable
	default:
		a.Mutability = Mutable
	}
	return a
}
