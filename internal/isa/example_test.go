package isa_test

import (
	"fmt"

	"repro/internal/isa"
)

// ExampleAnalyze builds the two archetypal atomic regions of §3 and shows
// how the static analyzer classifies them.
func ExampleAnalyze() {
	// Listing 1: arrayswap — addresses arrive in registers.
	swap := isa.NewBuilder("swap")
	swap.Load(isa.R8, isa.R0, 0)
	swap.Load(isa.R9, isa.R1, 0)
	swap.Store(isa.R0, 0, isa.R9)
	swap.Store(isa.R1, 0, isa.R8)
	swap.Halt()

	// Listing 3: a traversal — addresses come from loaded next pointers.
	walk := isa.NewBuilder("walk")
	walk.Load(isa.R8, isa.R0, 0)
	walk.Label("loop")
	walk.Beq(isa.R8, isa.R14, "done")
	walk.Load(isa.R8, isa.R8, 8)
	walk.Jump("loop")
	walk.Label("done")
	walk.Halt()

	fmt.Println(isa.Analyze(swap.Build(1)).Mutability)
	fmt.Println(isa.Analyze(walk.Build(2)).Mutability)
	// Output:
	// immutable
	// mutable
}

// ExampleEvalFootprint computes an AR's cacheline footprint a priori, the
// §2.2 requirement for MCAS-style static locking.
func ExampleEvalFootprint() {
	b := isa.NewBuilder("transfer")
	b.Load(isa.R8, isa.R0, 0)
	b.Store(isa.R0, 0, isa.R8)
	b.Load(isa.R9, isa.R1, 0)
	b.Store(isa.R1, 0, isa.R9)
	b.Halt()
	prog := b.Build(1)

	accesses, ok := isa.EvalFootprint(prog, [isa.NumRegs]uint64{
		isa.R0: 0x1000,
		isa.R1: 0x2040,
	}, nil)
	fmt.Println(ok, len(accesses))
	for _, a := range accesses {
		fmt.Println(a.Line, a.Written)
	}
	// Output:
	// true 2
	// L0x40 true
	// L0x81 true
}
