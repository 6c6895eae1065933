// Command clearinspect inspects workload atomic regions statically: it
// disassembles every AR of a benchmark and prints the mutability analysis
// behind Table 1. It runs no simulation.
//
// To watch the execution modes (speculative, failed-mode discovery, S-CL,
// NS-CL, fallback) event by event, record a run with memory events and
// dump it:
//
//	cleartrace record -bench mwobject -config W -cores 2 -ops 3 -mem -o run.trace
//	cleartrace dump run.trace
//
// Usage:
//
//	clearinspect                    # list the benchmarks
//	clearinspect -bench sorted-list # disassembly + analysis
//
// Exit status follows the uniform policy: 2 = usage error (unknown
// benchmark, bad flags).
package main

import (
	"flag"
	"fmt"

	"repro/internal/cliutil"
	"repro/internal/isa"
	"repro/internal/workload"
)

func main() {
	cliutil.SetTool("clearinspect")
	bench := flag.String("bench", "", "benchmark to inspect (empty: list all)")
	flag.Parse()

	if *bench == "" {
		fmt.Println("benchmarks:")
		for _, n := range workload.Names() {
			fmt.Printf("  %s\n", n)
		}
		return
	}

	w, err := workload.New(*bench)
	if err != nil {
		cliutil.Usagef("unknown benchmark %q (run clearinspect with no -bench to list)", *bench)
	}

	fmt.Printf("benchmark %s: %d atomic regions\n\n", w.Name(), len(w.ARs()))
	for _, p := range w.ARs() {
		a := isa.Analyze(p)
		fmt.Print(isa.Disassemble(p))
		fmt.Printf("   classification: %s", a.Mutability)
		if a.HasIndirection {
			fmt.Print(" (has indirection)")
		}
		if a.WritesIndirection {
			fmt.Print(" (modifies its own indirection chain)")
		}
		fmt.Printf("\n   static loads=%d stores=%d branches=%d\n\n", a.Loads, a.Stores, a.Branches)
	}
}
