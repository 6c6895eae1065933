// Command clearfuzz drives the randomized litmus harness: it generates
// seeded random atomic-region programs over a small pool of shared
// cachelines, runs every case under the selected configurations (B, P, C, W)
// with the invariant oracle attached, and differentially validates the final
// memory state against a serial replay in the observed commit order. Any
// failure shrinks to a minimal reproducer and prints the seed, the program
// dump, and the oracle's findings; replays are bit-identical, so the seed
// alone reproduces a failure.
//
// Usage:
//
//	clearfuzz -runs 1000 -seed 1            # 1000 cases, all four configs
//	clearfuzz -configs CW -runs 200         # CLEAR configs only
//	clearfuzz -replay 42                    # re-run one seed verbosely
//	clearfuzz -inject bug                   # prove the oracle catches a
//	                                        # planted single-retry bug
//	clearfuzz -inject storm -runs 200       # fuzz under the "storm" fault
//	                                        # plan (see -inject list)
//
// Exit status is 0 iff every case is invariant-clean and serializable
// (respectively, with -inject bug, iff the planted bug is caught and shrunk).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/check"
	"repro/internal/check/fuzz"
	"repro/internal/cliutil"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/policy"
)

func main() {
	cliutil.SetTool("clearfuzz")
	var (
		runs    = flag.Int("runs", 256, "number of random cases to run")
		seed    = flag.Uint64("seed", 1, "first case seed (cases use seed..seed+runs-1)")
		configs = flag.String("configs", "BPCW", "configurations to run each case under (subset of BPCW)")
		replay  = flag.Uint64("replay", 0, "replay this single seed verbosely and exit")
		inject  = flag.String("inject", "", "\"bug\" plants the second-speculative-retry bug and requires the oracle to catch and shrink it; a fault-plan preset name runs the fuzz loop under that plan; \"list\" prints the presets")
		verbose = flag.Bool("v", false, "print every case result, not just failures")
	)
	policyFlag := cliutil.AddPolicyFlags(flag.CommandLine)
	flag.Parse()

	cfgs, err := harness.ParseConfigs(*configs)
	if err != nil {
		cliutil.Usage(err)
	}
	pol, err := policyFlag.Spec()
	if err != nil {
		cliutil.Usage(err)
	}
	for _, id := range cfgs {
		if id == harness.ConfigM {
			cliutil.Usagef("config %s is not fuzzable (want subset of BPCW)", id)
		}
	}

	if *replay != 0 {
		os.Exit(replayOne(*replay, cfgs, pol))
	}
	switch *inject {
	case "":
		os.Exit(fuzzRun(*seed, *runs, cfgs, *verbose, fuzz.Opts{Policy: pol}))
	case "bug":
		os.Exit(injectHunt(*seed, *runs, cfgs, pol))
	case "list":
		for _, name := range fault.Presets() {
			p, _ := fault.PresetPlan(name)
			fmt.Printf("%-10s %s\n", name, p)
		}
		os.Exit(0)
	default:
		plan, err := fault.PresetPlan(*inject)
		if err != nil {
			cliutil.Usagef("-inject: %v (use \"bug\", \"list\", or a preset)", err)
		}
		os.Exit(fuzzRun(*seed, *runs, cfgs, *verbose, fuzz.Opts{Plan: plan, Policy: pol}))
	}
}

// fuzzRun is the main loop: run cases, stop and shrink on the first failure.
// A non-nil opts.Plan runs every case under the fault injector — the oracle
// and the serial-replay differential must hold under perturbation too.
func fuzzRun(first uint64, runs int, cfgs []harness.ConfigID, verbose bool, opts fuzz.Opts) int {
	start := time.Now()
	programs := 0
	under := ""
	if opts.Plan != nil {
		under = fmt.Sprintf(" under fault plan {%s}", opts.Plan)
	}
	for i := 0; i < runs; i++ {
		seed := first + uint64(i)
		c := fuzz.Gen(seed)
		programs += len(c.Progs)
		results := fuzz.RunAll(c, cfgs, opts)
		if verbose {
			for _, r := range results {
				fmt.Printf("seed %d %s\n", seed, r)
			}
		}
		if fuzz.AnyFailed(results) {
			fmt.Printf("seed %d FAILED%s:\n", seed, under)
			for _, r := range results {
				if r.Failed() {
					fmt.Printf("  %s\n", r)
				}
			}
			failing := func(cand *fuzz.Case) bool {
				return fuzz.AnyFailed(fuzz.RunAll(cand, cfgs, opts))
			}
			shrunk := fuzz.Shrink(c, failing)
			fmt.Printf("\nshrunk reproducer (%d effective instructions, %d cores) — replay with `clearfuzz -replay %d`:\n%s\n",
				shrunk.EffectiveInstrs(), shrunk.Cores(), seed, shrunk.Dump())
			return 1
		}
	}
	fmt.Printf("clearfuzz: %d cases (%d AR programs) x %d configs%s in %v: all invariant-clean and serializable\n",
		runs, programs, len(cfgs), under, time.Since(start).Round(time.Millisecond))
	return 0
}

// replayOne re-runs a single seed with full result output.
func replayOne(seed uint64, cfgs []harness.ConfigID, pol policy.Spec) int {
	c := fuzz.Gen(seed)
	fmt.Printf("case:\n%s\n", c.Dump())
	code := 0
	for _, r := range fuzz.RunAll(c, cfgs, fuzz.Opts{Policy: pol}) {
		fmt.Println(r)
		if r.Failed() {
			code = 1
		}
	}
	return code
}

// injectHunt proves the oracle end to end: with the planted bug enabled, a
// CLEAR configuration must trip the single-retry invariant, and the failing
// case must shrink to a small reproducer. Exit 0 means the bug was caught.
func injectHunt(first uint64, runs int, cfgs []harness.ConfigID, pol policy.Spec) int {
	clearCfgs := make([]harness.ConfigID, 0, len(cfgs))
	for _, c := range cfgs {
		if c == harness.ConfigC || c == harness.ConfigW {
			clearCfgs = append(clearCfgs, c)
		}
	}
	if len(clearCfgs) == 0 {
		cliutil.Usagef("-inject needs a CLEAR configuration (C or W) in -configs")
	}
	opts := fuzz.Opts{Plan: &fault.Plan{SecondSpecRetryRate: 1}, Policy: pol}
	caught := func(c *fuzz.Case) bool {
		for _, r := range fuzz.RunAll(c, clearCfgs, opts) {
			for _, v := range r.Violations {
				if v.Property == check.PropSingleRetry {
					return true
				}
			}
		}
		return false
	}
	for i := 0; i < runs; i++ {
		seed := first + uint64(i)
		c := fuzz.Gen(seed)
		if !caught(c) {
			continue
		}
		shrunk := fuzz.Shrink(c, caught)
		fmt.Printf("planted single-retry bug caught at seed %d; shrunk to %d effective instruction(s), %d core(s):\n%s\n",
			seed, shrunk.EffectiveInstrs(), shrunk.Cores(), shrunk.Dump())
		for _, r := range fuzz.RunAll(shrunk, clearCfgs, opts) {
			if r.ViolationCount > 0 {
				fmt.Println(r)
			}
		}
		return 0
	}
	fmt.Printf("clearfuzz: planted bug NOT caught in %d seeds — the oracle is blind\n", runs)
	return 1
}
