package fuzz

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/isa"
)

// TestGenTaggedWellFormed: tagged cases are deterministic, reference every
// program exactly once, and tag every store uniquely — the preconditions
// that make the axiomatic oracle exact.
func TestGenTaggedWellFormed(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		cs := GenTagged(seed)
		if !reflect.DeepEqual(cs, GenTagged(seed)) {
			t.Fatalf("seed %d: GenTagged is not deterministic", seed)
		}
		used := make(map[int]int)
		for _, invs := range cs.Invs {
			for _, inv := range invs {
				used[inv.Prog]++
			}
		}
		if len(used) != len(cs.Progs) {
			t.Fatalf("seed %d: %d of %d programs referenced", seed, len(used), len(cs.Progs))
		}
		for p, n := range used {
			if n != 1 {
				t.Fatalf("seed %d: program %d invoked %d times (tags would repeat)", seed, p, n)
			}
		}
		tags := map[int64]bool{}
		for _, p := range cs.Progs {
			for _, in := range p.Code {
				if in.Op == isa.OpLoadImm {
					if in.Imm < tagBase {
						t.Fatalf("seed %d: tag %d below tagBase", seed, in.Imm)
					}
					if tags[in.Imm] {
						t.Fatalf("seed %d: duplicate store tag %d", seed, in.Imm)
					}
					tags[in.Imm] = true
				}
				if in.Op == isa.OpStore && in.Imm == 0 {
					t.Fatalf("seed %d: tagged store touches the pointer slot", seed)
				}
			}
		}
	}
}

// TestAxiomaticDifferential runs the axiomatic checker and the serial-replay
// oracle over the same tagged executions on every configuration: on a
// correct machine both must pass, and the checker must resolve every load
// (zero ambiguity). A disagreement shrinks to a minimal reproducer and fails
// with both witnesses.
func TestAxiomaticDifferential(t *testing.T) {
	seeds := uint64(24)
	if testing.Short() {
		seeds = 6
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		cs := GenTagged(seed)
		for _, cfg := range harness.AllConfigs {
			r := RunCase(cs, cfg, Opts{Axiomatic: true})
			if r.RunErr != nil {
				t.Fatalf("seed %d %s: run error: %v", seed, cfg, r.RunErr)
			}
			if r.Axiom == nil {
				t.Fatalf("seed %d %s: axiomatic oracle did not run", seed, cfg)
			}
			if r.Axiom.AmbiguousLoads != 0 {
				t.Errorf("seed %d %s: %d ambiguous loads in a tagged case",
					seed, cfg, r.Axiom.AmbiguousLoads)
			}
			replayOK := r.ViolationCount == 0 && r.Mismatch == ""
			axiomOK := r.Axiom.OK()
			if replayOK != axiomOK {
				min := Shrink(cs, func(c *Case) bool {
					rr := RunCase(c, cfg, Opts{Axiomatic: true})
					if rr.RunErr != nil || rr.Axiom == nil {
						return false
					}
					return (rr.ViolationCount == 0 && rr.Mismatch == "") != rr.Axiom.OK()
				})
				rm := RunCase(min, cfg, Opts{Axiomatic: true})
				t.Fatalf("seed %d %s: oracles disagree (replay ok=%v, axiomatic ok=%v)\n"+
					"replay result:\n%s\naxiomatic verdict:\n%s\nminimal case:\n%s",
					seed, cfg, replayOK, axiomOK, rm, rm.Axiom, min.Dump())
			}
		}
	}
}

// TestAxiomCatchesLostInvalidation: with the planted conflict-detection bug,
// the axiomatic checker must flag runs where the serial-replay differential
// sees nothing wrong — tagged loads feed no stores, so a stale read leaves
// the final memory image exactly serial — proving the checker catches
// ordering corruption the memory-image diff is structurally blind to.
func TestAxiomCatchesLostInvalidation(t *testing.T) {
	caught, replayBlind := 0, 0
	for seed := uint64(1); seed <= 40 && replayBlind == 0; seed++ {
		cs := GenTagged(seed)
		r := RunCase(cs, harness.ConfigB, Opts{Axiomatic: true, Plan: &fault.Plan{LostInvalidationRate: 1}})
		if r.RunErr != nil {
			t.Fatalf("seed %d: run error: %v", seed, r.RunErr)
		}
		if r.Axiom != nil && !r.Axiom.OK() {
			caught++
			if r.Mismatch == "" {
				replayBlind++
			}
		}
	}
	if caught == 0 {
		t.Fatal("planted lost-invalidation bug never caught by the axiomatic oracle")
	}
	if replayBlind == 0 {
		t.Error("no run where the axiomatic oracle caught what the serial-replay diff missed")
	}
}
