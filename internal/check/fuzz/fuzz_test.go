package fuzz

import (
	"testing"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/harness"
)

// clearConfigs are the configurations the planted single-retry bug can
// reach: only CLEAR assesses convertibility.
var clearConfigs = []harness.ConfigID{harness.ConfigC, harness.ConfigW}

// smokeSeeds is how many seeds the deterministic smoke test covers; each
// seed runs under all four configurations. Kept modest so `go test -short`
// stays fast; cmd/clearfuzz and the go-fuzz target scale further.
const smokeSeeds = 60

// TestFuzzSmokeAllConfigs runs a deterministic batch of generated cases
// under B, P, C, and W with the oracle attached and the differential
// serializability check on: zero invariant violations, zero mismatches.
func TestFuzzSmokeAllConfigs(t *testing.T) {
	seeds := uint64(smokeSeeds)
	if testing.Short() {
		seeds = 15
	}
	ran := 0
	for seed := uint64(1); seed <= seeds; seed++ {
		c := Gen(seed)
		for _, r := range RunAll(c, harness.AllConfigs, Opts{}) {
			if r.Failed() {
				t.Fatalf("seed %d: %s\ncase:\n%s", seed, r, c.Dump())
			}
			ran++
		}
	}
	if ran == 0 {
		t.Fatal("no cases ran")
	}
}

// TestReplayDeterminism asserts a case replays bit-identically: the same
// seed must produce the same statistics digest on every run — the property
// that makes a reproducer's seed sufficient to re-observe a failure.
func TestReplayDeterminism(t *testing.T) {
	for seed := uint64(3); seed <= 6; seed++ {
		c1, c2 := Gen(seed), Gen(seed)
		for _, cfg := range harness.AllConfigs {
			r1 := RunCase(c1, cfg, Opts{})
			r2 := RunCase(c2, cfg, Opts{})
			if r1.Digest != r2.Digest {
				t.Fatalf("seed %d %s: digests differ:\n  %s\n  %s", seed, cfg, r1.Digest, r2.Digest)
			}
			if r1.Failed() || r2.Failed() {
				t.Fatalf("seed %d %s failed: %s", seed, cfg, r1)
			}
		}
	}
}

// singleRetryCaught is the shrink predicate for the injected bug: the case
// still triggers the single-retry invariant under fault injection.
func singleRetryCaught(c *Case) bool {
	for _, r := range RunAll(c, clearConfigs, Opts{Plan: &fault.Plan{SecondSpecRetryRate: 1}}) {
		for _, v := range r.Violations {
			if v.Property == check.PropSingleRetry {
				return true
			}
		}
	}
	return false
}

// TestInjectedBugCaughtAndShrunk is the oracle's end-to-end acceptance test:
// a machine planted to take a second speculative retry after a convertible
// assessment (fault.Plan.SecondSpecRetryRate = 1) must be
// caught by the single-retry invariant, and the failing case must shrink to
// a reproducer of at most 20 effective instructions.
func TestInjectedBugCaughtAndShrunk(t *testing.T) {
	var failing *Case
	for seed := uint64(1); seed <= 50; seed++ {
		c := Gen(seed)
		if singleRetryCaught(c) {
			failing = c
			break
		}
	}
	if failing == nil {
		t.Fatal("injected single-retry bug never caught in 50 seeds")
	}
	shrunk := Shrink(failing, singleRetryCaught)
	if !singleRetryCaught(shrunk) {
		t.Fatal("shrunk case no longer triggers the injected bug")
	}
	if n := shrunk.EffectiveInstrs(); n > 20 {
		t.Fatalf("reproducer has %d effective instructions, want <= 20:\n%s", n, shrunk.Dump())
	}
	t.Logf("injected bug shrunk to %d effective instruction(s), %d core(s):\n%s",
		shrunk.EffectiveInstrs(), shrunk.Cores(), shrunk.Dump())
}

// TestInjectionDoesNotFireCleanOracle guards the converse: without fault
// injection the same seeds are invariant-clean (the single-retry check does
// not fire spuriously on correct decision trees).
func TestInjectionDoesNotFireCleanOracle(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		c := Gen(seed)
		for _, r := range RunAll(c, clearConfigs, Opts{}) {
			if r.ViolationCount > 0 {
				t.Fatalf("seed %d %s: clean config reported violations: %s", seed, r.Config, r)
			}
		}
	}
}

// FuzzARPrograms is the go-fuzz entry point: any uint64 is a valid case
// seed. The fuzzer explores seeds; every case must be invariant-clean and
// serializable under all four configurations.
func FuzzARPrograms(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Add(uint64(0))
	f.Add(^uint64(0))
	f.Fuzz(func(t *testing.T, seed uint64) {
		c := Gen(seed)
		for _, r := range RunAll(c, harness.AllConfigs, Opts{}) {
			if r.Failed() {
				t.Fatalf("seed %d: %s\ncase:\n%s", seed, r, c.Dump())
			}
		}
	})
}
