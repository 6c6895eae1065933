package litmus

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/policy"
	"repro/internal/trace"
)

// testSeeds keeps the in-package sweep quick; the 32-seed acceptance sweep
// runs via golden_test.go and CI's clearlitmus job.
func testSeeds(t *testing.T) []uint64 {
	if testing.Short() {
		return DefaultSeeds(2)
	}
	return DefaultSeeds(6)
}

// TestCorpusConformance: the full corpus passes outcome-set diffing and the
// axiomatic checker on every config, clean.
func TestCorpusConformance(t *testing.T) {
	cells := Sweep(SweepOpts{
		Tests:   Corpus(),
		Configs: harness.AllConfigs,
		Seeds:   testSeeds(t),
	})
	for _, cell := range cells {
		if cell.Failed() {
			t.Errorf("%s/%s: %d failing runs, first:\n%s",
				cell.Test.Name, cell.Config, len(cell.Failures), cell.Failures[0])
		}
		if len(cell.Outcomes) == 0 {
			t.Errorf("%s/%s: no outcomes observed", cell.Test.Name, cell.Config)
		}
	}
}

// TestCorpusConformanceUnderFaults: conformance holds under fault injection
// (faults may abort and retry regions, never corrupt committed order).
func TestCorpusConformanceUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep skipped in -short")
	}
	plan, err := fault.PresetPlan("default")
	if err != nil {
		t.Fatal(err)
	}
	cells := Sweep(SweepOpts{
		Tests:   Corpus(),
		Configs: []harness.ConfigID{harness.ConfigB, harness.ConfigW},
		Seeds:   DefaultSeeds(4),
		Plan:    plan,
	})
	for _, cell := range cells {
		if cell.Failed() {
			t.Errorf("%s/%s under faults: first failure:\n%s",
				cell.Test.Name, cell.Config, cell.Failures[0])
		}
	}
}

// TestRunTracesFaults: a run under a fault plan records the faults it fires
// in its trace, sim-layer faults (no attributable core) as trace.NoCore.
func TestRunTracesFaults(t *testing.T) {
	plan, err := fault.PresetPlan("default")
	if err != nil {
		t.Fatal(err)
	}
	tt := Lookup("corr+ar")
	faults := 0
	for _, seed := range DefaultSeeds(8) {
		var buf bytes.Buffer
		r := Run(tt, RunOpts{Config: harness.ConfigP, Seed: seed, Plan: plan, TraceOut: &buf})
		if r.Err != nil {
			t.Fatalf("seed %d: %v", seed, r.Err)
		}
		rd, err := trace.NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		evs, err := rd.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			if e.Kind != trace.KindFault {
				continue
			}
			faults++
			if int(e.Core) >= len(tt.Threads) && e.Core != trace.NoCore {
				t.Errorf("seed %d: fault event on core %d of a %d-thread test", seed, e.Core, len(tt.Threads))
			}
		}
	}
	if faults == 0 {
		t.Fatal("no fault event reached a litmus trace over 8 seeds")
	}
}

// TestRunDeterminism: a run is a pure function of (test, config, seed).
func TestRunDeterminism(t *testing.T) {
	tt := Lookup("mp+ar")
	opts := RunOpts{Config: harness.ConfigC, Seed: 7}
	a := Run(tt, opts)
	b := Run(tt, opts)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("run errors: %v / %v", a.Err, b.Err)
	}
	if a.Outcome != b.Outcome {
		t.Fatalf("outcome not deterministic: %q vs %q", a.Outcome, b.Outcome)
	}
	if !reflect.DeepEqual(a.Verdict, b.Verdict) {
		t.Fatalf("verdict not deterministic:\n%s\nvs\n%s", a.Verdict, b.Verdict)
	}
}

// TestOutcomeDiversity: the seed sweep must actually explore interleavings —
// sb (split) has three allowed outcomes and a modest sweep should observe
// more than one.
func TestOutcomeDiversity(t *testing.T) {
	if testing.Short() {
		t.Skip("diversity check skipped in -short")
	}
	cells := Sweep(SweepOpts{
		Tests:   []*Test{Lookup("sb")},
		Configs: []harness.ConfigID{harness.ConfigB},
		Seeds:   DefaultSeeds(16),
	})
	if n := len(cells[0].Outcomes); n < 2 {
		t.Errorf("sb/B observed only %d outcome(s) over 16 seeds: %v",
			n, cells[0].ObservedOutcomes())
	}
}

// TestPlantedLostInvalidationCaught: with the planted conflict-detection bug
// (a speculative holder yields a line without aborting), the axiomatic
// checker must flag at least one run per test with a witness cycle. These
// (test, config) pairs were chosen because serial replay of the final memory
// image alone would NOT catch them on every seed — stores are immediates, so
// the corrupted interleaving can still produce the serial final state.
func TestPlantedLostInvalidationCaught(t *testing.T) {
	for _, name := range []string{"lb+ar", "mp+ar"} {
		tt := Lookup(name)
		caught := false
		for _, seed := range DefaultSeeds(16) {
			r := Run(tt, RunOpts{
				Config: harness.ConfigB,
				Seed:   seed,
				Plan:   &fault.Plan{LostInvalidationRate: 1},
			})
			if r.Err != nil {
				t.Fatalf("%s seed %d: run error: %v", name, seed, r.Err)
			}
			if !r.Verdict.OK() {
				caught = true
				v := r.Verdict.Violations[0]
				if len(v.Cycle) == 0 {
					t.Errorf("%s seed %d: violation %q has no witness cycle", name, seed, v.Kind)
				}
				for _, e := range v.Cycle {
					if !strings.Contains(e, "-->") {
						t.Errorf("%s seed %d: malformed witness edge %q", name, seed, e)
					}
				}
				break
			}
		}
		if !caught {
			t.Errorf("%s: planted lost-invalidation bug never caught over 16 seeds", name)
		}
	}
}

// TestCleanMachineNoInjection: sanity inverse of the planted-bug test — the
// same sweep without injection is clean.
func TestCleanMachineNoInjection(t *testing.T) {
	for _, name := range []string{"lb+ar", "mp+ar"} {
		tt := Lookup(name)
		for _, seed := range DefaultSeeds(4) {
			r := Run(tt, RunOpts{Config: harness.ConfigB, Seed: seed})
			if r.Failed() {
				t.Errorf("clean run failed:\n%s", r)
			}
		}
	}
}

// closeBuffer is a trace sink that keeps what was written.
type closeBuffer struct{ bytes.Buffer }

func (*closeBuffer) Close() error { return nil }

// TestSweepHonoursPolicy: every run of a sweep runs under SweepOpts.Policy,
// so each trace it writes is byte-identical to a single Run under the same
// policy.
func TestSweepHonoursPolicy(t *testing.T) {
	pol, err := policy.Parse("retry:n=1,backoff=exp")
	if err != nil {
		t.Fatal(err)
	}
	tt := Lookup("lb+ar")
	seeds := DefaultSeeds(8)
	swept := map[uint64]*closeBuffer{}
	Sweep(SweepOpts{
		Tests:   []*Test{tt},
		Configs: []harness.ConfigID{harness.ConfigB},
		Seeds:   seeds,
		Policy:  pol,
		TraceSink: func(test string, cfg harness.ConfigID, seed uint64) io.WriteCloser {
			b := &closeBuffer{}
			swept[seed] = b
			return b
		},
	})
	for _, seed := range seeds {
		var want bytes.Buffer
		r := Run(tt, RunOpts{Config: harness.ConfigB, Seed: seed, Policy: pol, TraceOut: &want})
		if r.Err != nil {
			t.Fatalf("seed %d: %v", seed, r.Err)
		}
		got := swept[seed]
		if got == nil {
			t.Fatalf("seed %d: sweep wrote no trace", seed)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("seed %d: sweep trace differs from a single run under %s", seed, pol.Canonical())
		}
	}
}
