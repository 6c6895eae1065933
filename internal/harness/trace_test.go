package harness

import (
	"bytes"
	"testing"

	"repro/internal/trace"
)

// traceParams is the shared small-run configuration of the trace tests.
func traceParams(bench string, cfg ConfigID) RunParams {
	p := DefaultRunParams(bench, cfg)
	p.Cores = 8
	p.OpsPerThread = 32
	p.Seed = 7
	return p
}

// TestTracerDigestTransparency asserts the tracer is a pure observer: the
// same (benchmark, configuration, seed) run with and without the tracer
// attached must produce bit-identical statistics — the mirror of
// TestOracleDigestTransparency for the observability layer. The tracer
// consults no RNG, schedules no events, and mutates nothing, so any
// divergence here means tracing perturbed the run it was recording.
func TestTracerDigestTransparency(t *testing.T) {
	for _, bench := range []string{"intruder", "hashmap", "labyrinth"} {
		for _, cfg := range AllConfigs {
			bench, cfg := bench, cfg
			t.Run(bench+"/"+cfg.String(), func(t *testing.T) {
				p := traceParams(bench, cfg)
				plain, err := Run(p)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				p.TraceWriter = &buf
				p.TraceMem = true
				p.TraceDir = true
				traced, err := Run(p)
				if err != nil {
					t.Fatal(err)
				}
				d1, d2 := digestOf(plain), digestOf(traced)
				if d1 != d2 {
					t.Fatalf("tracer perturbed the run:\n off: %s\n on:  %s", d1, d2)
				}
				if buf.Len() == 0 {
					t.Fatal("tracer wrote nothing")
				}
			})
		}
	}
}

// TestTraceDeterminism asserts the binary stream itself is deterministic:
// the same (benchmark, configuration, seed) recorded twice must produce
// byte-identical trace files. The encoding contains no host-side state
// (no wall-clock timestamps, pointers, or map-ordered sections), so any
// divergence means nondeterminism leaked into either the simulation or the
// encoder.
func TestTraceDeterminism(t *testing.T) {
	for _, cfg := range []ConfigID{ConfigB, ConfigC, ConfigW} {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			record := func() []byte {
				p := traceParams("sorted-list", cfg)
				var buf bytes.Buffer
				p.TraceWriter = &buf
				p.TraceMem = true
				p.TraceDir = true
				if _, err := Run(p); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			a, b := record(), record()
			if !bytes.Equal(a, b) {
				t.Fatalf("same seed, different trace bytes (len %d vs %d)", len(a), len(b))
			}
		})
	}
}

// TestTraceMatchesStats pins the event stream to the ground truth the
// paper's figures are built from: at the trace tests' 8-core point, the
// offline profile of every recorded run must cross-check exactly against
// the run's own statistics (see TestProfileCrossCheck for the 4-core point).
func TestTraceMatchesStats(t *testing.T) {
	crossCheckProfiles(t, traceParams)
}

// TestTraceOracleCoexistence asserts the tracer and the invariant oracle
// can share the probe/observer seams without metrics attached: the digest
// matches a bare run, and the trace recorded under the oracle is complete,
// one invocation-start event per committed invocation. TestMetricsCoexistence
// covers the full stack with the registry added.
func TestTraceOracleCoexistence(t *testing.T) {
	p := traceParams("hashmap", ConfigC)
	plain, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	p.Oracle = true
	p.TraceWriter = &buf
	both, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if d1, d2 := digestOf(plain), digestOf(both); d1 != d2 {
		t.Fatalf("oracle+tracer perturbed the run:\n off: %s\n on:  %s", d1, d2)
	}
	rd, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	evs, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var invokes uint64
	for _, e := range evs {
		if e.Kind == trace.KindInvocationStart {
			invokes++
		}
	}
	if invokes == 0 || invokes != both.Stats.Commits {
		t.Fatalf("trace recorded %d invocations alongside the oracle, stats %d commits", invokes, both.Stats.Commits)
	}
}
