package harness

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/policy"
	"repro/internal/trace"
)

// faultTestParams returns a small contended run suitable for injection tests.
func faultTestParams(bench string, cfg ConfigID) RunParams {
	p := DefaultRunParams(bench, cfg)
	p.Cores = 8
	p.OpsPerThread = 32
	p.Seed = 7
	return p
}

// TestFaultInjectionDeterminism: the same (plan, seeds) must reproduce a
// bit-identical run — the replayability contract every campaign and shrink
// step depends on. A different fault seed must actually change the execution.
func TestFaultInjectionDeterminism(t *testing.T) {
	plan, err := fault.PresetPlan("default")
	if err != nil {
		t.Fatal(err)
	}
	plan.Seed = 3

	p := faultTestParams("intruder", ConfigC)
	p.Oracle = true // the oracle must hold under faults, too
	p.FaultPlan = plan

	first, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if d1, d2 := digestOf(first), digestOf(second); d1 != d2 {
		t.Fatalf("same plan and seeds, different stats:\n run 1: %s\n run 2: %s", d1, d2)
	}
	if first.Faults == nil || first.Faults.Total() == 0 {
		t.Fatal("default plan fired no faults; the injector is not reaching the run")
	}
	if first.Faults.Total() != second.Faults.Total() {
		t.Fatalf("fault counts diverged: %d vs %d", first.Faults.Total(), second.Faults.Total())
	}

	p.FaultPlan = plan.Clone()
	p.FaultPlan.Seed = 4
	third, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if digestOf(first) == digestOf(third) {
		t.Fatal("fault seeds 3 and 4 produced identical stats; the plan seed is not reaching the injector")
	}
}

// TestFaultEmptyPlanTransparency: an attached injector whose plan is all-zero
// must fire nothing and leave the statistics digest byte-identical to a run
// with no injector at all — the detachment contract that lets the harness
// attach the seam unconditionally.
func TestFaultEmptyPlanTransparency(t *testing.T) {
	for _, bench := range []string{"intruder", "hashmap"} {
		for _, cfg := range AllConfigs {
			bench, cfg := bench, cfg
			t.Run(bench+"/"+cfg.String(), func(t *testing.T) {
				p := faultTestParams(bench, cfg)
				plain, err := Run(p)
				if err != nil {
					t.Fatal(err)
				}
				p.FaultPlan = &fault.Plan{Seed: 99}
				attached, err := Run(p)
				if err != nil {
					t.Fatal(err)
				}
				if attached.Faults == nil {
					t.Fatal("empty plan did not attach the injector")
				}
				if n := attached.Faults.Total(); n != 0 {
					t.Fatalf("empty plan fired %d faults", n)
				}
				if d1, d2 := digestOf(plain), digestOf(attached); d1 != d2 {
					t.Fatalf("empty-plan injector perturbed the run:\n off: %s\n on:  %s", d1, d2)
				}
			})
		}
	}
}

// TestOracleAndVerificationHoldUnderFaults: faults may delay or refuse, never
// corrupt — every config must stay invariant-clean and pass workload
// verification under the broad default mix and under a NACK storm.
func TestOracleAndVerificationHoldUnderFaults(t *testing.T) {
	for _, preset := range []string{"default", "storm", "locks"} {
		for _, cfg := range AllConfigs {
			preset, cfg := preset, cfg
			t.Run(preset+"/"+cfg.String(), func(t *testing.T) {
				plan, err := fault.PresetPlan(preset)
				if err != nil {
					t.Fatal(err)
				}
				plan.Seed = 11
				p := faultTestParams("queue", cfg)
				p.Oracle = true
				p.FaultPlan = plan
				res, err := Run(p)
				if err != nil {
					t.Fatal(err)
				}
				if res.Oracle == nil {
					t.Fatal("oracle run returned no oracle report")
				}
			})
		}
	}
}

// TestFaultEventsReachTrace: with a tracer attached, every fired fault is
// recorded as a KindFault event, and the digest matches the untraced run
// (the tracer stays transparent with the injector active).
func TestFaultEventsReachTrace(t *testing.T) {
	plan, err := fault.PresetPlan("default")
	if err != nil {
		t.Fatal(err)
	}
	plan.Seed = 5
	p := faultTestParams("hashmap", ConfigW)
	p.FaultPlan = plan

	bare, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	p.TraceWriter = &buf
	traced, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if d1, d2 := digestOf(bare), digestOf(traced); d1 != d2 {
		t.Fatalf("tracer+injector perturbed the run:\n off: %s\n on:  %s", d1, d2)
	}
	rd, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	evs, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	faults := 0
	for _, e := range evs {
		if e.Kind == trace.KindFault {
			faults++
		}
	}
	if uint64(faults) != traced.Faults.Total() {
		t.Fatalf("trace carries %d fault events but the injector fired %d", faults, traced.Faults.Total())
	}
	if faults == 0 {
		t.Fatal("no fault events in the trace")
	}
}

// TestWatchdogCatchesPlantedSecondSpecRetry: the forced second speculative
// retry after a convertible assessment is the exact bug CLEAR's single-retry
// bound forbids; the oracle, as the run's guard, must turn it into a run
// failure.
func TestWatchdogCatchesPlantedSecondSpecRetry(t *testing.T) {
	plan := &fault.Plan{Seed: 1, SecondSpecRetryRate: 1}
	p := faultTestParams("hashmap", ConfigC)
	p.FaultPlan = plan
	p.Oracle = true

	res, fail := RunChecked(p)
	if fail == nil {
		t.Fatalf("planted second-spec-retry fault not caught (oracle report: %+v)", res.Oracle)
	}
	if !strings.Contains(fail.Reason, "speculative") {
		t.Fatalf("failure reason does not name the violation: %s", fail.Reason)
	}
	if fail.Kind != FailOracle {
		t.Fatalf("failure kind %q, want %q", fail.Kind, FailOracle)
	}
}

// TestLostInvalidationFiresAndTraces: a LostInvalidationRate of 1 plants the
// conflict-detection bug at every requester-wins conflict; the injector
// counts each firing and the tracer records it as a KindFault event. bst at
// this size happens to survive workload verification, so the run completes
// and both tallies can be read.
func TestLostInvalidationFiresAndTraces(t *testing.T) {
	p := faultTestParams("bst", ConfigB)
	p.FaultPlan = &fault.Plan{Seed: 1, LostInvalidationRate: 1}
	var buf bytes.Buffer
	p.TraceWriter = &buf
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	fired := res.Faults.Fired[fault.KindLostInvalidation]
	if fired == 0 {
		t.Fatal("LostInvalidationRate=1 fired no lost invalidation")
	}
	if res.Faults.Total() != fired {
		t.Fatalf("plan fired %d faults, %d of them lost invalidations", res.Faults.Total(), fired)
	}
	rd, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	evs, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var traced uint64
	for _, e := range evs {
		if e.Kind == trace.KindFault {
			if e.FaultKind() != fault.KindLostInvalidation {
				t.Fatalf("unexpected fault kind %v in the trace", e.FaultKind())
			}
			traced++
		}
	}
	if traced != fired {
		t.Fatalf("trace carries %d fault events, injector fired %d", traced, fired)
	}
}

// TestWatchdogCatchesPlantedLivelock: a lock acquisition denied forever
// (LockStallRate=1) starves the CL lock walk, which has no retry budget;
// the oracle's liveness property (no commit within check.LivelockWindow)
// must detect the livelock instead of letting the run spin until MaxTicks.
func TestWatchdogCatchesPlantedLivelock(t *testing.T) {
	plan := &fault.Plan{Seed: 1, LockStallRate: 1, LockStallTicks: 50}
	p := faultTestParams("arrayswap", ConfigM)
	p.FaultPlan = plan
	p.Oracle = true

	_, fail := RunChecked(p)
	if fail == nil {
		t.Fatal("planted livelock not caught")
	}
	if !strings.Contains(fail.Reason, "liveness: livelock") {
		t.Fatalf("failure reason does not name the liveness violation: %s", fail.Reason)
	}
	if fail.Kind != FailOracle {
		t.Fatalf("failure kind %q, want %q", fail.Kind, FailOracle)
	}
}

// TestShrinkPlanIsolatesPlantedFault: end to end, a failing campaign plan
// mixing tolerable faults with the planted second-spec-retry bug must shrink
// to a plan whose only enabled kind is the planted one.
func TestShrinkPlanIsolatesPlantedFault(t *testing.T) {
	plan, err := fault.PresetPlan("planted")
	if err != nil {
		t.Fatal(err)
	}
	plan.Seed = 1
	plan.SecondSpecRetryRate = 1

	p := faultTestParams("hashmap", ConfigC)
	p.Oracle = true
	p.FaultPlan = plan

	failing := func(cand *fault.Plan) bool {
		p2 := p
		p2.FaultPlan = cand
		_, fail := RunChecked(p2)
		return fail != nil
	}
	if !failing(plan) {
		t.Fatal("planted plan does not fail; nothing to shrink")
	}
	min := fault.ShrinkPlan(plan, failing)
	if !failing(min) {
		t.Fatal("shrunk plan no longer fails")
	}
	for k := fault.Kind(0); k < fault.NumKinds; k++ {
		if k != fault.KindSecondSpecRetry && min.Enabled(k) {
			t.Errorf("shrunk plan still enables %v alongside the planted bug", k)
		}
	}
	if !min.Enabled(fault.KindSecondSpecRetry) {
		t.Error("shrunk plan lost the planted bug")
	}
}

// TestMatrixIsolatesRunFailures: a sweep whose every run blows its host
// deadline must return an empty cell set and one structured failure per
// (benchmark, config, retry, seed) — and keep going instead of aborting.
func TestMatrixIsolatesRunFailures(t *testing.T) {
	opts := QuickMatrixOptions()
	opts.Benchmarks = []string{"labyrinth"}
	opts.Configs = []ConfigID{ConfigB, ConfigC}
	opts.OpsPerThread = 120
	opts.RunDeadline = time.Nanosecond

	m, err := RunMatrix(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := len(opts.Benchmarks) * len(opts.Configs) * len(opts.RetryLimits) * len(opts.Seeds)
	if len(m.Failures) != want {
		t.Fatalf("expected %d isolated failures, got %d", want, len(m.Failures))
	}
	for _, fl := range m.Failures {
		if !strings.Contains(fl.Reason, "deadline") {
			t.Fatalf("failure reason does not name the deadline: %s", fl.Reason)
		}
		if fl.Kind != FailDeadline {
			t.Fatalf("failure kind %q, want %q", fl.Kind, FailDeadline)
		}
	}
	if len(m.Cells) != 0 {
		t.Fatalf("cells aggregated despite every seed failing: %v", m.Cells)
	}
	var buf bytes.Buffer
	if err := m.WriteFailuresCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(buf.String()), "\n")
	if lines != want { // header + want rows => want newlines after trim
		t.Fatalf("failures CSV has %d data rows, want %d", lines, want)
	}
}

// TestMatrixSurvivesPartialFailures: with a deadline only one benchmark can
// violate, the matrix keeps the healthy cells and records the failures.
func TestMatrixRunCheckedErrorPath(t *testing.T) {
	p := faultTestParams("no-such-benchmark", ConfigB)
	res, fail := RunChecked(p)
	if res != nil || fail == nil {
		t.Fatal("RunChecked did not isolate the error")
	}
	if fail.Benchmark != "no-such-benchmark" || fail.Seed != p.Seed {
		t.Fatalf("failure record mislabeled: %+v", fail)
	}
	if fail.Kind != FailOther {
		t.Fatalf("failure kind %q, want the zero kind", fail.Kind)
	}
}

// TestRunCheckedFailureKinds: a panic inside the simulator and a failed
// workload verification come out of real runs typed with their kinds. The
// tests above check the oracle, deadline and zero kinds.
func TestRunCheckedFailureKinds(t *testing.T) {
	panicky := DefaultRunParams("hashmap", ConfigB)
	panicky.Cores, panicky.OpsPerThread = 4, 24
	// A delay bound past the tick cap, which fault.Plan.Validate refuses and
	// Run does not check, makes the engine's delay draw panic.
	panicky.FaultPlan = &fault.Plan{EventDelayRate: 1, EventDelayMax: 1 << 63}
	lossy := DefaultRunParams("arrayswap", ConfigB)
	lossy.Cores, lossy.OpsPerThread = 8, 24
	lossy.FaultPlan = &fault.Plan{Seed: 1, LostInvalidationRate: 1}

	for _, tc := range []struct {
		p      RunParams
		kind   FailureKind
		reason string
	}{
		{panicky, FailPanic, "panic: sim: Intn with non-positive n"},
		{lossy, FailVerification, "verification failed: arrayswap: element multiset changed"},
	} {
		res, fail := RunChecked(tc.p)
		if res != nil || fail == nil {
			t.Fatalf("%s/%s: run did not fail", tc.p.Benchmark, tc.p.Config)
		}
		if !strings.Contains(fail.Reason, tc.reason) {
			t.Errorf("%s/%s: failure reason %q does not contain %q", tc.p.Benchmark, tc.p.Config, fail.Reason, tc.reason)
		}
		if fail.Kind != tc.kind {
			t.Errorf("%s/%s: failure kind %q, want %q", tc.p.Benchmark, tc.p.Config, fail.Kind, tc.kind)
		}
	}
}

// TestRunFailureNamesPolicy: failures of one run that differ only in policy
// render differently, in the listing and in the failures CSV, while a
// default-policy failure reads as it always has.
func TestRunFailureNamesPolicy(t *testing.T) {
	p := faultTestParams("hashmap", ConfigC)
	def := p.Failure(FailOther, "boom")
	var err error
	if p.Policy, err = policy.Parse("ewma"); err != nil {
		t.Fatal(err)
	}
	ewma := p.Failure(FailOther, "boom")
	if want := fmt.Sprintf("hashmap/C retry=%d seed=7: boom", p.RetryLimit); def.String() != want {
		t.Fatalf("default-policy failure renders %q, want %q", def.String(), want)
	}
	if ewma.String() == def.String() || !strings.Contains(ewma.String(), "policy="+p.Policy.Canonical()) {
		t.Fatalf("ewma failure renders %q, want its policy named", ewma.String())
	}
	m := &Matrix{Failures: []RunFailure{*def, *ewma}}
	var buf bytes.Buffer
	if err := m.WriteFailuresCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var last []string
	for _, row := range rows {
		last = append(last, row[len(row)-1])
	}
	if want := []string{"policy", "clear", p.Policy.Canonical()}; !slices.Equal(last, want) {
		t.Fatalf("failures CSV's last column is %q, want %q", last, want)
	}
}
