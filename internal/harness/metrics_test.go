package harness

import (
	"bytes"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestMetricsDigestTransparency asserts the metrics collector is a pure
// observer, like the tracer and the oracle: the same run with and without a
// registry attached must produce bit-identical statistics. The collector
// consults no RNG, schedules no events, and mutates nothing — any
// divergence means instrumentation perturbed the run it was measuring.
func TestMetricsDigestTransparency(t *testing.T) {
	for _, bench := range []string{"intruder", "hashmap"} {
		for _, cfg := range AllConfigs {
			bench, cfg := bench, cfg
			t.Run(bench+"/"+cfg.String(), func(t *testing.T) {
				p := traceParams(bench, cfg)
				plain, err := Run(p)
				if err != nil {
					t.Fatal(err)
				}
				p.Metrics = metrics.NewRegistry()
				instrumented, err := Run(p)
				if err != nil {
					t.Fatal(err)
				}
				if d1, d2 := digestOf(plain), digestOf(instrumented); d1 != d2 {
					t.Fatalf("metrics perturbed the run:\n off: %s\n on:  %s", d1, d2)
				}
				if p.Metrics.Instruments().Commits[stats.CommitSpeculative].Value() == 0 &&
					p.Metrics.Instruments().Commits[stats.CommitFallback].Value() == 0 {
					t.Fatal("registry observed no commits")
				}
			})
		}
	}
}

// TestMetricsCoexistence attaches every observer at once — oracle, tracer,
// and metrics all share the probe/observer tee — and asserts the digest
// still matches a bare run while each collector does its job.
func TestMetricsCoexistence(t *testing.T) {
	p := traceParams("hashmap", ConfigC)
	plain, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	p.Oracle = true
	p.TraceWriter = &buf
	p.Metrics = metrics.NewRegistry()
	all, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if d1, d2 := digestOf(plain), digestOf(all); d1 != d2 {
		t.Fatalf("full observer stack perturbed the run:\n off: %s\n on:  %s", d1, d2)
	}
	if buf.Len() == 0 {
		t.Fatal("tracer wrote nothing with oracle and metrics attached")
	}
	ins := p.Metrics.Instruments()
	if got := ins.Invocations.Value(); got != all.Stats.Commits {
		t.Fatalf("registry counted %d invocations alongside the oracle, stats %d commits", got, all.Stats.Commits)
	}
	if ins.RunsFinished.Value() != 1 || ins.ActiveRuns.Value() != 0 {
		t.Fatalf("run lifecycle counters off: started=%d finished=%d active=%d",
			ins.RunsStarted.Value(), ins.RunsFinished.Value(), ins.ActiveRuns.Value())
	}
}

// TestMetricsMatchStats cross-checks the registry's event counters against
// the statistics collector over the same run: per-mode commits, the abort
// total, and invocations must agree exactly, and the derived histograms
// must have consistent populations (every retried invocation contributes
// one retry-to-commit observation; every attempt ends in exactly one
// commit- or abort-duration observation).
func TestMetricsMatchStats(t *testing.T) {
	for _, bench := range []string{"sorted-list", "intruder", "hashmap"} {
		for _, cfg := range AllConfigs {
			bench, cfg := bench, cfg
			t.Run(bench+"/"+cfg.String(), func(t *testing.T) {
				p := traceParams(bench, cfg)
				p.Metrics = metrics.NewRegistry()
				res, err := Run(p)
				if err != nil {
					t.Fatal(err)
				}
				ins := p.Metrics.Instruments()
				var commits uint64
				for m := stats.CommitMode(0); m < stats.NumCommitModes; m++ {
					got := ins.Commits[m].Value()
					if got != res.Stats.CommitsByMode[m] {
						t.Errorf("commits[%s]: metrics say %d, stats say %d", m, got, res.Stats.CommitsByMode[m])
					}
					commits += got
				}
				if commits != res.Stats.Commits {
					t.Errorf("total commits: metrics say %d, stats say %d", commits, res.Stats.Commits)
				}
				var aborts uint64
				for _, c := range ins.Aborts {
					aborts += c.Value()
				}
				if aborts != res.Stats.Aborts {
					t.Errorf("total aborts: metrics say %d, stats say %d", aborts, res.Stats.Aborts)
				}
				if got := ins.Invocations.Value(); got != res.Stats.Commits {
					t.Errorf("invocations: metrics say %d, stats say %d commits", got, res.Stats.Commits)
				}
				if got := ins.InvocationTicks.Count(); got != res.Stats.Commits {
					t.Errorf("invocation-latency population %d, want %d", got, res.Stats.Commits)
				}
				// Attempt durations partition into commit/abort outcomes.
				// Explicit-fallback episodes abort without opening an attempt
				// span, so the abort-duration population may undercount the
				// abort total but never exceed it.
				if got := ins.AttemptTicksCommit.Count(); got != res.Stats.Commits {
					t.Errorf("commit-duration population %d, want %d", got, res.Stats.Commits)
				}
				if got := ins.AttemptTicksAbort.Count(); got > res.Stats.Aborts {
					t.Errorf("abort-duration population %d exceeds %d aborts", got, res.Stats.Aborts)
				}
				if got, limit := ins.RetryToCommitTicks.Count(), res.Stats.Commits; got > limit {
					t.Errorf("retry-to-commit population %d exceeds %d commits", got, limit)
				}
				if aborts > 0 && ins.RetryToCommitTicks.Count() == 0 {
					t.Error("aborts occurred but no retry-to-commit latency was observed")
				}
			})
		}
	}
}

// TestProfileCrossCheck is the acceptance criterion of the attribution
// profiler: build the offline contention profile from a real 4-core
// contention trace and require its totals — commits, invocations, commits
// per mode, aborts per reason bucket, and the attribution-edge counts — to
// exactly cross-check against the run's statistics. Every abort the stats
// collector counted must appear in the abort-attribution table, attributed
// to some culprit.
func TestProfileCrossCheck(t *testing.T) {
	crossCheckProfiles(t, func(bench string, cfg ConfigID) RunParams {
		p := DefaultRunParams(bench, cfg)
		p.Cores = 4
		p.OpsPerThread = 48
		p.Seed = 11
		return p
	})
}

// crossCheckProfiles records one trace per (benchmark, configuration) cell
// of the contention benchmarks and requires trace.Profile.CrossCheck to
// pass against the run's own statistics.
func crossCheckProfiles(t *testing.T, params func(string, ConfigID) RunParams) {
	for _, bench := range []string{"hashmap", "intruder", "sorted-list"} {
		for _, cfg := range AllConfigs {
			bench, cfg := bench, cfg
			t.Run(bench+"/"+cfg.String(), func(t *testing.T) {
				p := params(bench, cfg)
				var buf bytes.Buffer
				p.TraceWriter = &buf
				res, err := Run(p)
				if err != nil {
					t.Fatal(err)
				}
				rd, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				evs, err := rd.ReadAll()
				if err != nil {
					t.Fatal(err)
				}
				prof := trace.BuildProfile(rd.Meta(), evs)
				if err := prof.CrossCheck(res.Stats); err != nil {
					t.Fatal(err)
				}
				if res.Stats.Aborts > 0 && len(prof.Edges) == 0 {
					t.Fatalf("%d aborts but empty attribution table", res.Stats.Aborts)
				}
			})
		}
	}
}
