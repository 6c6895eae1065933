package main

import (
	"testing"

	"repro/internal/harness"
)

// The replayed call sequence must produce the digest harness.Run does, or
// the traced run's layer split would describe a different run.
func TestReplayDigestMatchesHarnessRun(t *testing.T) {
	p, err := cellParams("hashmap/C", 8, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := harness.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	log := newSpanLog()
	root := log.begin("harness.run", 0)
	got, events, err := replay(p, log, root)
	log.end(root)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Digest() != want.Stats.Digest() {
		t.Fatalf("replayed digest differs from harness.Run's:\n got %s\nwant %s", got.Stats.Digest(), want.Stats.Digest())
	}
	if got.Energy != want.Energy || got.Dir != want.Dir {
		t.Errorf("replayed energy/directory stats differ: %v %+v vs %v %+v", got.Energy, got.Dir, want.Energy, want.Dir)
	}
	if events == 0 {
		t.Error("no simulation events counted")
	}
	names := map[string]bool{}
	for _, s := range log.spans {
		names[s.Name] = true
		if s.Run != root || s.End < s.Start {
			t.Errorf("span %+v: want run %d and end >= start", s, root)
		}
	}
	for _, n := range []string{"harness.run", "workload.setup", "cpu.build", "workload.feed", "sim.run", "workload.verify"} {
		if !names[n] {
			t.Errorf("no %s span", n)
		}
	}
}

func TestSelfTimesSubtractCoveredIntervals(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 60},  // overlaps the first: a second worker
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past the parent's end
		{ID: 5, Parent: 2, Name: "c", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	// root: 100 - |[10,60] ∪ [90,100]| = 40.
	for name, want := range map[string]int64{"root": 40, "a": 30 - 10 + 30, "b": 30, "c": 10} {
		if got := int64(self[name]); got != want {
			t.Errorf("self time of %s = %d, want %d", name, got, want)
		}
	}
}

// tinySweep is a sweep workload small enough for a unit test.
func tinySweep(warm bool) *workloadDef {
	return &workloadDef{name: "tiny", warm: warm, matrix: func(seed uint64) harness.MatrixOptions {
		o := harness.QuickMatrixOptions()
		o.Benchmarks = []string{"hashmap", "intruder"}
		o.Cores, o.OpsPerThread = 4, 4
		o.Seeds = []uint64{seed, seed + 1}
		o.Parallelism = parallelism
		return o
	}}
}

// The observe and span phases share their tallies and span log between the
// sweep workers; run them on both kinds of sweep.
func TestTracedSweepPhases(t *testing.T) {
	for _, warm := range []bool{false, true} {
		in, err := newInstance(tinySweep(warm), 5, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if in.ref, err = in.setup(); err != nil {
			t.Fatal(err)
		}
		tr := &tracedRun{in: in, m: make(map[string]float64), harnessDigest: make(map[string]string)}
		tr.observe(0)
		if err := tr.spans(0, t.TempDir()+"/spans.json"); err != nil {
			t.Fatal(err)
		}
		if tr.res.failed != 0 {
			t.Fatalf("warm=%v: %d failed runs: %v", warm, tr.res.failed, tr.res.problems)
		}
		if share := tr.m["harness.worker_idle_share"]; share < 0 || share > 1 {
			t.Errorf("warm=%v: worker idle share %v outside [0, 1]", warm, share)
		}
		wantPositive := []string{"sim.events", "sim.run_ms", "workload.setup_ms", "sim.ticks.committed", "trace.bytes_per_run", "observe.overhead_ratio"}
		if warm {
			wantPositive = []string{"runstore.get_ms", "runstore.get_us_p50", "runstore.hits", "observe.overhead_ratio"}
			if tr.m["sim.events"] != 0 || tr.m["runstore.misses"] != 0 {
				t.Errorf("warm pass simulated or missed: %v events, %v misses", tr.m["sim.events"], tr.m["runstore.misses"])
			}
		}
		for _, name := range wantPositive {
			if tr.m[name] <= 0 {
				t.Errorf("warm=%v: %s = %v, want > 0", warm, name, tr.m[name])
			}
		}
	}
}
