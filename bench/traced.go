package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/metrics"
	"repro/internal/runstore"
	"repro/internal/stats"
	"repro/internal/trace"
)

// tally accumulates per-layer numbers from concurrent sweep workers; a nil
// tally drops them.
type tally struct {
	mu sync.Mutex
	v  map[string]float64
}

func newTally() *tally { return &tally{v: make(map[string]float64)} }

func (t *tally) add(name string, x float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.v[name] += x
	t.mu.Unlock()
}

// addRun adds the modelled-layer counters of one simulated run.
func (t *tally) addRun(res *harness.RunResult, events uint64) {
	if t == nil {
		return
	}
	s, d := res.Stats, res.Dir
	t.mu.Lock()
	defer t.mu.Unlock()
	t.v["sim.events"] += float64(events)
	t.v["core.commits_scl"] += float64(s.CommitsByMode[stats.CommitSCL])
	t.v["core.commits_nscl"] += float64(s.CommitsByMode[stats.CommitNSCL])
	t.v["core.lines_locked"] += float64(s.LinesLocked)
	t.v["core.lock_retries"] += float64(s.LockRetries)
	t.v["core.discovery_runs"] += float64(s.DiscoveryRuns)
	t.v["coherence.locks"] += float64(d.Locks)
	t.v["coherence.nacks"] += float64(d.Nacks)
	t.v["coherence.invalidations"] += float64(d.Invalidations)
	t.v["policy.overrides"] += float64(s.PolicyOverrides)
	t.v["policy.backoff_ticks"] += float64(s.PolicyBackoffTicks)
	t.v["sim.ticks.discovery"] += float64(s.DiscoveryCycles)
	t.v["instr.committed"] += float64(s.Instructions)
	t.v["instr.aborted"] += float64(s.AbortedInstructions)
	for b := htm.Bucket(0); b < htm.NumBuckets; b++ {
		t.v["htm.aborts."+b.String()] += float64(s.AbortsByBucket[b])
	}
}

// addProfile adds the simulated-time split of one traced run.
func (t *tally) addProfile(buf []byte) error {
	rd, err := trace.NewReader(bytes.NewReader(buf))
	if err != nil {
		return err
	}
	evs, err := rd.ReadAll()
	if err != nil {
		return err
	}
	p := trace.BuildProfile(rd.Meta(), evs)
	t.add("sim.ticks.aborted", float64(p.AbortedTicks))
	t.add("sim.ticks.lock_wait", float64(p.LockWaitTicks))
	for _, ar := range p.ARs {
		t.add("sim.ticks.committed", float64(ar.CommittedTicks))
	}
	for r, ticks := range p.TicksLostByReason {
		t.add("sim.ticks_lost."+r.String(), float64(ticks))
	}
	return nil
}

// phaseLoop repeats pass until the phase's time is up, at least min and at
// most maxPasses times (0 = no cap), and returns how many passes ran.
func phaseLoop(d time.Duration, minPasses, maxPasses int, pass func(i int)) int {
	deadline := time.Now().Add(d)
	n := 0
	for n < minPasses || (time.Now().Before(deadline) && (maxPasses == 0 || n < maxPasses)) {
		pass(n)
		n++
	}
	return n
}

// maxSpanPasses caps the span phase so that spans.json stays a few MB even
// for the 912-run warm sweep.
const maxSpanPasses = 20

// tracedRun measures the per-layer split of an instance in three phases,
// each checked for correctness like a timed pass:
//
//	observe: plain passes, each run timed through a Runner wrapper,
//	         alternating with passes that attach trace.Attach (into
//	         memory) and metrics.Attach to every run;
//	spans:   harness.Run's calls replayed with a span around each;
//	profile: timed passes under the CPU profiler, bucketed by package.
type tracedRun struct {
	in  *instance
	m   map[string]float64
	res passResult

	mu sync.Mutex // guards what the sweep workers record below
	// harnessDigest maps a run's spec key to the digest harness.Run gave
	// it in the first plain pass.
	harnessDigest map[string]string
}

// traced runs the observe phase for budget/2 and the others for budget/4
// each, and returns every measured per-layer metric and the runs the
// phases made. It writes spans-<workload>.json and cpu-<workload>.pprof
// into dir.
func (in *instance) traced(budget time.Duration, dir string) (map[string]float64, passResult, error) {
	t := &tracedRun{in: in, m: make(map[string]float64), harnessDigest: make(map[string]string)}
	t.observe(budget / 2)
	if err := t.spans(budget/4, filepath.Join(dir, "spans-"+in.def.name+".json")); err != nil {
		return nil, t.res, err
	}
	if err := t.profile(budget/4, filepath.Join(dir, "cpu-"+in.def.name+".pprof")); err != nil {
		return nil, t.res, err
	}
	return t.m, t.res, nil
}

// busyPass runs one pass with every run going through exec and returns
// the time spent inside exec, summed over the sweep workers.
func (t *tracedRun) busyPass(reg *metrics.Registry, exec func(p harness.RunParams, store runstore.Backend) (*harness.RunResult, *harness.RunFailure, bool)) time.Duration {
	var sum time.Duration
	r := t.in.passWith(func(p harness.RunParams, store runstore.Backend, _ int) (*harness.RunResult, *harness.RunFailure, bool) {
		s := time.Now()
		res, fail, hit := exec(p, store)
		d := time.Since(s)
		t.mu.Lock()
		sum += d
		t.mu.Unlock()
		return res, fail, hit
	}, nil, reg)
	t.res.merge(r)
	return sum
}

// observe alternates plain and attached passes, so that both see the same
// host conditions, and reports the cost of observing, the workers' idle
// share, and the simulated-time split of the first attached pass.
func (t *tracedRun) observe(d time.Duration) {
	reg := metrics.NewRegistry()
	var traces [][]byte // of the first attached pass, guarded by t.mu
	var plainBusy, attachedBusy []float64
	var plainWall time.Duration
	phaseLoop(d, 4, 0, func(i int) {
		first := i < 2
		if i%2 == 0 {
			start := time.Now()
			busy := t.busyPass(nil, func(p harness.RunParams, store runstore.Backend) (*harness.RunResult, *harness.RunFailure, bool) {
				res, fail, hit := harness.RunCheckedCached(store, p)
				if fail == nil && first {
					t.mu.Lock()
					t.harnessDigest[p.Spec().Key()] = res.Stats.Digest()
					t.mu.Unlock()
				}
				return res, fail, hit
			})
			plainWall += time.Since(start)
			plainBusy = append(plainBusy, busy.Seconds())
			return
		}
		busy := t.busyPass(reg, func(p harness.RunParams, store runstore.Backend) (*harness.RunResult, *harness.RunFailure, bool) {
			// A run with a trace writer is never served from the store,
			// so a warm pass attaches the registry alone.
			if store != nil {
				return harness.RunCheckedCached(store, p)
			}
			buf := new(bytes.Buffer)
			p.TraceWriter = buf
			res, fail, hit := harness.RunCheckedCached(nil, p)
			if first {
				t.mu.Lock()
				traces = append(traces, buf.Bytes())
				t.mu.Unlock()
			}
			return res, fail, hit
		})
		attachedBusy = append(attachedBusy, busy.Seconds())
	})

	workers := 1
	if t.in.def.matrix != nil {
		workers = parallelism
	}
	total := 0.0
	for _, b := range plainBusy {
		total += b
	}
	t.m["harness.worker_idle_share"] = max(0, 1-total/(float64(workers)*plainWall.Seconds()))
	if m := median(plainBusy); m > 0 {
		t.m["observe.overhead_ratio"] = median(attachedBusy) / m
	}
	ticks := newTally()
	size := 0
	for _, b := range traces {
		size += len(b)
		if err := ticks.addProfile(b); err != nil {
			t.res.fail(1, "read trace: %v", err)
		}
	}
	if len(traces) > 0 {
		t.m["trace.bytes_per_run"] = float64(size) / float64(len(traces))
	}
	for k, v := range ticks.v {
		t.m[k] = v
	}
}

// spans replays harness.Run's public calls with a span around each and
// asserts each replayed digest equals harness.Run's. A warm pass simulates
// nothing; its runs go through the store wrapped in spans instead.
func (t *tracedRun) spans(d time.Duration, path string) error {
	log := newSpanLog()
	layers := newTally()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	passes := phaseLoop(d, 1, maxSpanPasses, func(i int) {
		counts := layers
		if i > 0 {
			counts = nil // every pass repeats the first one's counts exactly
		}
		r := t.in.passWith(func(p harness.RunParams, store runstore.Backend, parent int) (*harness.RunResult, *harness.RunFailure, bool) {
			id := log.begin("harness.run", parent)
			defer log.end(id)
			if store != nil {
				return harness.RunCheckedCached(spanBackend{store, log, id, counts}, p)
			}
			fail := func(reason string) *harness.RunFailure {
				return &harness.RunFailure{Benchmark: p.Benchmark, Config: p.Config, RetryLimit: p.RetryLimit, Seed: p.Seed, Reason: reason}
			}
			res, events, err := replay(p, log, id)
			if err != nil {
				return nil, fail(err.Error()), false
			}
			t.mu.Lock()
			want, ok := t.harnessDigest[p.Spec().Key()]
			t.mu.Unlock()
			if !ok || res.Stats.Digest() != want {
				return nil, fail("replayed digest differs from harness.Run's"), false
			}
			counts.addRun(res, events)
			return res, nil, false
		}, log, nil)
		t.res.merge(r)
	})
	runtime.ReadMemStats(&ms1)

	n := float64(passes)
	for name, d := range selfTimes(log.spans) {
		t.m[name+"_ms"] = d.Seconds() * 1000 / n
	}
	var gets []float64
	for _, s := range log.spans {
		if s.Name == "runstore.get" {
			gets = append(gets, float64(s.End-s.Start)/1e3)
		}
	}
	t.m["runstore.get_us_p50"] = median(gets)
	t.m["go.mallocs_per_run"] = float64(ms1.Mallocs-ms0.Mallocs) / (n * float64(t.in.ref.runs))
	t.m["go.gc_cycles"] = float64(ms1.NumGC-ms0.NumGC) / n
	committed, aborted := layers.v["instr.committed"], layers.v["instr.aborted"]
	delete(layers.v, "instr.committed")
	delete(layers.v, "instr.aborted")
	for k, v := range layers.v {
		t.m[k] = v
	}
	if committed+aborted > 0 {
		t.m["cpu.useful_instr_ratio"] = committed / (committed + aborted)
	}
	header := map[string]any{"workload": t.in.def.name, "seed": t.in.seed, "passes": passes}
	if err := log.write(path, header); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// profile runs timed passes under the CPU profiler and splits the samples'
// self time by package.
func (t *tracedRun) profile(d time.Duration, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	phaseLoop(d, 2, 0, func(int) { t.res.merge(t.in.pass()) })
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	shares, err := profileShares(path)
	if err != nil {
		return err
	}
	for bucket, share := range shares {
		t.m["prof."+bucket+".self_share"] = share
	}
	return nil
}
