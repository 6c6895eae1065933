package harness

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/runstore"
	"repro/internal/sim"
	"repro/internal/workload"
)

// MatrixOptions configures a full evaluation sweep: every benchmark under
// every configuration, with the paper's per-application retry-limit
// exploration and multi-seed repetition. RunMatrix is the only code that
// expands and drives it.
type MatrixOptions struct {
	Benchmarks   []string
	Configs      []ConfigID
	Cores        int
	OpsPerThread int
	Seeds        []uint64
	// RetryLimits is the design-space sweep; the best-performing limit is
	// selected per (benchmark, config), like the paper's "best of 1 to 10".
	RetryLimits []int
	MaxTicks    sim.Tick
	// Parallelism bounds concurrent simulations (host goroutines).
	Parallelism int
	// Ablation switches, applied to every run.
	DisableDiscoveryContinuation bool
	SCLLockAllReads              bool
	// Policy is the retry policy every cell runs under (zero value = the
	// paper-exact default). The matrix is single-policy by design; the
	// policy-frontier sweep (RunFrontier) loops RunMatrix per policy so
	// cache keys and cell CSVs stay comparable within one matrix.
	Policy policy.Spec
	// FaultPlan, when non-nil, is attached to every run of the sweep — the
	// "under faults" half of a policy-frontier comparison.
	FaultPlan *fault.Plan
	// Metrics, when non-nil, is attached to every run of the sweep; the
	// registry's series are all atomics, so one registry aggregates across
	// the parallel workers. Cache hits skip simulation and therefore contribute nothing here.
	Metrics *metrics.Registry
	// RunDeadline bounds the host wall time of every individual run; zero
	// means unbounded. A run exceeding it becomes a RunFailure instead of
	// hanging the sweep.
	RunDeadline time.Duration
	// Cancel, when non-nil and closed, stops the workers claiming new cells
	// (cells in flight finish); the partial matrix is returned. clearbench's
	// SIGINT handler uses it to report a partial sweep.
	Cancel <-chan struct{}
	// Store, when non-nil, is the content-addressed run cache
	// (internal/runstore): every seed run consults it before simulating and
	// persists its summary afterwards. Because cell results are pure
	// functions of their RunParams, a cancelled or crashed sweep restarted
	// with the same store recomputes only the missing and failed cells —
	// resume semantics fall out of caching. Safe to share across the
	// parallel workers: the local sharded directory or the in-memory Mem.
	// Leave nil when Runner is set (the runner owns execution, including
	// any caching).
	Store runstore.Backend
	// Runner, when non-nil, replaces the local execute-one-run path
	// (RunCheckedCached against Store) for every seed run of the sweep. The
	// farm client plugs in here: the same aggregation, best-of selection,
	// and CSV code runs over results produced anywhere, which is what makes
	// a remote sweep byte-identical to a local one. Must be safe for
	// concurrent calls from the parallel workers.
	Runner RunnerFunc
}

// cellKey names one (benchmark, config, retry-limit) cell of a sweep; the
// cell runs once per seed.
type cellKey struct {
	bench string
	cfg   ConfigID
	retry int
}

// cellKeys lists the sweep's cells, benchmark-major, then config and retry
// limit: the order RunMatrix's workers claim them in and fold them in.
func (o MatrixOptions) cellKeys() []cellKey {
	var keys []cellKey
	for _, bench := range o.Benchmarks {
		for _, cfg := range o.Configs {
			for _, retry := range o.RetryLimits {
				keys = append(keys, cellKey{bench, cfg, retry})
			}
		}
	}
	return keys
}

// run builds the seed run of cell k: the one place a sweep's RunParams are
// built.
func (o MatrixOptions) run(k cellKey, seed uint64) RunParams {
	return RunParams{
		Benchmark:                    k.bench,
		Config:                       k.cfg,
		Cores:                        o.Cores,
		OpsPerThread:                 o.OpsPerThread,
		RetryLimit:                   k.retry,
		Seed:                         seed,
		MaxTicks:                     o.MaxTicks,
		DisableDiscoveryContinuation: o.DisableDiscoveryContinuation,
		SCLLockAllReads:              o.SCLLockAllReads,
		Metrics:                      o.Metrics,
		Deadline:                     o.RunDeadline,
		Policy:                       o.Policy,
		FaultPlan:                    o.FaultPlan,
	}
}

// RunnerFunc executes one run of a sweep and reports the result, the
// isolated failure (exactly one of the two is non-nil), and whether the
// result was served from a cache — local or remote — rather than simulated.
type RunnerFunc func(p RunParams) (res *RunResult, fail *RunFailure, cacheHit bool)

// DefaultMatrixOptions is the full evaluation at laptop scale: all 19
// benchmarks, 32 simulated cores, three seeds, and a coarse retry sweep.
func DefaultMatrixOptions() MatrixOptions {
	return MatrixOptions{
		Benchmarks:   workload.Names(),
		Configs:      AllConfigs,
		Cores:        32,
		OpsPerThread: 80,
		Seeds:        []uint64{1, 2, 3},
		RetryLimits:  []int{1, 2, 4, 8},
		MaxTicks:     800_000_000,
		Parallelism:  runtime.GOMAXPROCS(0),
	}
}

// QuickMatrixOptions is a reduced sweep for tests and -short benches.
func QuickMatrixOptions() MatrixOptions {
	o := DefaultMatrixOptions()
	o.Cores = 8
	o.OpsPerThread = 30
	o.Seeds = []uint64{1}
	o.RetryLimits = []int{4}
	return o
}

// Matrix holds the aggregated cell results of a sweep.
type Matrix struct {
	Opts MatrixOptions
	// Cells holds the best retry limit's aggregate per (benchmark, config).
	Cells map[string]map[ConfigID]*Aggregate
	// ran holds the aggregate of every (benchmark, config, retry-limit) cell
	// with a surviving seed, the best-of losers included: PrintRetrySweep's
	// table.
	ran map[cellKey]*Aggregate
	// Failures lists every run that crashed, deadlocked, or blew its
	// deadline. Cells keep the aggregate over their surviving seeds; a cell
	// whose every seed failed is absent from Cells.
	Failures []RunFailure
	// CacheHits/CacheMisses count run-cache consults across every seed run
	// of the sweep, including the retry-limit cells that lost the best-of
	// selection. Both are zero without MatrixOptions.Store. Deliberately
	// not part of WriteCSV: the cell CSVs of a cold and a warm sweep must
	// stay byte-identical.
	CacheHits   int
	CacheMisses int
}

// Cell returns the aggregate for (benchmark, config); nil if absent.
func (m *Matrix) Cell(bench string, cfg ConfigID) *Aggregate {
	if row, ok := m.Cells[bench]; ok {
		return row[cfg]
	}
	return nil
}

// Normalized returns metric(cell)/metric(baseline B cell) for a benchmark.
func (m *Matrix) Normalized(bench string, cfg ConfigID, metric func(*Aggregate) float64) float64 {
	base := m.Cell(bench, ConfigB)
	cell := m.Cell(bench, cfg)
	if base == nil || cell == nil || metric(base) == 0 {
		return 0
	}
	return metric(cell) / metric(base)
}

// RunMatrix executes the sweep with a bounded worker pool. Each
// (benchmark, config, retry-limit) cell runs all seeds; the best retry limit
// (lowest trimmed-mean cycles) fills Cells, and PrintRetrySweep shows every
// limit's aggregate beside it. Individual run failures (crash,
// deadlock, deadline) are isolated into Matrix.Failures instead of aborting
// the sweep: the cell aggregates whatever seeds survived.
//
// Workers claim cells by one atomic add and write each result into its
// cell's slot; the slots are folded in cell order after the last worker
// exits. A worker yields once per cell: workers that never enter the
// scheduler leave the GC's mark workers waiting for preemption, and without
// the yield sweep-cold's peak RSS rose from 36 MB to 44 MB.
func RunMatrix(opts MatrixOptions) (*Matrix, error) {
	type cellResult struct {
		agg          *Aggregate
		fails        []RunFailure
		hits, misses int
	}

	keys := opts.cellKeys()
	slots := make([]cellResult, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < max(opts.Parallelism, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-opts.Cancel:
					return
				default:
				}
				i := int(next.Add(1) - 1)
				if i >= len(keys) {
					return
				}
				r := &slots[i]
				r.agg, r.fails, r.hits, r.misses = runCell(opts, keys[i])
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()

	best := make(map[string]map[ConfigID]*Aggregate)
	ran := make(map[cellKey]*Aggregate, len(keys))
	var failures []RunFailure
	var cacheHits, cacheMisses int
	for i, r := range slots {
		failures = append(failures, r.fails...)
		cacheHits += r.hits
		cacheMisses += r.misses
		if r.agg == nil {
			continue
		}
		k := keys[i]
		ran[k] = r.agg
		row, ok := best[k.bench]
		if !ok {
			row = make(map[ConfigID]*Aggregate)
			best[k.bench] = row
		}
		if betterAggregate(row[k.cfg], r.agg) {
			row[k.cfg] = r.agg
		}
	}
	sort.Slice(failures, func(i, j int) bool {
		a, b := failures[i], failures[j]
		if a.Benchmark != b.Benchmark {
			return a.Benchmark < b.Benchmark
		}
		if a.Config != b.Config {
			return a.Config < b.Config
		}
		if a.RetryLimit != b.RetryLimit {
			return a.RetryLimit < b.RetryLimit
		}
		return a.Seed < b.Seed
	})
	return &Matrix{
		Opts:        opts,
		Cells:       best,
		ran:         ran,
		Failures:    failures,
		CacheHits:   cacheHits,
		CacheMisses: cacheMisses,
	}, nil
}

// betterAggregate decides whether the candidate retry-limit aggregate
// replaces the current best of its (benchmark, config) cell: strictly fewer
// cycles wins; equal-cycle ties break towards the LOWEST retry limit. Cells
// are folded in the order RetryLimits lists them, so without the tie-break
// two limits that happen to produce identical cycle counts would make the
// best-of depend on how the limits were listed.
func betterAggregate(cur, cand *Aggregate) bool {
	if cur == nil {
		return true
	}
	if cand.Cycles != cur.Cycles {
		return cand.Cycles < cur.Cycles
	}
	return cand.BestRetryLimit < cur.BestRetryLimit
}

// runCell runs one (benchmark, config, retry-limit) cell across all seeds,
// consulting the run cache (when MatrixOptions.Store is set) before each
// simulation. Failed seeds are reported individually; the aggregate covers
// the survivors and is nil when every seed failed. hits/misses count the
// cache consults of this cell's seed runs.
func runCell(opts MatrixOptions, k cellKey) (agg *Aggregate, fails []RunFailure, hits, misses int) {
	run := opts.Runner
	if run == nil {
		run = func(p RunParams) (*RunResult, *RunFailure, bool) {
			return RunCheckedCached(opts.Store, p)
		}
	}
	results := make([]*RunResult, 0, len(opts.Seeds))
	for _, seed := range opts.Seeds {
		res, fail, hit := run(opts.run(k, seed))
		if hit {
			hits++
		} else if opts.Store != nil || opts.Runner != nil {
			misses++
		}
		if fail != nil {
			fails = append(fails, *fail)
			continue
		}
		results = append(results, res)
	}
	if len(results) == 0 {
		return nil, fails, hits, misses
	}
	agg, err := aggregateRuns(results)
	if err != nil {
		fails = append(fails, *results[0].Params.Failure(FailOther, "aggregate: "+err.Error()))
		return nil, fails, hits, misses
	}
	agg.CacheHits = hits
	agg.CacheMisses = misses
	return agg, fails, hits, misses
}
