package repro

// One benchmark per table and figure of the paper's evaluation (§6–§7),
// plus ablations of CLEAR's design choices. Each figure benchmark shares a
// single evaluation matrix (computed once per `go test -bench` process at a
// reduced-but-faithful scale) and reports its headline numbers through
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates the whole
// evaluation:
//
//	norm_time_C      Figure 8's CLEAR/requester-wins geomean
//	aborts/commit_C  Figure 9
//	norm_energy_C    Figure 10
//	retry1_share_C   Figure 13
//	...
//
// Full-scale runs (32 cores, retry sweep 1..8, multi-seed) go through
// cmd/clearbench; set -clearbench.full to use that scale here too.
import (
	"flag"
	"fmt"
	"io"
	"math"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/workload"
)

var fullScale = flag.Bool("clearbench.full", false, "run figure benchmarks at the paper's full 32-core scale")

var (
	matrixOnce sync.Once
	matrix     *harness.Matrix
	matrixErr  error
)

// benchMatrix lazily runs the shared evaluation sweep.
func benchMatrix(b *testing.B) *harness.Matrix {
	b.Helper()
	matrixOnce.Do(func() {
		opts := harness.DefaultMatrixOptions()
		if !*fullScale {
			opts.Cores = 16
			opts.OpsPerThread = 48
			opts.Seeds = []uint64{1}
			opts.RetryLimits = []int{2, 6}
		}
		matrix, matrixErr = harness.RunMatrix(opts)
	})
	if matrixErr != nil {
		b.Fatal(matrixErr)
	}
	return matrix
}

// geoAcross folds a per-benchmark normalized metric across the matrix.
func geoAcross(m *harness.Matrix, cfg harness.ConfigID, metric func(*harness.Aggregate) float64) float64 {
	prod, n := 1.0, 0
	for _, bench := range m.Opts.Benchmarks {
		v := m.Normalized(bench, cfg, metric)
		if v > 0 {
			prod *= v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1.0/float64(n))
}

func meanAcross(m *harness.Matrix, cfg harness.ConfigID, metric func(*harness.Aggregate) float64) float64 {
	sum, n := 0.0, 0
	for _, bench := range m.Opts.Benchmarks {
		if cell := m.Cell(bench, cfg); cell != nil {
			sum += metric(cell)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BenchmarkTable1 regenerates Table 1: the static mutability classification
// of every benchmark's atomic regions.
func BenchmarkTable1(b *testing.B) {
	var imm, likely, mut int
	for i := 0; i < b.N; i++ {
		imm, likely, mut = 0, 0, 0
		for _, name := range workload.Names() {
			bench, err := workload.New(name)
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range bench.ARs() {
				switch isa.Analyze(p).Mutability {
				case isa.Immutable:
					imm++
				case isa.LikelyImmutable:
					likely++
				default:
					mut++
				}
			}
		}
	}
	b.ReportMetric(float64(imm), "ARs_immutable")
	b.ReportMetric(float64(likely), "ARs_likely")
	b.ReportMetric(float64(mut), "ARs_mutable")
}

// BenchmarkTable2 exercises machine construction with the Table 2
// configuration (the simulated hardware the evaluation runs on).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.PrintTable2(io.Discard, 32)
	}
}

// BenchmarkFigure1 reports the fraction of retrying ARs whose footprint is
// at most 32 lines and unchanged on the first retry (paper average: 0.602).
func BenchmarkFigure1(b *testing.B) {
	m := benchMatrix(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		m.PrintFigure1(io.Discard)
		ratio = meanAcross(m, harness.ConfigB, func(a *harness.Aggregate) float64 { return a.Fig1Ratio })
	}
	b.ReportMetric(ratio, "immutable_ratio")
	b.ReportMetric(harness.PaperAverages.Fig1Ratio, "paper_ratio")
}

// BenchmarkFigure8 reports normalized execution time (paper geomeans:
// P 0.873, C 0.726, W 0.650).
func BenchmarkFigure8(b *testing.B) {
	m := benchMatrix(b)
	cycles := func(a *harness.Aggregate) float64 { return a.Cycles }
	for i := 0; i < b.N; i++ {
		m.PrintFigure8(io.Discard)
	}
	for _, cfg := range harness.AllConfigs {
		b.ReportMetric(geoAcross(m, cfg, cycles), "norm_time_"+cfg.String())
	}
}

// BenchmarkFigure9 reports aborts per committed transaction (paper: B 7.9,
// P 6.6, C 1.6, W 2.3).
func BenchmarkFigure9(b *testing.B) {
	m := benchMatrix(b)
	apc := func(a *harness.Aggregate) float64 { return a.AbortsPerCommit }
	for i := 0; i < b.N; i++ {
		m.PrintFigure9(io.Discard)
	}
	for _, cfg := range harness.AllConfigs {
		b.ReportMetric(meanAcross(m, cfg, apc), "aborts_per_commit_"+cfg.String())
	}
}

// BenchmarkFigure10 reports normalized energy (paper: C 0.736, W 0.694).
func BenchmarkFigure10(b *testing.B) {
	m := benchMatrix(b)
	energy := func(a *harness.Aggregate) float64 { return a.Energy }
	for i := 0; i < b.N; i++ {
		m.PrintFigure10(io.Discard)
	}
	for _, cfg := range harness.AllConfigs {
		b.ReportMetric(geoAcross(m, cfg, energy), "norm_energy_"+cfg.String())
	}
}

// BenchmarkFigure11 reports the abort-type breakdown; the headline metric is
// the memory-conflict share under the baseline.
func BenchmarkFigure11(b *testing.B) {
	m := benchMatrix(b)
	for i := 0; i < b.N; i++ {
		m.PrintFigure11(io.Discard)
	}
	for _, cfg := range harness.AllConfigs {
		b.ReportMetric(meanAcross(m, cfg, func(a *harness.Aggregate) float64 {
			return a.AbortShares[0] // memory-conflict bucket
		}), "memconflict_share_"+cfg.String())
	}
}

// BenchmarkFigure12 reports the commit-mode breakdown; the headline metrics
// are the CL-mode (S-CL + NS-CL) and fallback shares under CLEAR.
func BenchmarkFigure12(b *testing.B) {
	m := benchMatrix(b)
	for i := 0; i < b.N; i++ {
		m.PrintFigure12(io.Discard)
	}
	clShare := func(a *harness.Aggregate) float64 {
		return a.ModeShares[stats.CommitSCL] + a.ModeShares[stats.CommitNSCL]
	}
	fbShare := func(a *harness.Aggregate) float64 {
		return a.ModeShares[stats.CommitFallback]
	}
	b.ReportMetric(meanAcross(m, harness.ConfigC, clShare), "cl_mode_share_C")
	b.ReportMetric(meanAcross(m, harness.ConfigB, fbShare), "fallback_share_B")
	b.ReportMetric(meanAcross(m, harness.ConfigC, fbShare), "fallback_share_C")
}

// BenchmarkFigure13 reports the single-retry and fallback shares of retrying
// commits (paper: first-retry B 35.4% -> W 64.4%; fallback 37.2% -> 15.4%).
func BenchmarkFigure13(b *testing.B) {
	m := benchMatrix(b)
	for i := 0; i < b.N; i++ {
		m.PrintFigure13(io.Discard)
	}
	for _, cfg := range harness.AllConfigs {
		b.ReportMetric(meanAcross(m, cfg, func(a *harness.Aggregate) float64 { return a.FirstRetryShare }),
			"retry1_share_"+cfg.String())
		b.ReportMetric(meanAcross(m, cfg, func(a *harness.Aggregate) float64 { return a.FallbackShare }),
			"fallback_share_"+cfg.String())
	}
}

// ablationCompare runs one benchmark under CLEAR with and without an
// ablation switch and reports the cycle ratio (ablated / full CLEAR).
func ablationCompare(b *testing.B, bench string, tweak func(*harness.RunParams)) float64 {
	b.Helper()
	base := harness.DefaultRunParams(bench, harness.ConfigC)
	base.Cores = 16
	base.OpsPerThread = 48
	ablated := base
	tweak(&ablated)
	rBase, err := harness.Run(base)
	if err != nil {
		b.Fatal(err)
	}
	rAbl, err := harness.Run(ablated)
	if err != nil {
		b.Fatal(err)
	}
	return float64(rAbl.Stats.Cycles) / float64(rBase.Stats.Cycles)
}

// BenchmarkAblationDiscoveryContinuation isolates §4.1's failed-mode
// continuation: without it, conflicted discoveries abort immediately and
// CLEAR converts almost nothing.
func BenchmarkAblationDiscoveryContinuation(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = ablationCompare(b, "mwobject", func(p *harness.RunParams) {
			p.DisableDiscoveryContinuation = true
		})
	}
	b.ReportMetric(ratio, "cycles_ratio_no_continuation")
}

// BenchmarkAblationSCLLockAll evaluates §4.4.2's rejected alternative:
// locking the whole learned footprint in S-CL instead of writes+CRT.
func BenchmarkAblationSCLLockAll(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = ablationCompare(b, "bitcoin", func(p *harness.RunParams) {
			p.SCLLockAllReads = true
		})
	}
	b.ReportMetric(ratio, "cycles_ratio_lock_all_reads")
}

// BenchmarkHarnessRunHot is the hot-path yardstick of the host-performance
// work: one full `harness.Run` of intruder under ConfigC at the paper's 32
// cores. scripts/bench_hotpath.sh tracks its ns/op and allocs/op across PRs
// in BENCH_hotpath.json.
func BenchmarkHarnessRunHot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := harness.DefaultRunParams("intruder", harness.ConfigC)
		if _, err := harness.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHarnessRunHotFallback is the per-run cell where waiting on the
// fallback lock dominates: labyrinth under requester-wins at 32 cores × 32
// ops (a cell of the repository benchmark's stamp-long workload), whose
// long ARs mostly overflow into fallback while the other cores poll the
// lock. It prices the parked-poll path of the event engine.
func BenchmarkHarnessRunHotFallback(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := harness.DefaultRunParams("labyrinth", harness.ConfigB)
		p.OpsPerThread = 32
		if _, err := harness.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHarnessRunHotTraced is the same run with the binary event
// tracer attached (stream discarded): the delta against
// BenchmarkHarnessRunHot prices the observability layer when it is ON; the
// detached cost is a nil pointer compare per hook site, so
// BenchmarkHarnessRunHot itself must stay allocation-identical to its
// pre-tracer baseline.
func BenchmarkHarnessRunHotTraced(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := harness.DefaultRunParams("intruder", harness.ConfigC)
		p.TraceWriter = io.Discard
		if _, err := harness.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHarnessRunHotMetrics is the same run with a metrics registry
// attached: the delta against BenchmarkHarnessRunHot prices the instrument
// collector when it is ON. CI holds this under an alloc budget — the
// collector's hot path is pure atomics, so the only allocations beyond the
// bare run are the registry, its series, and the per-core collector state.
func BenchmarkHarnessRunHotMetrics(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := harness.DefaultRunParams("intruder", harness.ConfigC)
		p.Metrics = metrics.NewRegistry()
		if _, err := harness.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (host time per
// simulated event) on a contended workload — the practical cost of using
// this simulator as a research vehicle.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := harness.DefaultRunParams("hashmap", harness.ConfigW)
		p.Cores = 16
		p.OpsPerThread = 40
		p.Seed = uint64(i + 1)
		if _, err := harness.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationALTSize sweeps the Addresses-to-Lock Table capacity on a
// mid-footprint benchmark: a small ALT rejects conversions (footprints
// overflow), a large one admits more of them.
func BenchmarkAblationALTSize(b *testing.B) {
	for _, size := range []int{8, 16, 32, 64} {
		size := size
		b.Run(fmt.Sprintf("alt%d", size), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				p := harness.DefaultRunParams("sorted-list", harness.ConfigC)
				p.Cores = 16
				p.OpsPerThread = 48
				p.ALTEntries = size
				res, err := harness.Run(p)
				if err != nil {
					b.Fatal(err)
				}
				cycles = float64(res.Stats.Cycles)
			}
			b.ReportMetric(cycles, "sim_cycles")
		})
	}
}

// BenchmarkAblationERTSize sweeps the Explored Region Table: bayes has 14
// ARs, so an undersized ERT thrashes and keeps re-learning convertibility.
func BenchmarkAblationERTSize(b *testing.B) {
	for _, size := range []int{2, 4, 16} {
		size := size
		b.Run(fmt.Sprintf("ert%d", size), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				p := harness.DefaultRunParams("bayes", harness.ConfigC)
				p.Cores = 16
				p.OpsPerThread = 32
				p.ERTEntries = size
				res, err := harness.Run(p)
				if err != nil {
					b.Fatal(err)
				}
				cycles = float64(res.Stats.Cycles)
			}
			b.ReportMetric(cycles, "sim_cycles")
		})
	}
}

// BenchmarkSLEvsHTM compares CLEAR over in-core speculation (§4.1) with
// CLEAR over HTM (§4.2) on a benchmark whose traversals strain the in-core
// window.
func BenchmarkSLEvsHTM(b *testing.B) {
	for _, mode := range []struct {
		name string
		sle  bool
	}{{"HTM", false}, {"SLE", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				p := harness.DefaultRunParams("sorted-list", harness.ConfigC)
				p.Cores = 16
				p.OpsPerThread = 48
				p.SLE = mode.sle
				res, err := harness.Run(p)
				if err != nil {
					b.Fatal(err)
				}
				cycles = float64(res.Stats.Cycles)
			}
			b.ReportMetric(cycles, "sim_cycles")
		})
	}
}

// BenchmarkStaticLockingTradeoffs demonstrates §1's assessment of the
// non-speculative multi-address approaches (§2.2): static cacheline locking
// wins on contended read-modify-write regions (no retries ever), but
// degrades low-contention regions that read shared data, because
// "exclusivity is requested also for cachelines that are only read, thus
// causing extra invalidation events".
func BenchmarkStaticLockingTradeoffs(b *testing.B) {
	build := func(sharedReads int) *isa.Program {
		pb := isa.NewBuilder("tradeoff")
		// Read sharedReads shared config lines (addresses in R1..), then
		// increment a private counter at R0.
		for i := 0; i < sharedReads; i++ {
			pb.Load(isa.R8, isa.Reg(1+i), 0)
		}
		pb.Load(isa.R9, isa.R0, 0)
		pb.Addi(isa.R9, isa.R9, 1)
		pb.Store(isa.R0, 0, isa.R9)
		pb.Halt()
		return pb.Build(1)
	}

	run := func(b *testing.B, staticLocking bool, sharedReads int) float64 {
		b.Helper()
		const cores, ops = 16, 60
		memory := mem.NewMemory(0x100000)
		shared := make([]mem.Addr, sharedReads)
		for i := range shared {
			shared[i] = memory.AllocLine()
		}
		private := make([]mem.Addr, cores)
		for i := range private {
			private[i] = memory.AllocLine()
		}
		cfg := cpu.DefaultSystemConfig()
		cfg.Cores = cores
		cfg.StaticLocking = staticLocking
		m, err := cpu.NewMachine(cfg, memory)
		if err != nil {
			b.Fatal(err)
		}
		prog := build(sharedReads)
		feeds := make([]cpu.InvocationSource, cores)
		for tid := 0; tid < cores; tid++ {
			regs := []cpu.RegInit{{Reg: isa.R0, Val: uint64(private[tid])}}
			for i, s := range shared {
				regs = append(regs, cpu.RegInit{Reg: isa.Reg(1 + i), Val: uint64(s)})
			}
			invs := make([]cpu.Invocation, ops)
			for j := range invs {
				invs[j] = cpu.Invocation{Prog: prog, Regs: regs}
			}
			feeds[tid] = &cpu.SliceSource{Invs: invs}
		}
		m.AttachFeeds(feeds)
		if err := m.Run(400_000_000); err != nil {
			b.Fatal(err)
		}
		return float64(m.Stats.Cycles)
	}

	b.Run("shared-reads", func(b *testing.B) {
		var ratio float64
		for i := 0; i < b.N; i++ {
			spec := run(b, false, 4)
			static := run(b, true, 4)
			ratio = static / spec
		}
		// Expected > 1: locking read-shared lines exclusively ping-pongs.
		b.ReportMetric(ratio, "static_over_speculative")
	})
	b.Run("contended-rmw", func(b *testing.B) {
		var ratio float64
		for i := 0; i < b.N; i++ {
			// Every thread updates the same line: speculation thrashes,
			// locking serialises cleanly. Expected < 1.
			spec := runSharedCounter(b, false)
			static := runSharedCounter(b, true)
			ratio = static / spec
		}
		b.ReportMetric(ratio, "static_over_speculative")
	})
}

func runSharedCounter(b *testing.B, staticLocking bool) float64 {
	b.Helper()
	const cores, ops = 16, 60
	memory := mem.NewMemory(0x100000)
	x := memory.AllocLine()
	cfg := cpu.DefaultSystemConfig()
	cfg.Cores = cores
	cfg.StaticLocking = staticLocking
	m, err := cpu.NewMachine(cfg, memory)
	if err != nil {
		b.Fatal(err)
	}
	pb := isa.NewBuilder("counter")
	pb.Load(isa.R8, isa.R0, 0)
	pb.Addi(isa.R8, isa.R8, 1)
	pb.Store(isa.R0, 0, isa.R8)
	pb.Halt()
	prog := pb.Build(1)
	feeds := make([]cpu.InvocationSource, cores)
	for tid := 0; tid < cores; tid++ {
		invs := make([]cpu.Invocation, ops)
		for j := range invs {
			invs[j] = cpu.Invocation{Prog: prog, Regs: []cpu.RegInit{{Reg: isa.R0, Val: uint64(x)}}}
		}
		feeds[tid] = &cpu.SliceSource{Invs: invs}
	}
	m.AttachFeeds(feeds)
	if err := m.Run(400_000_000); err != nil {
		b.Fatal(err)
	}
	if got := memory.ReadWord(x); got != cores*ops {
		b.Fatalf("counter %d, want %d", got, cores*ops)
	}
	return float64(m.Stats.Cycles)
}

// BenchmarkMeshVsCrossbar prices the interconnect substitution: the same
// workload over the Table 2 crossbar and over a 2D mesh with distributed
// directory banks.
func BenchmarkMeshVsCrossbar(b *testing.B) {
	for _, topo := range []struct {
		name string
		mesh bool
	}{{"crossbar", false}, {"mesh", true}} {
		topo := topo
		b.Run(topo.name, func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				p := harness.DefaultRunParams("hashmap", harness.ConfigC)
				p.Cores = 16
				p.OpsPerThread = 48
				p.Mesh = topo.mesh
				res, err := harness.Run(p)
				if err != nil {
					b.Fatal(err)
				}
				cycles = float64(res.Stats.Cycles)
			}
			b.ReportMetric(cycles, "sim_cycles")
		})
	}
}
