package harness

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestTrimKeep(t *testing.T) {
	cases := []struct {
		cycles []float64
		want   int // kept count
	}{
		{[]float64{100}, 1},
		{[]float64{100, 200}, 2},
		{[]float64{100, 110, 5000}, 2},                // drop 1 of 3
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 7}, // drop 3 of 10 (the paper's rule)
	}
	for _, c := range cases {
		keep := trimKeep(c.cycles)
		if len(keep) != c.want {
			t.Errorf("trimKeep(%v) kept %d, want %d", c.cycles, len(keep), c.want)
		}
	}
	// The outlier is the one dropped.
	keep := trimKeep([]float64{100, 110, 5000})
	for _, idx := range keep {
		if idx == 2 {
			t.Fatal("outlier survived the trim")
		}
	}
}

func TestGeomeanAndMean(t *testing.T) {
	if g := geomean([]float64{1, 4}); math.Abs(g-2) > 1e-9 {
		t.Fatalf("geomean(1,4) = %v, want 2", g)
	}
	if g := geomean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %v", g)
	}
	if g := geomean([]float64{1, 0}); g != 0 {
		t.Fatalf("geomean with zero = %v, want 0 sentinel", g)
	}
	if m := mean([]float64{1, 2, 3}); math.Abs(m-2) > 1e-9 {
		t.Fatalf("mean = %v", m)
	}
}

func TestRunSingle(t *testing.T) {
	p := DefaultRunParams("arrayswap", ConfigC)
	p.Cores = 4
	p.OpsPerThread = 25
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Commits != 100 {
		t.Fatalf("commits %d, want 100", res.Stats.Commits)
	}
	if res.Energy <= 0 {
		t.Fatal("energy not computed")
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	if _, err := Run(DefaultRunParams("nope", ConfigB)); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	p := DefaultRunParams("queue", ConfigW)
	p.Cores = 4
	p.OpsPerThread = 30
	a, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Cycles != b.Stats.Cycles || a.Stats.Aborts != b.Stats.Aborts {
		t.Fatalf("identical params diverged: %d/%d vs %d/%d cycles/aborts",
			a.Stats.Cycles, a.Stats.Aborts, b.Stats.Cycles, b.Stats.Aborts)
	}
}

func TestMatrixQuick(t *testing.T) {
	opts := QuickMatrixOptions()
	opts.Benchmarks = []string{"mwobject", "bitcoin"}
	opts.Cores = 4
	opts.OpsPerThread = 20
	m, err := RunMatrix(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range opts.Benchmarks {
		for _, c := range AllConfigs {
			cell := m.Cell(b, c)
			if cell == nil {
				t.Fatalf("missing cell %s/%s", b, c)
			}
			if cell.Cycles <= 0 || cell.Commits != 80 {
				t.Fatalf("cell %s/%s: cycles=%v commits=%v", b, c, cell.Cycles, cell.Commits)
			}
		}
		if n := m.Normalized(b, ConfigB, func(a *Aggregate) float64 { return a.Cycles }); math.Abs(n-1) > 1e-9 {
			t.Fatalf("baseline normalization %v, want 1", n)
		}
	}

	// All the figure printers must produce non-empty output with the
	// benchmark rows present.
	var buf bytes.Buffer
	m.PrintFigure1(&buf)
	m.PrintFigure8(&buf)
	m.PrintFigure9(&buf)
	m.PrintFigure10(&buf)
	m.PrintFigure11(&buf)
	m.PrintFigure12(&buf)
	m.PrintFigure13(&buf)
	out := buf.String()
	for _, want := range []string{"mwobject", "bitcoin", "geomean", "paper", "Figure 13"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure output missing %q", want)
		}
	}
}

func TestTable1Printer(t *testing.T) {
	var buf bytes.Buffer
	if err := PrintTable1(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"arrayswap", "yada", "Mutable"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("Table 1 output missing %q", want)
		}
	}
	var buf2 bytes.Buffer
	PrintTable2(&buf2, 32)
	if !strings.Contains(buf2.String(), "Store queue") {
		t.Fatal("Table 2 output incomplete")
	}
}

func TestAggregateSharesSum(t *testing.T) {
	p := DefaultRunParams("stack", ConfigC)
	p.Cores = 8
	p.OpsPerThread = 40
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := aggregateRuns([]*RunResult{res})
	if err != nil {
		t.Fatal(err)
	}
	var modeSum float64
	for m := stats.CommitMode(0); m < stats.NumCommitModes; m++ {
		modeSum += agg.ModeShares[m]
	}
	if math.Abs(modeSum-1) > 1e-9 {
		t.Fatalf("commit-mode shares sum to %v, want 1", modeSum)
	}
	if agg.Aborts > 0 {
		var abortSum float64
		for _, s := range agg.AbortShares {
			abortSum += s
		}
		if math.Abs(abortSum-1) > 1e-9 {
			t.Fatalf("abort shares sum to %v, want 1", abortSum)
		}
	}
}

func TestRetrySweep(t *testing.T) {
	opts := QuickMatrixOptions()
	opts.Benchmarks = []string{"mwobject"}
	opts.Configs = []ConfigID{ConfigB, ConfigC}
	opts.Cores = 4
	opts.OpsPerThread = 20
	opts.RetryLimits = []int{1, 4}
	m, err := RunMatrix(opts)
	if err != nil {
		t.Fatal(err)
	}
	cell := m.Cell("mwobject", ConfigC)
	if cell == nil {
		t.Fatal("no mwobject/C cell")
	}
	best, cycles := cell.BestRetryLimit, cell.Cycles
	if cycles <= 0 || (best != 1 && best != 4) {
		t.Fatalf("best = %d at %v cycles", best, cycles)
	}
	var buf bytes.Buffer
	m.PrintRetrySweep(&buf)
	if !strings.Contains(buf.String(), "mwobject") || !strings.Contains(buf.String(), "*") {
		t.Fatal("sweep output incomplete")
	}
}

func TestWriteCSV(t *testing.T) {
	opts := QuickMatrixOptions()
	opts.Benchmarks = []string{"mwobject"}
	opts.Cores = 4
	opts.OpsPerThread = 20
	m, err := RunMatrix(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(AllConfigs) {
		t.Fatalf("%d CSV lines, want header + %d cells", len(lines), len(AllConfigs))
	}
	if !strings.HasPrefix(lines[0], "benchmark,config,") {
		t.Fatalf("bad header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "mwobject,B,") {
		t.Fatalf("bad first row %q", lines[1])
	}
	// Every row has the full column count.
	cols := strings.Count(lines[0], ",")
	for i, l := range lines {
		if strings.Count(l, ",") != cols {
			t.Fatalf("row %d has wrong arity: %q", i, l)
		}
	}
}

func TestConfigPlumbing(t *testing.T) {
	p := DefaultRunParams("mwobject", ConfigW)
	p.SLE = true
	p.Mesh = true
	p.ALTEntries = 8
	p.ERTEntries = 4
	p.CRTEntries = 16
	p.CRTWays = 4
	cfg := p.SystemConfig()
	if !cfg.CLEAR || !cfg.PowerTM || !cfg.SLE || !cfg.Mesh {
		t.Fatalf("flags lost in translation: %+v", cfg)
	}
	if cfg.ALTEntries != 8 || cfg.ERTEntries != 4 || cfg.CRTEntries != 16 || cfg.CRTWays != 4 {
		t.Fatal("table sizes lost in translation")
	}
	if DefaultRunParams("x", ConfigM).SystemConfig().StaticLocking != true {
		t.Fatal("config M does not select static locking")
	}
	if DefaultRunParams("x", ConfigC).SystemConfig().StaticLocking {
		t.Fatal("config C selects static locking")
	}
}

func TestConfigIDStrings(t *testing.T) {
	want := map[ConfigID][2]string{
		ConfigB: {"B", "requester-wins"},
		ConfigP: {"P", "PowerTM"},
		ConfigC: {"C", "CLEAR/requester-wins"},
		ConfigW: {"W", "CLEAR/PowerTM"},
		ConfigM: {"M", "static cacheline locking (MAD/MCAS-like)"},
	}
	for id, w := range want {
		if id.String() != w[0] || id.Description() != w[1] {
			t.Fatalf("%v: %q/%q", id, id.String(), id.Description())
		}
	}
}

func TestConfigMRuns(t *testing.T) {
	p := DefaultRunParams("arrayswap", ConfigM)
	p.Cores = 8
	p.OpsPerThread = 30
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Commits != 240 {
		t.Fatalf("commits %d", res.Stats.Commits)
	}
	// arrayswap's ARs are fully static: no aborts under config M.
	if res.Stats.Aborts != 0 {
		t.Fatalf("%d aborts under static locking", res.Stats.Aborts)
	}
}

// TestRetrySweepTable: the sweep table stars the limit the best-of selection
// kept, the lowest of two tied limits, and marks a limit whose every seed
// failed. The fake runner lets results arrive in any order.
func TestRetrySweepTable(t *testing.T) {
	cycles := map[int]sim.Tick{1: 300, 2: 200, 4: 200}
	opts := MatrixOptions{
		Benchmarks:  []string{"hashmap"},
		Configs:     []ConfigID{ConfigC},
		Seeds:       []uint64{1},
		RetryLimits: []int{1, 2, 4, 8},
		Parallelism: 4,
		Runner: func(p RunParams) (*RunResult, *RunFailure, bool) {
			if p.RetryLimit == 8 {
				return nil, p.Failure("injected"), false
			}
			return &RunResult{Params: p, Stats: &stats.Run{Cycles: cycles[p.RetryLimit], Commits: 1}}, nil, false
		},
	}
	m, err := RunMatrix(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Failures) != 1 {
		t.Fatalf("%d failures, want the retry-8 cell's one", len(m.Failures))
	}
	var buf bytes.Buffer
	m.PrintRetrySweep(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("sweep table has %d lines, want title, header and one row:\n%s", len(lines), buf.String())
	}
	if got, want := strings.Join(strings.Fields(lines[2]), " "), "hashmap C 300 200* 200 -"; got != want {
		t.Fatalf("sweep row %q, want %q", got, want)
	}
}

// TestMatrixParallelismByteIdentical runs one fake-runner matrix on 1, 2 and
// 8 workers. Every run sleeps a random while, so cells finish out of order;
// some runs fail, one cell fails on every seed, and cycles take three values,
// so retry limits (listed out of order) tie often. The CSV, the failure list,
// the retry-sweep table and the cache counts must not depend on the width.
func TestMatrixParallelismByteIdentical(t *testing.T) {
	opts := MatrixOptions{
		Benchmarks:  []string{"sorted-list", "hashmap", "bitcoin"},
		Configs:     []ConfigID{ConfigB, ConfigC, ConfigW},
		Cores:       4,
		Seeds:       []uint64{1, 2, 3},
		RetryLimits: []int{8, 1, 4, 2},
		Runner: func(p RunParams) (*RunResult, *RunFailure, bool) {
			time.Sleep(time.Duration(rand.IntN(300)) * time.Microsecond)
			h := fnv.New64a()
			fmt.Fprintf(h, "%s/%s/%d/%d", p.Benchmark, p.Config, p.RetryLimit, p.Seed)
			v := h.Sum64()
			if v%5 == 0 || p.Benchmark == "bitcoin" && p.Config == ConfigW && p.RetryLimit == 8 {
				return nil, p.Failure("injected"), false
			}
			s := &stats.Run{Cycles: sim.Tick(100 + v%3*10), Commits: 10 + v%4, Aborts: v % 6}
			return &RunResult{Params: p, Stats: s, Energy: float64(v % 97)}, nil, v%2 == 0
		},
	}
	var want string
	for _, par := range []int{1, 2, 8} {
		opts.Parallelism = par
		m, err := RunMatrix(opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Failures) < len(opts.Seeds) {
			t.Fatalf("%d failures, want at least the failing cell's %d", len(m.Failures), len(opts.Seeds))
		}
		var buf bytes.Buffer
		if err := m.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		for _, f := range m.Failures {
			fmt.Fprintln(&buf, f.String())
		}
		m.PrintRetrySweep(&buf)
		fmt.Fprintf(&buf, "cache: %d hits, %d misses\n", m.CacheHits, m.CacheMisses)
		if par == 1 {
			want = buf.String()
		} else if got := buf.String(); got != want {
			t.Fatalf("Parallelism %d:\n%s\nParallelism 1:\n%s", par, got, want)
		}
	}
}
