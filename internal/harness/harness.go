// Package harness runs the paper's experiments: it assembles a simulated
// machine per (benchmark, configuration) pair, executes the region of
// interest, verifies workload invariants, aggregates multi-seed statistics
// with the paper's trimmed-mean protocol, and formats every table and figure
// of the evaluation section (§6–§7).
package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/check"
	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ConfigID selects one of the four evaluated configurations (§7).
type ConfigID int

const (
	// ConfigB: baseline requester-wins HTM.
	ConfigB ConfigID = iota
	// ConfigP: PowerTM.
	ConfigP
	// ConfigC: CLEAR over requester-wins.
	ConfigC
	// ConfigW: CLEAR over PowerTM.
	ConfigW
	// ConfigM: the §2.2 non-speculative baseline — MAD/MCAS-style static
	// cacheline locking for ARs whose footprint is known a priori,
	// requester-wins speculation for the rest. Not part of the paper's
	// four-way comparison; used by the static-locking experiment.
	ConfigM
	NumConfigs
)

// AllConfigs lists the four configurations in presentation order (B P C W).
var AllConfigs = []ConfigID{ConfigB, ConfigP, ConfigC, ConfigW}

func (c ConfigID) String() string {
	switch c {
	case ConfigB:
		return "B"
	case ConfigP:
		return "P"
	case ConfigC:
		return "C"
	case ConfigW:
		return "W"
	case ConfigM:
		return "M"
	}
	return "?"
}

// Description returns the long name used in figure legends.
func (c ConfigID) Description() string {
	switch c {
	case ConfigB:
		return "requester-wins"
	case ConfigP:
		return "PowerTM"
	case ConfigC:
		return "CLEAR/requester-wins"
	case ConfigW:
		return "CLEAR/PowerTM"
	case ConfigM:
		return "static cacheline locking (MAD/MCAS-like)"
	}
	return "unknown"
}

// Apply sets the configuration's CLEAR, PowerTM and StaticLocking toggles
// on cfg. It is the one mapping from a configuration letter to machine
// switches; the harness, the litmus runner and the fuzz harness all build
// their machines through it.
func (c ConfigID) Apply(cfg *cpu.SystemConfig) {
	cfg.CLEAR = c == ConfigC || c == ConfigW
	cfg.PowerTM = c == ConfigP || c == ConfigW
	cfg.StaticLocking = c == ConfigM
}

// RunParams fully determines one simulation run.
type RunParams struct {
	Benchmark    string
	Config       ConfigID
	Cores        int
	OpsPerThread int
	RetryLimit   int
	Seed         uint64
	// MaxTicks bounds the run; exceeding it is reported as an error
	// (livelock guard).
	MaxTicks sim.Tick
	// SLE selects in-core speculation instead of HTM (§4.1 vs §4.2).
	SLE bool
	// Oracle attaches the internal/check runtime invariant oracle to the
	// run and makes it the run's guard: any violation, including a livelock
	// (no commit within check.LivelockWindow ticks), stops the run and is
	// returned as an error. Off by default (the oracle is digest-transparent
	// but costs host time).
	Oracle bool
	// Mesh swaps the crossbar for a 2D mesh interconnect.
	Mesh bool
	// Ablations.
	DisableDiscoveryContinuation bool
	SCLLockAllReads              bool
	// Table sizing overrides (zero = paper values).
	ERTEntries, ALTEntries, CRTEntries, CRTWays int
	// TraceWriter, when non-nil, attaches the internal/trace binary event
	// tracer and streams the run's event records into it. The tracer is
	// digest-transparent: statistics are bit-identical with or without it.
	TraceWriter io.Writer
	// TraceMem / TraceDir enable the verbose per-memory-operation and
	// per-directory-transaction event streams (off by default; AR, lock,
	// and conflict events are always recorded when TraceWriter is set).
	TraceMem bool
	TraceDir bool
	// Metrics, when non-nil, attaches the internal/metrics instrument set
	// (counters, gauges, log2 histograms) to the run through the same tee
	// seams. The registry may be shared across concurrent runs; series
	// aggregate. Digest-transparent, like the tracer.
	Metrics *metrics.Registry
	// Deadline bounds the *host* wall time of the run; zero means no
	// deadline. Exceeding it stops the event loop with an error — the sweep
	// hardening that keeps one pathological cell from hanging a matrix.
	Deadline time.Duration
	// FaultPlan, when non-nil, attaches the internal/fault injector driven
	// by the plan. A nil plan keeps every seam detached (zero cost); an
	// empty plan attaches but fires nothing and leaves digests byte-
	// identical.
	FaultPlan *fault.Plan
	// Policy selects the retry policy (internal/policy) that owns the §4.3
	// next-mode decision. The zero value is the paper-exact default, which
	// reproduces the pre-policy simulator bit-identically — so it is elided
	// from cache keys and digests alike.
	Policy policy.Spec
}

// DefaultRunParams returns laptop-scale defaults: the paper's 32 cores with
// a workload sized to finish in well under a second of host time.
func DefaultRunParams(benchmark string, config ConfigID) RunParams {
	return RunParams{
		Benchmark:    benchmark,
		Config:       config,
		Cores:        32,
		OpsPerThread: 120,
		RetryLimit:   4,
		Seed:         1,
		MaxTicks:     400_000_000,
	}
}

// SystemConfig translates run parameters into the machine configuration.
func (p RunParams) SystemConfig() cpu.SystemConfig {
	cfg := cpu.DefaultSystemConfig()
	cfg.Cores = p.Cores
	cfg.RetryLimit = p.RetryLimit
	p.Config.Apply(&cfg)
	cfg.Seed = p.Seed
	cfg.SLE = p.SLE
	cfg.Mesh = p.Mesh
	cfg.DisableDiscoveryContinuation = p.DisableDiscoveryContinuation
	cfg.SCLLockAllReads = p.SCLLockAllReads
	cfg.ERTEntries = p.ERTEntries
	cfg.ALTEntries = p.ALTEntries
	cfg.CRTEntries = p.CRTEntries
	cfg.CRTWays = p.CRTWays
	cfg.Policy = p.Policy
	return cfg
}

// RunResult carries everything one simulation produced.
type RunResult struct {
	Params RunParams
	Stats  *stats.Run
	Dir    coherence.Stats
	Energy float64
	// Faults reports what the injector fired (nil without a FaultPlan).
	Faults *fault.Stats
	// Oracle is the oracle's worst-case report (nil without
	// RunParams.Oracle).
	Oracle *check.Report
}

// Run executes one simulation end to end: setup, execution, verification.
// A verification failure is returned as an error — atomicity was broken.
func Run(p RunParams) (*RunResult, error) {
	bench, memory, rng, err := setupWorkload(p)
	if err != nil {
		return nil, err
	}
	machine, err := cpu.NewMachine(p.SystemConfig(), memory)
	if err != nil {
		return nil, err
	}
	feeds := make([]cpu.InvocationSource, p.Cores)
	for tid := 0; tid < p.Cores; tid++ {
		feeds[tid] = bench.Source(tid, rng.Split(), p.OpsPerThread)
	}
	machine.AttachFeeds(feeds)
	// Observers attach through the AddProbe/AddObserver tees and are called
	// in attachment order: oracle, tracer, metrics.
	var oracle *check.Oracle
	if p.Oracle {
		oracle = check.Attach(machine)
	}
	var tracer *trace.Tracer
	if p.TraceWriter != nil {
		tracer, err = trace.Attach(machine, p.TraceWriter, trace.Options{
			Benchmark:   p.Benchmark,
			Config:      p.Config.String(),
			Cores:       p.Cores,
			Seed:        p.Seed,
			ARNames:     arNames(bench),
			MemAccesses: p.TraceMem,
			DirAccesses: p.TraceDir,
		})
		if err != nil {
			return nil, fmt.Errorf("harness: attach tracer: %w", err)
		}
	}
	if p.Metrics != nil {
		metrics.Attach(machine, p.Metrics)
		ins := p.Metrics.Instruments()
		ins.RunsStarted.Inc()
		ins.ActiveRuns.Add(1)
		defer func() {
			ins.RunsFinished.Inc()
			ins.ActiveRuns.Add(-1)
		}()
	}
	// The injector attaches last: hooks above observe the (perturbed) run,
	// and the injector's recorder feeds fault events into the tracer.
	inj := fault.Attach(machine, p.FaultPlan)
	if inj != nil && tracer != nil {
		inj.SetRecorder(tracer)
	}

	var guard func() error
	if oracle != nil {
		guard = oracle.Check
	}
	if p.Deadline > 0 {
		inner := guard
		start := time.Now()
		guard = func() error {
			if time.Since(start) > p.Deadline {
				return fmt.Errorf("wall deadline %s exceeded at tick %d", p.Deadline, machine.Engine.Now())
			}
			if inner != nil {
				return inner()
			}
			return nil
		}
	}
	if err := machine.RunGuarded(p.MaxTicks, check.CheckEvery, guard); err != nil {
		return nil, fmt.Errorf("harness: %s/%s seed %d: %w", p.Benchmark, p.Config, p.Seed, err)
	}
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			return nil, fmt.Errorf("harness: trace write: %w", err)
		}
	}
	if oracle != nil {
		oracle.Finish()
		if err := oracle.Err(); err != nil {
			return nil, fmt.Errorf("harness: %s/%s seed %d: %w", p.Benchmark, p.Config, p.Seed, err)
		}
	}
	if err := bench.Verify(memory); err != nil {
		return nil, fmt.Errorf("harness: %s/%s seed %d: verification failed: %w",
			p.Benchmark, p.Config, p.Seed, err)
	}
	res := &RunResult{
		Params: p,
		Stats:  machine.Stats,
		Dir:    machine.Dir.Stats,
	}
	if inj != nil {
		fs := inj.Stats()
		res.Faults = &fs
	}
	if oracle != nil {
		rep := oracle.Report()
		res.Oracle = &rep
	}
	res.Energy = stats.DefaultEnergyModel().Energy(machine.Stats, machine.Dir.Stats, p.Cores)
	return res, nil
}

// memorySize is the simulated physical memory every run is built over.
const memorySize = 0x100000

// setupWorkload builds the benchmark, the pre-run memory image, and the
// workload RNG, positioned exactly where Run consumes it (setup done, feed
// splits not yet taken). Both Run and SetupImage go through it, so the two
// can never drift.
func setupWorkload(p RunParams) (workload.Benchmark, *mem.Memory, *sim.RNG, error) {
	bench, err := workload.New(p.Benchmark)
	if err != nil {
		return nil, nil, nil, err
	}
	memory := mem.NewMemory(memorySize)
	rng := sim.NewRNG(p.Seed)
	if err := bench.Setup(memory, rng, p.Cores); err != nil {
		return nil, nil, nil, fmt.Errorf("harness: setup %s: %w", p.Benchmark, err)
	}
	return bench, memory, rng, nil
}

// SetupImage replays the deterministic pre-run phase of p — workload setup
// plus invocation-source generation, which benchmarks use to pre-allocate
// nodes host-side — on a fresh memory and returns a reader over the image
// the simulation starts from. Offline checkers (the clearchaos -axiom
// per-run axiomatic check) use it to resolve loads of never-overwritten
// locations without re-running the simulation.
func SetupImage(p RunParams) (func(mem.Addr) uint64, error) {
	bench, memory, rng, err := setupWorkload(p)
	if err != nil {
		return nil, err
	}
	// Same call sequence as Run: machine construction allocates from memory
	// (the fallback-lock line), Source may write memory (node pools), and
	// the RNG split order pins what it writes where.
	if _, err := cpu.NewMachine(p.SystemConfig(), memory); err != nil {
		return nil, err
	}
	for tid := 0; tid < p.Cores; tid++ {
		bench.Source(tid, rng.Split(), p.OpsPerThread)
	}
	return memory.ReadWord, nil
}

// arNames collects the AR id -> name map of a benchmark for trace headers.
func arNames(bench workload.Benchmark) map[int]string {
	names := make(map[int]string)
	for _, prog := range bench.ARs() {
		names[prog.ID] = prog.Name
	}
	return names
}
