package litmus

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// maxLitmusTicks bounds one litmus run; programs are a handful of straight-
// line instructions, so hitting this means a liveness bug.
const maxLitmusTicks sim.Tick = 10_000_000

// DefaultSeedCount is the seed sweep width the golden outcome sets and the
// CI conformance job pin (seeds 1..32).
const DefaultSeedCount = 32

// DefaultSeeds returns seeds 1..n.
func DefaultSeeds(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i + 1)
	}
	return out
}

// RunOpts parameterizes one litmus run.
type RunOpts struct {
	Config harness.ConfigID
	Seed   uint64
	// Plan, when non-nil, attaches the internal/fault injector (nil = clean
	// run). The run seed is mixed into a copy of Plan.Seed, so each sweep
	// point sees an independent but reproducible fault sequence. A plan with
	// LostInvalidationRate set plants the conflict-detection bug the checker
	// must catch.
	Plan *fault.Plan
	// Policy selects the retry policy (zero value = paper-exact default):
	// the memory-model axioms must hold under every policy, including ones
	// that serialize aggressively.
	Policy policy.Spec
	// TraceOut, when non-nil, receives a copy of the raw binary trace.
	TraceOut io.Writer
}

// RunResult is the outcome of one litmus run.
type RunResult struct {
	Test    *Test
	Config  harness.ConfigID
	Seed    uint64
	Outcome string
	// Forbidden reports that Outcome is outside the SC-allowed set.
	Forbidden bool
	// Verdict is the axiomatic checker's result over the recorded trace.
	Verdict Verdict
	// Err is a machine- or extraction-level failure.
	Err error
}

// Failed reports whether the run shows any problem.
func (r RunResult) Failed() bool {
	return r.Err != nil || r.Forbidden || !r.Verdict.OK()
}

func (r RunResult) String() string {
	head := fmt.Sprintf("%s/%s seed %d", r.Test.Name, r.Config, r.Seed)
	if !r.Failed() {
		return fmt.Sprintf("%s: ok (%s)", head, r.Outcome)
	}
	var parts []string
	if r.Err != nil {
		parts = append(parts, fmt.Sprintf("run error: %v", r.Err))
	}
	if r.Forbidden {
		parts = append(parts, fmt.Sprintf("FORBIDDEN outcome %q (allowed: %v)", r.Outcome, r.Test.Allowed()))
	}
	if !r.Verdict.OK() {
		parts = append(parts, r.Verdict.String())
	}
	out := head + ": FAILED"
	for _, p := range parts {
		out += "\n  " + p
	}
	return out
}

// seededPlan copies plan with the run seed mixed into its injector seed; a
// nil plan stays nil (no injector).
func seededPlan(plan *fault.Plan, seed uint64) *fault.Plan {
	if plan == nil {
		return nil
	}
	p := plan.Clone()
	p.Seed = p.Seed*0x9e3779b97f4a7c15 + seed
	return p
}

// thinkRNG derives the per-run interleaving jitter source. It depends on
// the test and seed but not the config, so all configs face the same
// scheduling pressure for a given seed.
func thinkRNG(t *Test, seed uint64) *sim.RNG {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for _, c := range []byte(t.Name) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return sim.NewRNG(h ^ (seed * 0x9e3779b97f4a7c15))
}

// Run executes one litmus test once: build the machine for the config,
// record a full memory-access trace in memory, extract the committed
// execution, check the axioms, and read the observation values out of the
// committed loads.
func Run(t *Test, opts RunOpts) RunResult {
	res := RunResult{Test: t, Config: opts.Config, Seed: opts.Seed}

	comp := t.compile()
	cfg := cpu.DefaultSystemConfig()
	cfg.Cores = len(t.Threads)
	opts.Config.Apply(&cfg)
	cfg.Seed = opts.Seed
	cfg.Policy = opts.Policy
	memory := mem.NewMemory(0x100000)
	machine, err := cpu.NewMachine(cfg, memory)
	if err != nil {
		res.Err = err
		return res
	}

	var buf bytes.Buffer
	var w io.Writer = &buf
	if opts.TraceOut != nil {
		w = io.MultiWriter(&buf, opts.TraceOut)
	}
	tr, err := trace.Attach(machine, w, trace.Options{
		Benchmark:   "litmus:" + t.Name,
		Config:      opts.Config.String(),
		Seed:        opts.Seed,
		ARNames:     comp.arNames,
		MemAccesses: true,
	})
	if err != nil {
		res.Err = err
		return res
	}
	if inj := fault.Attach(machine, seededPlan(opts.Plan, opts.Seed)); inj != nil {
		inj.SetRecorder(tr)
	}

	// Per-invocation think jitter spreads the threads' entry points so the
	// seed sweep explores genuinely different interleavings.
	rng := thinkRNG(t, opts.Seed)
	feeds := make([]cpu.InvocationSource, len(comp.invs))
	for ti, invs := range comp.invs {
		list := make([]cpu.Invocation, len(invs))
		for k, inv := range invs {
			inv.Think = sim.Tick(rng.Intn(400))
			list[k] = inv
		}
		feeds[ti] = &cpu.SliceSource{Invs: list}
	}
	machine.AttachFeeds(feeds)

	runErr := machine.Run(maxLitmusTicks)
	if err := tr.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		res.Err = runErr
		return res
	}

	rd, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		res.Err = err
		return res
	}
	events, err := rd.ReadAll()
	if err != nil {
		res.Err = err
		return res
	}

	ars := trace.CommittedARs(events)
	res.Verdict = checkStream(events, ars, CheckOpts{AddrName: t.AddrName})
	res.Outcome, res.Err = t.outcomeFromARs(ars, comp)
	if res.Err == nil {
		res.Forbidden = !t.AllowedSet()[res.Outcome]
	}
	return res
}

// outcomeFromARs binds the committed load values to the test's observation
// names: per core, the k-th committed load is the k-th load of that thread
// in program order (litmus programs are straight-line and every region
// commits exactly once).
func (t *Test) outcomeFromARs(ars []trace.CommittedAR, comp *compiled) (string, error) {
	loads := make([][]uint64, len(t.Threads))
	for _, ar := range ars {
		if ar.Core >= len(t.Threads) {
			return "", fmt.Errorf("litmus: commit on core %d beyond the test's %d threads", ar.Core, len(t.Threads))
		}
		for _, a := range ar.Accesses {
			if !a.IsWrite {
				loads[ar.Core] = append(loads[ar.Core], a.Value)
			}
		}
	}
	vals := map[string]uint64{}
	for ti := range t.Threads {
		if len(loads[ti]) != len(comp.loadObs[ti]) {
			return "", fmt.Errorf("litmus: thread %d committed %d loads, program has %d",
				ti, len(loads[ti]), len(comp.loadObs[ti]))
		}
		for k, obs := range comp.loadObs[ti] {
			vals[obs] = loads[ti][k]
		}
	}
	return t.FormatOutcome(vals), nil
}

// SweepOpts parameterizes an outcome-set sweep.
type SweepOpts struct {
	Tests   []*Test
	Configs []harness.ConfigID
	Seeds   []uint64
	// Plan is the fault plan applied to every run (nil = clean).
	Plan *fault.Plan
	// Policy is the retry policy applied to every run of the sweep.
	Policy policy.Spec
	// TraceSink, when non-nil, is called per run to obtain a trace copy
	// destination (nil return = no copy). The CLI maps it to -trace-out.
	TraceSink func(test string, cfg harness.ConfigID, seed uint64) io.WriteCloser
}

// CellResult aggregates one (test, config) cell of a sweep.
type CellResult struct {
	Test     *Test
	Config   harness.ConfigID
	Outcomes map[string]int // outcome -> observation count across seeds
	Failures []RunResult    // failing runs only
}

// Sweep runs the outcome-set collection: every test × config × seed, under
// one fault plan and one retry policy, diffing each observed outcome against
// the allowed set and checking the axioms on every run.
func Sweep(opts SweepOpts) []CellResult {
	var out []CellResult
	for _, t := range opts.Tests {
		for _, cfg := range opts.Configs {
			cell := CellResult{Test: t, Config: cfg, Outcomes: map[string]int{}}
			for _, seed := range opts.Seeds {
				ro := RunOpts{
					Config: cfg,
					Seed:   seed,
					Plan:   opts.Plan,
					Policy: opts.Policy,
				}
				var sink io.WriteCloser
				if opts.TraceSink != nil {
					sink = opts.TraceSink(t.Name, cfg, seed)
					if sink != nil {
						ro.TraceOut = sink
					}
				}
				r := Run(t, ro)
				if sink != nil {
					sink.Close()
				}
				if r.Outcome != "" {
					cell.Outcomes[r.Outcome]++
				}
				if r.Failed() {
					cell.Failures = append(cell.Failures, r)
				}
			}
			out = append(out, cell)
		}
	}
	return out
}

// ObservedOutcomes returns the cell's outcome set, sorted.
func (c CellResult) ObservedOutcomes() []string {
	out := make([]string, 0, len(c.Outcomes))
	for o := range c.Outcomes {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// Failed reports whether any run of the cell failed.
func (c CellResult) Failed() bool { return len(c.Failures) > 0 }
