// Command clearchaos runs randomized fault-injection campaigns against the
// simulator: every run perturbs one (benchmark, configuration) pair with a
// seed-deterministic fault plan — NACK storms, directory stalls, power-token
// denial windows, spurious aborts, lock-holder preemption — while the
// invariant oracle verifies that faults only ever delay or refuse, never
// corrupt, that every run keeps committing, and that CLEAR's single-retry
// bound holds under every perturbation. A failing run shrinks its plan to the
// minimal set of fault kinds (and the gentlest rates) that still reproduce
// the failure, then prints the exact flags that replay it.
//
// Usage:
//
//	clearchaos -runs 200 -seed 1             # campaign, "default" plan
//	clearchaos -plan storm -configs CW       # NACK storms on CLEAR configs
//	clearchaos -faults nack,dir-stall        # restrict the plan to two kinds
//	clearchaos -plan planted -expect-catch   # prove the oracle catches a
//	                                         # planted second-spec-retry fault
//	clearchaos -list-plans                   # show the named presets
//	clearchaos -cache-dir .clearcache        # replay: clean cached runs are
//	                                         # skipped, only new cells execute
//	clearchaos -axiom                        # also check every run's committed
//	                                         # execution against the axiomatic
//	                                         # memory model
//
// Exit status is 0 iff every run survived with zero oracle violations (with
// -expect-catch: iff a planted fault was caught and shrunk); 2 = usage
// error.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/litmus"
	"repro/internal/policy"
	"repro/internal/runstore"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// campaignBenches is the default benchmark rotation: small, contended
// structures that exercise speculation, conversion, and the fallback path.
var campaignBenches = []string{"hashmap", "bst", "queue", "intruder"}

func main() {
	cliutil.SetTool("clearchaos")
	var (
		runs      = flag.Int("runs", 64, "number of campaign runs")
		seed      = flag.Uint64("seed", 1, "base seed (run i uses seed+i for both workload and faults)")
		planName  = flag.String("plan", "default", "fault-plan preset (see -list-plans)")
		faults    = flag.String("faults", "", "comma-separated fault kinds to keep from the plan (empty = all)")
		configs   = flag.String("configs", "BPCW", "configurations to rotate through (subset of BPCW)")
		bench     = flag.String("bench", "", "single benchmark to run (empty = rotate "+strings.Join(campaignBenches, ",")+")")
		cores     = flag.Int("cores", 8, "simulated cores per run")
		ops       = flag.Int("ops", 24, "operations per thread per run")
		retry     = flag.Int("retry", 4, "retry limit")
		deadline  = flag.Duration("deadline", 30*time.Second, "host wall-time deadline per run (0 = none)")
		doShrink  = flag.Bool("shrink", true, "shrink a failing run's fault plan to a minimal reproducer")
		axiom     = flag.Bool("axiom", false, "record each run's memory-access trace and check it against the axiomatic memory model (slower, uncacheable)")
		expect    = flag.Bool("expect-catch", false, "invert: exit 0 iff at least one run fails and is caught (planted-fault proof)")
		verbose   = flag.Bool("v", false, "print every run result, not just failures")
		listPlans = flag.Bool("list-plans", false, "list the named fault-plan presets and exit")
	)
	sweepFlags := cliutil.AddSweepFlags(flag.CommandLine)
	policyFlag := cliutil.AddPolicyFlags(flag.CommandLine)
	flag.Parse()

	if *listPlans {
		for _, name := range fault.Presets() {
			p, _ := fault.PresetPlan(name)
			fmt.Printf("%-10s %s\n", name, p)
		}
		return
	}

	base, err := fault.PresetPlan(*planName)
	if err != nil {
		cliutil.Usage(err)
	}
	if *faults != "" {
		keep := make(map[fault.Kind]bool)
		for _, name := range strings.Split(*faults, ",") {
			k, ok := fault.KindFromString(strings.TrimSpace(name))
			if !ok {
				cliutil.Usagef("unknown fault kind %q", name)
			}
			keep[k] = true
		}
		base = base.Restrict(keep)
	}
	if err := base.Validate(); err != nil {
		cliutil.Usage(err)
	}
	cfgs, err := harness.ParseConfigs(*configs)
	if err != nil {
		cliutil.Usage(err)
	}
	for _, c := range cfgs {
		if c == harness.ConfigM {
			cliutil.Usagef("config M is not part of chaos campaigns (want subset of BPCW)")
		}
	}
	benches := campaignBenches
	if *bench != "" {
		benches = []string{*bench}
	}
	pol, err := policyFlag.Spec()
	if err != nil {
		cliutil.Usage(err)
	}
	store, err := sweepFlags.Store()
	if err != nil {
		cliutil.Usage(err)
	}
	// Guarded assignment: a typed-nil *Store inside the Backend interface
	// would read as attached.
	var backend runstore.Backend
	if store != nil {
		backend = store
	}

	os.Exit(campaign(campaignOpts{
		runs:     *runs,
		seed:     *seed,
		plan:     base,
		planName: *planName,
		cfgs:     cfgs,
		benches:  benches,
		cores:    *cores,
		ops:      *ops,
		retry:    *retry,
		policy:   pol,
		deadline: *deadline,
		shrink:   *doShrink,
		axiom:    *axiom,
		expect:   *expect,
		verbose:  *verbose,
		store:    backend,
	}))
}

type campaignOpts struct {
	runs     int
	seed     uint64
	plan     *fault.Plan
	planName string
	cfgs     []harness.ConfigID
	benches  []string
	cores    int
	ops      int
	retry    int
	policy   policy.Spec
	deadline time.Duration
	shrink   bool
	// axiom records every run's memory-access trace in memory and checks
	// the committed execution against the axiomatic memory model
	// (internal/litmus), turning the whole chaos campaign into a
	// memory-model conformance sweep. Tracing makes runs uncacheable, so
	// every cell simulates even with -cache-dir.
	axiom   bool
	expect  bool
	verbose bool
	// store, when non-nil, is the content-addressed run cache: a campaign
	// replay skips the simulation of every run whose (plan, seed, machine)
	// tuple already has a clean cached record — only failures (never
	// cached) and new cells execute.
	store runstore.Backend
}

// report accumulates campaign-wide degradation statistics.
type report struct {
	runs           int
	cached         int
	fired          [fault.NumKinds]uint64
	extraTicks     sim.Tick
	commits        uint64
	degradations   uint64
	maxRetries     int
	maxRetriesAt   string
	maxCommitLat   sim.Tick
	maxCommitLatAt string
}

func (r *report) absorb(res *harness.RunResult, at string) {
	r.runs++
	if res.Faults != nil {
		for k, n := range res.Faults.Fired {
			r.fired[k] += n
		}
		r.extraTicks += res.Faults.ExtraTicks
	}
	r.commits += res.Stats.Commits
	r.degradations += res.Stats.CommitsByMode[stats.CommitFallback]
	if res.Oracle.MaxConflictRetries > r.maxRetries {
		r.maxRetries = res.Oracle.MaxConflictRetries
		r.maxRetriesAt = at
	}
	if res.Oracle.MaxCommitLatency > r.maxCommitLat {
		r.maxCommitLat = res.Oracle.MaxCommitLatency
		r.maxCommitLatAt = at
	}
}

func (r *report) print() {
	fmt.Printf("\ncampaign report (%d surviving runs):\n", r.runs)
	fmt.Printf("  faults fired:")
	total := uint64(0)
	for k := fault.Kind(0); k < fault.NumKinds; k++ {
		if r.fired[k] > 0 {
			fmt.Printf(" %s=%d", k, r.fired[k])
			total += r.fired[k]
		}
	}
	if total == 0 {
		fmt.Printf(" none")
	}
	fmt.Printf(" (total %d, %d injected ticks)\n", total, r.extraTicks)
	fmt.Printf("  commits: %d, fallback degradations: %d\n", r.commits, r.degradations)
	fmt.Printf("  worst conflict-retry count: %d (%s)\n", r.maxRetries, orDash(r.maxRetriesAt))
	fmt.Printf("  worst commit latency: %d ticks (%s)\n", r.maxCommitLat, orDash(r.maxCommitLatAt))
	if r.cached > 0 {
		fmt.Printf("  runs served from the run cache: %d of %d\n", r.cached, r.runs)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func campaign(o campaignOpts) int {
	start := time.Now()
	rep := &report{}
	for i := 0; i < o.runs; i++ {
		benchName := o.benches[i%len(o.benches)]
		cfg := o.cfgs[(i/len(o.benches))%len(o.cfgs)]
		plan := o.plan.Clone()
		plan.Seed = o.seed + uint64(i)
		p := harness.RunParams{
			Benchmark:    benchName,
			Config:       cfg,
			Cores:        o.cores,
			OpsPerThread: o.ops,
			RetryLimit:   o.retry,
			Seed:         o.seed + uint64(i),
			MaxTicks:     400_000_000,
			Oracle:       true,
			FaultPlan:    plan,
			Policy:       o.policy,
			Deadline:     o.deadline,
		}
		var axiomBuf bytes.Buffer
		if o.axiom {
			// Record the full memory-access stream in memory; tracing makes
			// the run uncacheable, so the simulation always actually runs.
			p.TraceWriter = &axiomBuf
			p.TraceMem = true
		}
		res, fail, hit := harness.RunCheckedCached(o.store, p)
		if fail == nil && o.axiom {
			if err := axiomCheck(p, axiomBuf.Bytes()); err != nil {
				fmt.Printf("run %d %s/%s seed=%d FAILED axiomatic check: %v\n", i, benchName, cfg, p.Seed, err)
				if o.expect {
					fmt.Printf("clearchaos: planted fault caught after %d run(s) in %v\n", i+1, time.Since(start).Round(time.Millisecond))
					return 0
				}
				return 1
			}
		}
		if fail == nil {
			if hit {
				rep.cached++
			}
			if o.verbose {
				from := ""
				if hit {
					from = ", cached"
				}
				fmt.Printf("run %3d %s/%s seed=%d: ok (%d faults, %d commits, %d degradations%s)\n",
					i, benchName, cfg, p.Seed, res.Faults.Total(), res.Stats.Commits, res.Stats.CommitsByMode[stats.CommitFallback], from)
			}
			rep.absorb(res, fmt.Sprintf("%s/%s seed=%d", benchName, cfg, p.Seed))
			continue
		}

		fmt.Printf("run %d FAILED: %s\n", i, fail)
		if fail.Stack != "" {
			fmt.Printf("  stack:\n%s\n", indent(fail.Stack, "    "))
		}
		if o.shrink {
			failing := func(cand *fault.Plan) bool {
				p2 := p
				p2.FaultPlan = cand
				_, f2 := harness.RunChecked(p2)
				return f2 != nil
			}
			min := fault.ShrinkPlan(plan, failing)
			fmt.Printf("  minimal failing plan: {%s}\n", min)
			fmt.Printf("  replay: clearchaos -runs 1 -seed %d -bench %s -configs %s -cores %d -ops %d -plan %s",
				p.Seed, benchName, cfg, o.cores, o.ops, o.planName)
			if kinds := enabledKinds(min); kinds != "" {
				fmt.Printf(" -faults %s", kinds)
			}
			if !o.policy.IsDefault() {
				fmt.Printf(" -policy %s", o.policy.Canonical())
			}
			fmt.Println()
		}
		if o.expect {
			fmt.Printf("clearchaos: planted fault caught after %d run(s) in %v\n", i+1, time.Since(start).Round(time.Millisecond))
			return 0
		}
		return 1
	}
	rep.print()
	if o.expect {
		fmt.Printf("clearchaos: expected a caught fault but all %d runs survived — detectors are blind\n", o.runs)
		return 1
	}
	fmt.Printf("clearchaos: %d runs x plan {%s} in %v: all invariant-clean, single-retry bound held\n",
		o.runs, o.plan, time.Since(start).Round(time.Millisecond))
	return 0
}

// axiomCheck runs the axiomatic memory-model checker over one run's
// recorded event stream. The initial-memory image comes from replaying the
// workload's deterministic setup, so loads of never-overwritten locations
// resolve instead of being counted ambiguous.
func axiomCheck(p harness.RunParams, raw []byte) error {
	rd, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	events, err := rd.ReadAll()
	if err != nil {
		return err
	}
	initial, err := harness.SetupImage(p)
	if err != nil {
		return err
	}
	v := litmus.CheckEvents(events, litmus.CheckOpts{Initial: initial})
	if !v.OK() {
		return fmt.Errorf("%s", v)
	}
	return nil
}

// enabledKinds renders the plan's active fault kinds as a -faults argument;
// replaying the campaign preset restricted to the surviving kinds reproduces
// the kind set (the shrunk rates may be gentler, but the seed pins the run).
func enabledKinds(p *fault.Plan) string {
	var names []string
	for k := fault.Kind(0); k < fault.NumKinds; k++ {
		if p.Enabled(k) {
			names = append(names, k.String())
		}
	}
	return strings.Join(names, ",")
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n")
}
