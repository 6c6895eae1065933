package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/fault"
	"repro/internal/policy"
)

// FrontierOptions configures a policy-frontier sweep: every retry policy
// over the full benchmark × configuration matrix, optionally repeated under
// a fault-injection preset — the experiment that locates where the paper's
// single-retry policy wins or loses against more permissive or adaptive
// retry strategies.
type FrontierOptions struct {
	// Policies are the retry policies to compare; at least one. The zero
	// Spec is the paper-exact default.
	Policies []policy.Spec
	// Base is the matrix template shared by every half: benchmarks,
	// configs, cores, seeds, retry limits, parallelism, store, metrics.
	// Base.Policy and Base.FaultPlan are overwritten per (policy, half).
	Base MatrixOptions
	// FaultPreset names the internal/fault preset for the under-faults half
	// of the comparison ("" = clean only).
	FaultPreset string
}

// DefaultFrontierPolicies is the built-in comparison set: the paper-exact
// single-retry policy, a permissive fixed-budget retrier, and the adaptive
// per-AR speculator.
func DefaultFrontierPolicies() []policy.Spec {
	out := make([]policy.Spec, 0, len(policy.Names()))
	for _, name := range policy.Names() {
		spec, err := policy.Parse(name)
		if err != nil {
			// Names() and Parse agree by construction; a divergence is a
			// programming error.
			panic(err)
		}
		out = append(out, spec)
	}
	return out
}

// FrontierCell is one aggregated point of the frontier: a (policy, half,
// benchmark, config) cell with its best-retry-limit aggregate.
type FrontierCell struct {
	Policy    string // canonical policy rendering
	Faults    bool   // true for the under-faults half
	Benchmark string
	Config    ConfigID
	Agg       *Aggregate
}

// Frontier holds the full sweep result.
type Frontier struct {
	Opts  FrontierOptions
	Cells []FrontierCell
	// Failures pools the per-matrix run failures of every half.
	Failures []RunFailure
	// CacheHits/CacheMisses pool the run-cache consults of every half.
	CacheHits   int
	CacheMisses int
}

// RunFrontier executes the policy-frontier sweep: one RunMatrix per
// (policy, clean/fault) half, so each half shares the matrix machinery's
// retry-limit selection, failure isolation, and run-cache keys. Cells are
// returned in deterministic order (half, policy, benchmark, config).
func RunFrontier(opts FrontierOptions) (*Frontier, error) {
	if len(opts.Policies) == 0 {
		return nil, fmt.Errorf("harness: frontier needs at least one policy")
	}
	var plan *fault.Plan
	if opts.FaultPreset != "" {
		var err error
		plan, err = fault.PresetPlan(opts.FaultPreset)
		if err != nil {
			return nil, fmt.Errorf("harness: frontier: %w", err)
		}
	}
	halves := []*fault.Plan{nil}
	if plan != nil {
		halves = append(halves, plan)
	}

	f := &Frontier{Opts: opts}
	for _, fp := range halves {
		for _, pol := range opts.Policies {
			mo := opts.Base
			mo.Policy = pol
			mo.FaultPlan = fp
			m, err := RunMatrix(mo)
			if err != nil {
				return nil, fmt.Errorf("harness: frontier policy %s: %w", pol.Canonical(), err)
			}
			f.Failures = append(f.Failures, m.Failures...)
			f.CacheHits += m.CacheHits
			f.CacheMisses += m.CacheMisses
			for _, bench := range mo.Benchmarks {
				for _, cfg := range mo.Configs {
					agg := m.Cell(bench, cfg)
					if agg == nil {
						continue
					}
					f.Cells = append(f.Cells, FrontierCell{
						Policy:    pol.Canonical(),
						Faults:    fp != nil,
						Benchmark: bench,
						Config:    cfg,
						Agg:       agg,
					})
				}
			}
		}
	}
	sort.Slice(f.Cells, func(i, j int) bool {
		a, b := f.Cells[i], f.Cells[j]
		if a.Faults != b.Faults {
			return !a.Faults
		}
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		if a.Benchmark != b.Benchmark {
			return a.Benchmark < b.Benchmark
		}
		return a.Config < b.Config
	})
	return f, nil
}

// WriteCSV renders the frontier cells, one row per (policy, half,
// benchmark, config), in the deterministic cell order.
func (f *Frontier) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"policy", "faults", "benchmark", "config", "best_retry_limit",
		"seeds", "cycles", "energy", "aborts_per_commit", "fallback_share",
		"first_retry_share",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	ff := func(v float64) string { return fmt.Sprintf("%.6g", v) }
	for _, c := range f.Cells {
		row := []string{
			c.Policy,
			strconv.FormatBool(c.Faults),
			c.Benchmark,
			c.Config.String(),
			strconv.Itoa(c.Agg.BestRetryLimit),
			strconv.Itoa(c.Agg.Seeds),
			ff(c.Agg.Cycles),
			ff(c.Agg.Energy),
			ff(c.Agg.AbortsPerCommit),
			ff(c.Agg.FallbackShare),
			ff(c.Agg.FirstRetryShare),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// frontierGroup keys the per-(half, benchmark, config) comparison the
// summary reasons over.
type frontierGroup struct {
	faults bool
	bench  string
	cfg    ConfigID
}

// Summary writes the human-readable frontier verdict: per (benchmark,
// config, half) the cycle-best policy, and the headline count of cells
// where the paper's single-retry default wins outright.
func (f *Frontier) Summary(w io.Writer) error {
	groups := make(map[frontierGroup][]FrontierCell)
	var order []frontierGroup
	for _, c := range f.Cells {
		g := frontierGroup{c.Faults, c.Benchmark, c.Config}
		if _, ok := groups[g]; !ok {
			order = append(order, g)
		}
		groups[g] = append(groups[g], c)
	}
	defaultPol := policy.Spec{}.Canonical()
	wins := map[bool]int{}
	totals := map[bool]int{}
	for _, g := range order {
		cells := groups[g]
		best := cells[0]
		var defCell *FrontierCell
		for i, c := range cells {
			if c.Agg.Cycles < best.Agg.Cycles {
				best = c
			}
			if c.Policy == defaultPol {
				defCell = &cells[i]
			}
		}
		half := "clean"
		if g.faults {
			half = "faults"
		}
		totals[g.faults]++
		rel := ""
		if defCell != nil && defCell.Agg.Cycles > 0 {
			rel = fmt.Sprintf(" (%.3fx of %s)", best.Agg.Cycles/defCell.Agg.Cycles, defaultPol)
		}
		if best.Policy == defaultPol {
			wins[g.faults]++
		}
		fmt.Fprintf(w, "%-6s %s/%s: best=%s cycles=%.0f%s\n",
			half, g.bench, g.cfg, best.Policy, best.Agg.Cycles, rel)
	}
	fmt.Fprintf(w, "\n%s wins %d/%d clean cells", defaultPol, wins[false], totals[false])
	if totals[true] > 0 {
		fmt.Fprintf(w, ", %d/%d cells under faults", wins[true], totals[true])
	}
	fmt.Fprintln(w)
	if len(f.Failures) > 0 {
		fmt.Fprintf(w, "%d run failures (see failure listing)\n", len(f.Failures))
	}
	return nil
}
