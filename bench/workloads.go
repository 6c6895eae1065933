package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"sync"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/runstore"
	"repro/internal/stats"
	"repro/internal/workload"
)

// parallelism is the sweep worker count: the benchmark host has two cores,
// and load comes from this one process.
const parallelism = 2

// workloadDef is one fixed run list that the benchmark repeats in passes.
// A per-run workload (cells set) is a closed loop with one client: each
// pass calls harness.Run once per cell, one after another. A sweep
// workload (matrix set) runs one harness.RunMatrix per pass.
type workloadDef struct {
	name string
	// cells are "benchmark/config[+policy]" labels run at cores x ops.
	cells      []string
	cores, ops int
	// matrix returns the sweep options for a seed.
	matrix func(seed uint64) harness.MatrixOptions
	// warm sweeps prefill a run store during setup; every pass opens it
	// afresh, as a new clearbench -cache-dir process would, so the pass
	// reads every result and simulates nothing.
	warm bool
}

// The sizes keep one pass under ~0.2 s on the 2-core benchmark host, so a
// 20 s run holds at least 100 passes and its p90 has ten samples beyond it.
var workloads = []workloadDef{
	// Long, large-footprint ARs: most footprints overflow into fallback,
	// so engine, interpreter, L1 and line-set costs dominate and setup is
	// about 1% of a run.
	{name: "stamp-long", cells: []string{"labyrinth/B", "yada/C", "bayes/W"}, cores: 32, ops: 32},
	// Short ARs that CLEAR converts to S-CL/NS-CL: directory line
	// locking, the ERT/ALT/CRT tables and retry-policy decisions.
	{name: "ds-clear", cells: []string{
		"intruder/C", "mwobject/W", "hashmap/C", "bitcoin/C", "arrayswap/C",
		"sorted-list/W", "mwobject/W+ewma", "hashmap/C+retry:n=2",
	}, cores: 32, ops: 60},
	// The clearbench -quick matrix without a store: tiny runs where
	// workload setup and allocation weigh most.
	{name: "sweep-cold", matrix: func(seed uint64) harness.MatrixOptions {
		o := harness.QuickMatrixOptions()
		o.Seeds = []uint64{seed}
		o.Parallelism = parallelism
		return o
	}},
	// The full matrix shape at quick scale, served from a warm store: the
	// runstore read path and record decoding do all the work.
	{name: "sweep-warm", warm: true, matrix: func(seed uint64) harness.MatrixOptions {
		o := harness.DefaultMatrixOptions()
		o.Cores = 8
		o.OpsPerThread = 30
		o.Seeds = []uint64{seed, seed + 1, seed + 2}
		o.RetryLimits = []int{1, 2, 4, 8}
		o.Parallelism = parallelism
		return o
	}},
}

func findWorkload(name string) (*workloadDef, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// reference is what one pass of an instance must reproduce, taken from its
// first setup pass: simulation is deterministic, so every later pass of the
// same seed yields the same digests and the same CSV.
type reference struct {
	// digests maps a per-run cell label to its Stats.Digest().
	digests map[string]string
	// csvSHA is the SHA-256 of a sweep's Matrix.WriteCSV output.
	csvSHA string
	// Simulated totals over the results one pass returns.
	instr, aborts, commits float64
	// cycles holds simulated cycles per cell (per-run) or per matrix cell
	// (sweeps).
	cycles []float64
	// runs is the number of runs one pass executes or looks up.
	runs int
}

// instance is a workload bound to a seed and a scratch directory.
type instance struct {
	def      *workloadDef
	seed     uint64
	labels   []string
	params   []harness.RunParams
	opts     harness.MatrixOptions
	storeDir string
	ref      reference
}

func newInstance(def *workloadDef, seed uint64, scratch string) (*instance, error) {
	in := &instance{def: def, seed: seed}
	if def.matrix != nil {
		in.opts = def.matrix(seed)
		if def.warm {
			in.storeDir = scratch + "/store"
		}
		return in, nil
	}
	for _, label := range def.cells {
		p, err := cellParams(label, def.cores, def.ops, seed)
		if err != nil {
			return nil, err
		}
		in.labels = append(in.labels, label)
		in.params = append(in.params, p)
	}
	return in, nil
}

// cellParams builds the RunParams of a "benchmark/config[+policy]" cell.
func cellParams(label string, cores, ops int, seed uint64) (harness.RunParams, error) {
	bench, cfg, ok := strings.Cut(label, "/")
	if !ok {
		return harness.RunParams{}, fmt.Errorf("cell %q: want benchmark/config", label)
	}
	if _, err := workload.New(bench); err != nil {
		return harness.RunParams{}, fmt.Errorf("cell %q: %w", label, err)
	}
	cp, err := harness.ParseConfigPolicy(cfg)
	if err != nil {
		return harness.RunParams{}, fmt.Errorf("cell %q: %w", label, err)
	}
	p := harness.DefaultRunParams(bench, cp.Config)
	p.Policy = cp.Policy
	p.Cores, p.OpsPerThread, p.Seed = cores, ops, seed
	return p, nil
}

// setup prepares the instance once: a warm-up pass for per-run workloads
// and cold sweeps, a store prefill for warm sweeps. It returns the
// reference outcome that pass produced.
func (in *instance) setup() (reference, error) {
	if in.def.matrix == nil {
		ref := reference{digests: make(map[string]string), runs: len(in.params)}
		for i, p := range in.params {
			res, fail := harness.RunChecked(p)
			if fail != nil {
				return ref, fmt.Errorf("%s: %s", in.labels[i], fail.Reason)
			}
			ref.digests[in.labels[i]] = res.Stats.Digest()
			ref.add(res.Stats)
			ref.cycles = append(ref.cycles, float64(res.Stats.Cycles))
		}
		return ref, nil
	}
	var store runstore.Backend
	if in.def.warm {
		if err := os.RemoveAll(in.storeDir); err != nil {
			return reference{}, err
		}
		st, err := runstore.Open(in.storeDir)
		if err != nil {
			return reference{}, err
		}
		store = st
	}
	var mu sync.Mutex
	var ref reference
	opts := in.opts
	opts.Runner = func(p harness.RunParams) (*harness.RunResult, *harness.RunFailure, bool) {
		res, fail, hit := harness.RunCheckedCached(store, p)
		if fail == nil {
			mu.Lock()
			ref.add(res.Stats)
			ref.runs++
			mu.Unlock()
		}
		return res, fail, hit
	}
	m, err := harness.RunMatrix(opts)
	if err != nil {
		return ref, err
	}
	if len(m.Failures) > 0 {
		return ref, fmt.Errorf("%d runs failed, first: %s", len(m.Failures), m.Failures[0].String())
	}
	if ref.csvSHA, err = csvSHA(m); err != nil {
		return ref, err
	}
	for _, b := range m.Opts.Benchmarks {
		for _, c := range m.Opts.Configs {
			if cell := m.Cell(b, c); cell != nil {
				ref.cycles = append(ref.cycles, cell.Cycles)
			}
		}
	}
	return ref, nil
}

func (r *reference) add(s *stats.Run) {
	r.instr += float64(s.Instructions + s.AbortedInstructions)
	r.aborts += float64(s.Aborts)
	r.commits += float64(s.Commits)
}

func csvSHA(m *harness.Matrix) (string, error) {
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		return "", fmt.Errorf("write CSV: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// passResult counts one pass's runs and the ones that failed; problems
// describes the failures.
type passResult struct {
	runs, failed int
	problems     []string
}

func (r *passResult) fail(n int, format string, args ...any) {
	r.failed += n
	r.note(fmt.Sprintf(format, args...))
}

// note keeps the first few problem descriptions.
func (r *passResult) note(problem string) {
	if len(r.problems) < 5 {
		r.problems = append(r.problems, problem)
	}
}

func (r *passResult) merge(o passResult) {
	r.runs += o.runs
	r.failed += o.failed
	for _, p := range o.problems {
		r.note(p)
	}
}

// runner executes one run of a traced pass in place of the default path.
// store is the opened run store of a warm sweep pass (nil otherwise) and
// parent the span the run belongs to.
type runner func(p harness.RunParams, store runstore.Backend, parent int) (*harness.RunResult, *harness.RunFailure, bool)

// pass runs the instance's fixed run list once, the way a user runs it:
// harness.Run per cell, or one harness.RunMatrix, over a freshly opened
// store for a warm sweep. It checks the outcome against the reference.
func (in *instance) pass() passResult { return in.passWith(nil, nil, nil) }

// passWith is pass with every run going through run when it is non-nil:
// called in turn for per-run workloads, and as the MatrixOptions.Runner of
// a sweep. A non-nil reg is attached to every run. A non-nil log gets a
// harness.matrix span per sweep pass and a runstore.open span per warm
// pass.
func (in *instance) passWith(run runner, log *spanLog, reg *metrics.Registry) passResult {
	var r passResult
	if in.def.matrix == nil {
		for i, p := range in.params {
			r.runs++
			p.Metrics = reg
			var res *harness.RunResult
			var fail *harness.RunFailure
			if run == nil {
				res, fail = harness.RunChecked(p)
			} else {
				res, fail, _ = run(p, nil, 0)
			}
			switch {
			case fail != nil:
				r.fail(1, "%s: %s", in.labels[i], fail.Reason)
			case res.Stats.Digest() != in.ref.digests[in.labels[i]]:
				r.fail(1, "%s: digest differs from the first setup's", in.labels[i])
			}
		}
		return r
	}
	r.runs = in.ref.runs
	root := log.begin("harness.matrix", 0)
	defer log.end(root)
	opts := in.opts
	opts.Metrics = reg
	if in.def.warm {
		id := log.begin("runstore.open", root)
		st, err := runstore.Open(in.storeDir)
		log.end(id)
		if err != nil {
			r.fail(r.runs, "open store: %v", err)
			return r
		}
		opts.Store = st
	}
	if run != nil {
		// The runner owns execution, caching included.
		store := opts.Store
		opts.Store = nil
		opts.Runner = func(p harness.RunParams) (*harness.RunResult, *harness.RunFailure, bool) {
			return run(p, store, root)
		}
	}
	m, err := harness.RunMatrix(opts)
	if err != nil {
		r.fail(r.runs, "matrix: %v", err)
		return r
	}
	if n := len(m.Failures); n > 0 {
		r.fail(n, "%s", m.Failures[0].String())
	}
	// A warm pass must serve every run from the store.
	if in.def.warm && m.CacheMisses > 0 {
		r.fail(m.CacheMisses, "%d store misses in a warm pass", m.CacheMisses)
	}
	if sum, err := csvSHA(m); err != nil || sum != in.ref.csvSHA {
		r.fail(1, "CSV differs from the first setup's (%v)", err)
	}
	return r
}
