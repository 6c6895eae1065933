package cliutil

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/harness"
	"repro/internal/policy"
	"repro/internal/runstore"
)

// RunFlags is the single-run flag group shared by every tool that executes
// one simulation: the (benchmark, config, cores, ops, retries, seed) tuple
// with uniform names, help strings, and config decoding.
type RunFlags struct {
	Bench   *string
	Config  *string
	Cores   *int
	Ops     *int
	Retries *int
	Seed    *uint64
}

// RunDefaults carries the per-tool default values of the RunFlags group.
type RunDefaults struct {
	Bench   string
	Config  string
	Cores   int
	Ops     int
	Retries int
	Seed    uint64
}

// AddRunFlags registers the single-run flag group on fs.
func AddRunFlags(fs *flag.FlagSet, d RunDefaults) *RunFlags {
	return &RunFlags{
		Bench:   fs.String("bench", d.Bench, "benchmark name"),
		Config:  fs.String("config", d.Config, "configuration: B, P, C, W or M"),
		Cores:   fs.Int("cores", d.Cores, "simulated cores (= threads)"),
		Ops:     fs.Int("ops", d.Ops, "AR invocations per thread"),
		Retries: fs.Int("retries", d.Retries, "conflict-retries before fallback"),
		Seed:    fs.Uint64("seed", d.Seed, "workload seed"),
	}
}

// Params resolves the parsed group into run parameters; a bad config token
// is a usage error. The -config value accepts the config+policy grammar
// ("C", "C+ewma:alpha=0.5"), so single-run tools get the policy axis even
// without a -policy flag.
func (r *RunFlags) Params() (harness.RunParams, error) {
	cp, err := harness.ParseConfigPolicy(*r.Config)
	if err != nil {
		return harness.RunParams{}, err
	}
	p := harness.DefaultRunParams(*r.Bench, cp.Config)
	p.Cores = *r.Cores
	p.OpsPerThread = *r.Ops
	p.RetryLimit = *r.Retries
	p.Seed = *r.Seed
	p.Policy = cp.Policy
	return p, nil
}

// PolicyFlags is the retry-policy flag group (-policy) shared by every tool
// with a policy axis; the flag value uses the internal/policy grammar.
type PolicyFlags struct {
	Policy *string
}

// AddPolicyFlags registers the retry-policy flag group on fs.
func AddPolicyFlags(fs *flag.FlagSet) *PolicyFlags {
	return &PolicyFlags{
		Policy: fs.String("policy", "", "retry policy: "+policy.Grammar+" (default: the paper-exact clear policy)"),
	}
}

// Spec resolves the parsed -policy value; a bad spec is a usage error.
func (p *PolicyFlags) Spec() (policy.Spec, error) {
	return policy.Parse(*p.Policy)
}

// Resolve merges the -policy flag with a policy carried by a config+policy
// token: setting both to different policies is ambiguous and a usage error,
// either alone (or neither) wins.
func (p *PolicyFlags) Resolve(fromConfig policy.Spec) (policy.Spec, error) {
	flagSpec, err := p.Spec()
	if err != nil {
		return policy.Spec{}, err
	}
	switch {
	case flagSpec.IsDefault():
		return fromConfig, nil
	case fromConfig.IsDefault() || fromConfig.Canonical() == flagSpec.Canonical():
		return flagSpec, nil
	}
	return policy.Spec{}, fmt.Errorf("-policy %s conflicts with config+policy suffix %s: pick one",
		flagSpec.Canonical(), fromConfig.Canonical())
}

// TraceFlags is the trace-recording flag group (-trace-out/-trace-mem/
// -trace-dir) shared by the tools that can stream a binary event trace.
type TraceFlags struct {
	Out *string
	Mem *bool
	Dir *bool
}

// AddTraceFlags registers the trace flag group on fs.
func AddTraceFlags(fs *flag.FlagSet) *TraceFlags {
	return &TraceFlags{
		Out: fs.String("trace-out", "", "record the run's binary event trace to this file (inspect with cleartrace)"),
		Mem: fs.Bool("trace-mem", false, "include per-memory-operation events in the trace"),
		Dir: fs.Bool("trace-dir", false, "include directory transaction events in the trace"),
	}
}

// Apply wires the tracer fields of p: when -trace-out is set it creates the
// file, attaches it as the trace writer, and returns a closer to run after
// the simulation. Without -trace-out it is a no-op returning a nil-safe
// closer.
func (t *TraceFlags) Apply(p *harness.RunParams) (closeTrace func() error, err error) {
	if *t.Out == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(*t.Out)
	if err != nil {
		return nil, err
	}
	p.TraceWriter = f
	p.TraceMem = *t.Mem
	p.TraceDir = *t.Dir
	return f.Close, nil
}

// SweepFlags is the run-cache flag group (-cache-dir/-resume/-no-cache)
// shared by the sweep drivers (clearbench, clearchaos).
type SweepFlags struct {
	CacheDir *string
	Resume   *bool
	NoCache  *bool
}

// AddSweepFlags registers the run-cache flag group on fs.
func AddSweepFlags(fs *flag.FlagSet) *SweepFlags {
	return &SweepFlags{
		CacheDir: fs.String("cache-dir", "", "content-addressed run cache directory: runs consult it before simulating and persist their summaries, so re-running a cancelled sweep only recomputes missing cells"),
		Resume:   fs.Bool("resume", false, "require -cache-dir to exist (a previous sweep's cache) and resume from it; usage error otherwise"),
		NoCache:  fs.Bool("no-cache", false, "ignore -cache-dir entirely: neither consult nor fill the run cache"),
	}
}

// ServiceFlags is the farm flag group (-remote) shared by the sweep drivers
// that can hand execution to a farm server (internal/farm).
type ServiceFlags struct {
	Remote *string
}

// AddServiceFlags registers the farm flag group on fs.
func AddServiceFlags(fs *flag.FlagSet) *ServiceFlags {
	return &ServiceFlags{
		Remote: fs.String("remote", "", "execute every run on the farm server at this address (host:port or URL) instead of locally; see -serve"),
	}
}

// Validate enforces the service flag algebra at parse time, before any
// simulation runs. A process is either a farm client (-remote) or a farm
// server (-serve), never both; and a farm client has no say over caching —
// the store lives server-side — so the local cache flags are rejected
// rather than silently ignored. Callers route the error through Usage
// (exit 2).
func (s *ServiceFlags) Validate(serve string, sweep *SweepFlags) error {
	if *s.Remote == "" {
		return nil
	}
	if serve != "" {
		return fmt.Errorf("-remote and -serve are mutually exclusive: one process is a farm client or a farm server, not both")
	}
	if sweep != nil {
		switch {
		case *sweep.NoCache:
			return fmt.Errorf("-remote with -no-cache: caching is the farm server's decision; start the server without -cache-dir instead")
		case *sweep.Resume:
			return fmt.Errorf("-remote with -resume: resume happens server-side (restart the farm with its -cache-dir)")
		case *sweep.CacheDir != "":
			return fmt.Errorf("-remote with -cache-dir: the run cache lives on the farm server (pass -cache-dir to -serve)")
		}
	}
	return nil
}

// Store opens the run cache selected by the flags; nil (with nil error)
// means caching is off. A missing directory is only an error under -resume —
// resuming from a cache that does not exist is a typo, not a cold start.
func (s *SweepFlags) Store() (*runstore.Store, error) {
	if *s.NoCache || (*s.CacheDir == "" && !*s.Resume) {
		return nil, nil
	}
	if *s.CacheDir == "" {
		return nil, fmt.Errorf("-resume needs -cache-dir (the directory of the sweep to resume)")
	}
	if *s.Resume {
		if st, err := os.Stat(*s.CacheDir); err != nil || !st.IsDir() {
			return nil, fmt.Errorf("-resume: cache directory %q does not exist (drop -resume for a cold start)", *s.CacheDir)
		}
	}
	return runstore.Open(*s.CacheDir)
}
