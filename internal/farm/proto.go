// Package farm turns clearbench into a crash-tolerant sweep farm: an HTTP
// job-queue service (Server) and client (Client) over the content-addressed
// run cache. Runs are pure functions of a canonical RunSpec
// (internal/runstore), so the farm is one giant memoized sweep:
//
//   - a job's identity IS its cache key — identical specs submitted twice
//     attach to one execution (in-flight dedup), and a server restarted over
//     the same store resumes a campaign with only missing cells recomputed;
//   - workers execute through the same harness path as local sweeps and
//     persist the same CacheRecord bytes, so a remote matrix reproduces
//     byte-identical CSVs vs. local execution;
//   - failures follow the bounded-retry discipline the simulated system
//     itself is about: per-job deadline, deterministic exponential backoff
//     with jitter, and a quarantine circuit breaker once the budget is
//     exhausted — retried with bounds, never poisoning the queue.
package farm

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/policy"
	"repro/internal/sim"
)

// JobSpec is the wire form of one run submission: a flat JSON mirror of the
// digest-affecting run parameters (the same field set runstore.RunSpec
// canonicalizes). Host-side knobs — deadlines, metrics, tracing — are
// deliberately absent: the server owns those, and they never change the
// simulated outcome or the cache key.
type JobSpec struct {
	Benchmark    string `json:"benchmark"`
	Config       string `json:"config"`
	Cores        int    `json:"cores"`
	OpsPerThread int    `json:"ops_per_thread"`
	RetryLimit   int    `json:"retry_limit"`
	Seed         uint64 `json:"seed"`
	// MaxTicks bounds the simulation (livelock guard), carried verbatim —
	// it is part of the cache key, so the server must not substitute a
	// default the submitting side didn't use.
	MaxTicks uint64 `json:"max_ticks,omitempty"`

	SLE    bool `json:"sle,omitempty"`
	Oracle bool `json:"oracle,omitempty"`
	Mesh   bool `json:"mesh,omitempty"`

	DisableDiscoveryContinuation bool `json:"disable_discovery_continuation,omitempty"`
	SCLLockAllReads              bool `json:"scl_lock_all_reads,omitempty"`

	ERTEntries int `json:"ert_entries,omitempty"`
	ALTEntries int `json:"alt_entries,omitempty"`
	CRTEntries int `json:"crt_entries,omitempty"`
	CRTWays    int `json:"crt_ways,omitempty"`

	// Policy is the canonical retry-policy rendering; omitted for the
	// default (which is also how the cache key elides it), so pre-policy
	// clients and servers interoperate.
	Policy string `json:"policy,omitempty"`
}

// SpecOf flattens the digest-affecting parameters of p into its wire form.
// SpecOf and JobSpec.Params are inverses for every parameter that keys the
// cache, which is what keeps client- and server-side keys identical.
func SpecOf(p harness.RunParams) JobSpec {
	return JobSpec{
		Benchmark:                    p.Benchmark,
		Config:                       p.Config.String(),
		Cores:                        p.Cores,
		OpsPerThread:                 p.OpsPerThread,
		RetryLimit:                   p.RetryLimit,
		Seed:                         p.Seed,
		MaxTicks:                     uint64(p.MaxTicks),
		SLE:                          p.SLE,
		Oracle:                       p.Oracle,
		Mesh:                         p.Mesh,
		DisableDiscoveryContinuation: p.DisableDiscoveryContinuation,
		SCLLockAllReads:              p.SCLLockAllReads,
		ERTEntries:                   p.ERTEntries,
		ALTEntries:                   p.ALTEntries,
		CRTEntries:                   p.CRTEntries,
		CRTWays:                      p.CRTWays,
		Policy:                       policyWire(p.Policy),
	}
}

// policyWire renders a policy spec for the wire: canonical, with the default
// elided to keep keys and JSON identical to pre-policy clients.
func policyWire(s policy.Spec) string {
	if s.IsDefault() {
		return ""
	}
	return s.Canonical()
}

// Params validates the spec and resolves it into run parameters. Host-side
// fields (deadline, metrics) are left zero for the server to fill in.
func (s JobSpec) Params() (harness.RunParams, error) {
	if s.Benchmark == "" {
		return harness.RunParams{}, fmt.Errorf("farm: job spec has no benchmark")
	}
	cfg, err := harness.ParseConfig(s.Config)
	if err != nil {
		return harness.RunParams{}, fmt.Errorf("farm: job spec: %w", err)
	}
	if s.Cores < 1 {
		return harness.RunParams{}, fmt.Errorf("farm: job spec: cores %d < 1", s.Cores)
	}
	if s.OpsPerThread < 1 {
		return harness.RunParams{}, fmt.Errorf("farm: job spec: ops_per_thread %d < 1", s.OpsPerThread)
	}
	if s.RetryLimit < 1 {
		return harness.RunParams{}, fmt.Errorf("farm: job spec: retry_limit %d < 1", s.RetryLimit)
	}
	p := harness.DefaultRunParams(s.Benchmark, cfg)
	p.Cores = s.Cores
	p.OpsPerThread = s.OpsPerThread
	p.RetryLimit = s.RetryLimit
	p.Seed = s.Seed
	p.MaxTicks = sim.Tick(s.MaxTicks)
	p.SLE = s.SLE
	p.Oracle = s.Oracle
	p.Mesh = s.Mesh
	p.DisableDiscoveryContinuation = s.DisableDiscoveryContinuation
	p.SCLLockAllReads = s.SCLLockAllReads
	p.ERTEntries = s.ERTEntries
	p.ALTEntries = s.ALTEntries
	p.CRTEntries = s.CRTEntries
	p.CRTWays = s.CRTWays
	p.Policy, err = policy.Parse(s.Policy)
	if err != nil {
		return harness.RunParams{}, fmt.Errorf("farm: job spec: %w", err)
	}
	return p, nil
}

// MatrixRequest expands server-side into the full benchmark x config x
// retry-limit x seed cross product — one POST enqueues a whole campaign, so
// the farm's worker pool runs ahead of however fast a client polls.
type MatrixRequest struct {
	Benchmarks   []string `json:"benchmarks"`
	Configs      []string `json:"configs"`
	RetryLimits  []int    `json:"retry_limits"`
	Seeds        []uint64 `json:"seeds"`
	Cores        int      `json:"cores"`
	OpsPerThread int      `json:"ops_per_thread"`
	MaxTicks     uint64   `json:"max_ticks,omitempty"`

	DisableDiscoveryContinuation bool `json:"disable_discovery_continuation,omitempty"`
	SCLLockAllReads              bool `json:"scl_lock_all_reads,omitempty"`

	// Policy is the canonical retry policy every expanded job runs under
	// (empty = default).
	Policy string `json:"policy,omitempty"`
}

// MatrixRequestFrom mirrors the sweep dimensions of opts onto the wire. The
// expansion order server-side matches RunMatrix's job order, so the two
// sides enumerate the same cells.
func MatrixRequestFrom(opts harness.MatrixOptions) MatrixRequest {
	req := MatrixRequest{
		Benchmarks:                   opts.Benchmarks,
		RetryLimits:                  opts.RetryLimits,
		Seeds:                        opts.Seeds,
		Cores:                        opts.Cores,
		OpsPerThread:                 opts.OpsPerThread,
		MaxTicks:                     uint64(opts.MaxTicks),
		DisableDiscoveryContinuation: opts.DisableDiscoveryContinuation,
		SCLLockAllReads:              opts.SCLLockAllReads,
		Policy:                       policyWire(opts.Policy),
	}
	for _, c := range opts.Configs {
		req.Configs = append(req.Configs, c.String())
	}
	return req
}

// Specs expands the request into individual job specs (benchmark-major, then
// config, retry limit, seed — RunMatrix's dispatch order).
func (m MatrixRequest) Specs() ([]JobSpec, error) {
	if len(m.Benchmarks) == 0 || len(m.Configs) == 0 || len(m.RetryLimits) == 0 || len(m.Seeds) == 0 {
		return nil, fmt.Errorf("farm: matrix request needs benchmarks, configs, retry_limits, and seeds")
	}
	var specs []JobSpec
	for _, b := range m.Benchmarks {
		for _, c := range m.Configs {
			for _, r := range m.RetryLimits {
				for _, s := range m.Seeds {
					specs = append(specs, JobSpec{
						Benchmark:                    b,
						Config:                       c,
						Cores:                        m.Cores,
						OpsPerThread:                 m.OpsPerThread,
						RetryLimit:                   r,
						Seed:                         s,
						MaxTicks:                     m.MaxTicks,
						DisableDiscoveryContinuation: m.DisableDiscoveryContinuation,
						SCLLockAllReads:              m.SCLLockAllReads,
						Policy:                       m.Policy,
					})
				}
			}
		}
	}
	return specs, nil
}

// State is a job's position in the queue lifecycle.
type State string

const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: a worker is executing (or consulting the cache for) it.
	StateRunning State = "running"
	// StateBackoff: a retryable failure occurred; the job re-enters the
	// queue after its deterministic backoff delay.
	StateBackoff State = "backoff"
	// StateDone: terminal success; Result carries the CacheRecord JSON.
	StateDone State = "done"
	// StateFailed: terminal non-retryable failure (an oracle violation, a
	// verification failure — deterministic badness a retry cannot fix).
	StateFailed State = "failed"
	// StateQuarantined: terminal; the retry budget is exhausted. The
	// circuit breaker keeps the spec out of the queue — resubmissions
	// attach to this record instead of burning more worker time.
	StateQuarantined State = "quarantined"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateQuarantined
}

// JobStatus is the wire form of one job's current state.
type JobStatus struct {
	// Key is the job id: the content address (runstore key) of its spec.
	Key      string  `json:"key"`
	Spec     JobSpec `json:"spec"`
	State    State   `json:"state"`
	Attempts int     `json:"attempts"`
	// CacheHit reports the result was served from the result store without
	// executing (a resumed campaign, or a spec another campaign already ran).
	CacheHit bool `json:"cache_hit,omitempty"`
	// Result is the harness.CacheRecord JSON of a done job — the exact
	// bytes a local warm sweep would decode.
	Result []byte `json:"result,omitempty"`
	// Failure is the last failure reason (failed/quarantined/backoff).
	Failure string `json:"failure,omitempty"`
	// Retryable classifies Failure under the farm's retry policy.
	Retryable bool `json:"retryable,omitempty"`
	// BackoffMS is the delay before the next attempt (backoff state only).
	BackoffMS int64 `json:"backoff_ms,omitempty"`
}

// MatrixResponse acknowledges a matrix submission.
type MatrixResponse struct {
	Jobs []string `json:"jobs"` // job keys, expansion order
}

// Stats is the farm-wide counter snapshot served at /farm.
type Stats struct {
	Workers  int  `json:"workers"`
	Draining bool `json:"draining"`

	Queued      int `json:"queued"`
	Running     int `json:"running"`
	Backoff     int `json:"backoff"`
	Done        int `json:"done"`
	Failed      int `json:"failed"`
	Quarantined int `json:"quarantined"`

	CacheHits        uint64 `json:"cache_hits"`
	Executed         uint64 `json:"executed"`
	RetriesScheduled uint64 `json:"retries_scheduled"`
	DedupAttached    uint64 `json:"dedup_attached"`
}

// Total returns the number of jobs the farm has accepted.
func (s Stats) Total() int {
	return s.Queued + s.Running + s.Backoff + s.Done + s.Failed + s.Quarantined
}
