// Package farm turns clearbench into a crash-tolerant sweep farm: an HTTP
// job-queue service (Server) and client (Client) over the content-addressed
// run cache (internal/runstore). Runs are pure functions of their
// harness.RunParams, keyed by RunParams.Spec().Key(), so the farm is one
// giant memoized sweep:
//
//   - the wire carries the harness's own run description, with no copy of
//     it here: harness.RunParams JSON, one job per POST /jobs, is the
//     farm's only JSON entry point. A campaign is a client-side
//     harness.RunMatrix whose Runner (Client.Runner) submits each seed run.
//     Host-side fields stay off the wire; every keyed field, the fault plan
//     and the retry policy included, travels, so client and server key a
//     run alike;
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
	"repro/internal/workload"
)

// maxJobOps caps a job's total invocations, cores × ops_per_thread. Workload
// setup allocates in proportion to it: at 64 × 16,384 the largest image
// (labyrinth) takes 623 MB, while the largest in-tree run is 32 × 120.
const maxJobOps = 1 << 20

// validate is the farm's submit-time check of a run that came from outside,
// applied before the run is keyed. Beyond what decoding already rejects (an
// unknown config letter or policy), it refuses what harness.Run would
// refuse, a benchmark the workload registry does not know included, and
// what could take the whole server down in workload setup: an out-of-range
// core count, invocation count or table size dies with a fatal
// out-of-memory error that no recover can catch.
func validate(p harness.RunParams) error {
	if _, err := workload.New(p.Benchmark); err != nil {
		return fmt.Errorf("farm: job: %w", err)
	}
	if p.OpsPerThread < 1 {
		return fmt.Errorf("farm: job: ops_per_thread %d < 1", p.OpsPerThread)
	}
	if err := p.SystemConfig().Validate(); err != nil {
		return fmt.Errorf("farm: job: %w", err)
	}
	// Validate bounds cores to 1–64; dividing keeps the product from
	// wrapping.
	if p.OpsPerThread > maxJobOps/p.Cores {
		return fmt.Errorf("farm: job: %d cores × %d ops_per_thread exceeds %d invocations",
			p.Cores, p.OpsPerThread, maxJobOps)
	}
	if p.FaultPlan != nil {
		if err := p.FaultPlan.Validate(); err != nil {
			return fmt.Errorf("farm: job: %w", err)
		}
	}
	return nil
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
	// StateDone: terminal success; Result carries the CacheRecord bytes.
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
	Key      string            `json:"key"`
	Spec     harness.RunParams `json:"spec"`
	State    State             `json:"state"`
	Attempts int               `json:"attempts"`
	// CacheHit reports the result was served from the result store without
	// executing (a resumed campaign, or a spec another campaign already ran).
	CacheHit bool `json:"cache_hit,omitempty"`
	// Result is the encoded harness.CacheRecord of a done job — the exact
	// bytes a local warm sweep would decode. JSON carries it as base64.
	Result []byte `json:"result,omitempty"`
	// Failure is the last failure reason (failed/quarantined/backoff).
	Failure string `json:"failure,omitempty"`
	// Kind is where the last failure was created. An older server sends
	// none, which decodes as the zero kind, harness.FailOther.
	Kind harness.FailureKind `json:"kind,omitempty"`
	// Retryable is the farm's retry decision on Kind.
	Retryable bool `json:"retryable,omitempty"`
	// BackoffMS is the delay before the next attempt (backoff state only).
	BackoffMS int64 `json:"backoff_ms,omitempty"`
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
