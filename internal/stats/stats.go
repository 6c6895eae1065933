// Package stats collects the per-run metrics the paper reports — commits by
// mode and by retry count (Figures 12 and 13), aborts by type (Figures 9 and
// 11), discovery overhead (Figure 8), footprint mutability samples
// (Figure 1) — and the event-counting energy model that substitutes for
// McPAT (Figure 10).
package stats

import (
	"repro/internal/htm"
	"repro/internal/sim"
)

// CommitMode says in which execution mode an AR finally committed
// (Figure 12).
type CommitMode int

const (
	CommitSpeculative CommitMode = iota
	CommitSCL
	CommitNSCL
	CommitFallback
	NumCommitModes
)

func (m CommitMode) String() string {
	switch m {
	case CommitSpeculative:
		return "speculative"
	case CommitSCL:
		return "S-CL"
	case CommitNSCL:
		return "NS-CL"
	case CommitFallback:
		return "fallback"
	}
	return "unknown"
}

// MaxRetryTrack is the deepest retry count tracked individually; deeper
// commits land in the last bucket. The paper notes some applications exceed
// the nominal limit of 10 because fallback-type aborts do not count.
const MaxRetryTrack = 16

// Run accumulates every metric of one simulation run. A single goroutine
// (the simulation) writes it; no locking.
type Run struct {
	// Cycles is the region-of-interest execution time.
	Cycles sim.Tick

	// Commits is the number of committed AR invocations.
	Commits uint64
	// CommitsByMode buckets commits per execution mode (Figure 12).
	CommitsByMode [NumCommitModes]uint64
	// CommitsByRetries[r] counts commits that needed exactly r
	// conflict-retries, r capped at MaxRetryTrack; fallback commits are
	// *not* included here (they are CommitsByMode[CommitFallback]).
	CommitsByRetries [MaxRetryTrack + 1]uint64

	// Aborts counts every aborted attempt; AbortsByBucket groups them as in
	// Figure 11.
	Aborts         uint64
	AbortsByBucket [htm.NumBuckets]uint64

	// Instructions counts retired instructions on committed paths;
	// AbortedInstructions counts work that was thrown away (aborted
	// attempts), which drives the dynamic-energy gap between
	// configurations.
	Instructions        uint64
	AbortedInstructions uint64

	// DiscoveryCycles is time spent running in failed-mode discovery past
	// the conflict point (the Figure 8 overhead series); DiscoveryRuns
	// counts how many attempts entered failed mode.
	DiscoveryCycles sim.Tick
	DiscoveryRuns   uint64

	// Lock-walk activity of the CL modes.
	LinesLocked   uint64
	LockRetries   uint64
	SCLAttempts   uint64
	NSCLAttempts  uint64
	CRTInsertions uint64

	// Memory-system event counters (the energy model inputs; the coherence
	// directory's own Stats are merged in by the harness).
	L1Accesses uint64

	// Figure 1 instrumentation: of the AR invocations that aborted their
	// first attempt and retried, how many had a footprint of at most 32
	// lines that was identical on the retry.
	RetryPairs          uint64
	ImmutableSmallPairs uint64

	// FallbackAcquisitions counts write acquisitions of the global lock.
	FallbackAcquisitions uint64
	// PowerClaims counts PowerTM token grants.
	PowerClaims uint64

	// Retry-policy counters (internal/policy). Deliberately excluded from
	// Digest(): the default policy reproduces the legacy digests
	// bit-identically, and non-default policies are keyed into the run
	// cache by harness.RunParams.Spec, so digest-keying them would be
	// redundant.
	//
	// PolicyOverrides counts decisions where the policy overrode the §4.3
	// mechanism proposal (always a serialization to fallback).
	PolicyOverrides uint64
	// PolicyBackoffTicks is the total backoff delay the policy inserted
	// between attempts (excluding the fixed abort penalty).
	PolicyBackoffTicks uint64
	// PolicyNonSpecEntries counts attempt-0 static NS-CL entries taken on
	// policy preference (PreferNonSpec) rather than the StaticLocking
	// config.
	PolicyNonSpecEntries uint64

	// PerAR breaks commits and aborts down by atomic region (keyed by the
	// AR's program id), the granularity at which the paper reasons in
	// Table 1 and Figure 12. Lazily allocated.
	PerAR map[int]*ARStats

	// LatencyHist is a log2-bucketed histogram of per-invocation latency
	// (first attempt start to commit): bucket i counts latencies in
	// [2^i, 2^(i+1)). Tail latency is where retries and fallback
	// serialisation hurt, which aggregate execution time can hide.
	LatencyHist [LatencyBuckets]uint64
}

// LatencyBuckets bounds the log2 latency histogram (2^40 cycles ≫ any run).
const LatencyBuckets = 40

// RecordLatency files one invocation's start-to-commit latency.
func (r *Run) RecordLatency(lat sim.Tick) {
	b := 0
	for v := lat; v > 1 && b < LatencyBuckets-1; v >>= 1 {
		b++
	}
	r.LatencyHist[b]++
}

// LatencyPercentile returns an upper bound on the p-th percentile latency
// (p in [0,1]) from the histogram: the top of the bucket holding that rank.
func (r *Run) LatencyPercentile(p float64) sim.Tick {
	var total uint64
	for _, n := range r.LatencyHist {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := uint64(p * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, n := range r.LatencyHist {
		seen += n
		if seen > rank {
			return 1 << uint(i+1)
		}
	}
	return 1 << LatencyBuckets
}

// ARStats is the per-atomic-region slice of a run's statistics.
type ARStats struct {
	Name          string
	Commits       uint64
	CommitsByMode [NumCommitModes]uint64
	Aborts        uint64
}

// arStats returns (allocating if needed) the per-AR bucket.
func (r *Run) arStats(arID int, arName string) *ARStats {
	if r.PerAR == nil {
		r.PerAR = make(map[int]*ARStats)
	}
	s, ok := r.PerAR[arID]
	if !ok {
		s = &ARStats{Name: arName}
		r.PerAR[arID] = s
	}
	return s
}

// RecordCommit tallies a committed invocation.
func (r *Run) RecordCommit(mode CommitMode, conflictRetries int) {
	r.Commits++
	r.CommitsByMode[mode]++
	if mode != CommitFallback {
		if conflictRetries > MaxRetryTrack {
			conflictRetries = MaxRetryTrack
		}
		r.CommitsByRetries[conflictRetries]++
	}
}

// RecordCommitAR adds the per-AR view of a commit.
func (r *Run) RecordCommitAR(arID int, arName string, mode CommitMode) {
	s := r.arStats(arID, arName)
	s.Commits++
	s.CommitsByMode[mode]++
}

// RecordAbort tallies one aborted attempt.
func (r *Run) RecordAbort(reason htm.AbortReason) {
	r.Aborts++
	r.AbortsByBucket[htm.BucketOf(reason)]++
}

// RecordAbortAR adds the per-AR view of an abort.
func (r *Run) RecordAbortAR(arID int, arName string) {
	r.arStats(arID, arName).Aborts++
}

// AbortsPerCommit is the Figure 9 metric.
func (r *Run) AbortsPerCommit() float64 {
	if r.Commits == 0 {
		return 0
	}
	return float64(r.Aborts) / float64(r.Commits)
}

// RetryingCommits is the number of commits that needed at least one retry,
// plus all fallback commits: the Figure 13 denominator.
func (r *Run) RetryingCommits() uint64 {
	n := r.CommitsByMode[CommitFallback]
	for i := 1; i <= MaxRetryTrack; i++ {
		n += r.CommitsByRetries[i]
	}
	return n
}

// FirstRetryShare is the fraction of retrying commits that succeeded on the
// first retry (Figure 13's headline number).
func (r *Run) FirstRetryShare() float64 {
	d := r.RetryingCommits()
	if d == 0 {
		return 0
	}
	return float64(r.CommitsByRetries[1]) / float64(d)
}

// FallbackShare is the fraction of retrying commits that ended in the
// fallback path.
func (r *Run) FallbackShare() float64 {
	d := r.RetryingCommits()
	if d == 0 {
		return 0
	}
	return float64(r.CommitsByMode[CommitFallback]) / float64(d)
}

// DiscoveryOverhead is discovery-cycles per core-cycle of execution, the
// shaded series of Figure 8.
func (r *Run) DiscoveryOverhead(cores int) float64 {
	if r.Cycles == 0 || cores == 0 {
		return 0
	}
	return float64(r.DiscoveryCycles) / (float64(r.Cycles) * float64(cores))
}

// Fig1Ratio is the Figure 1 metric: the fraction of first-retry pairs whose
// footprint was small and unchanged.
func (r *Run) Fig1Ratio() float64 {
	if r.RetryPairs == 0 {
		return 0
	}
	return float64(r.ImmutableSmallPairs) / float64(r.RetryPairs)
}
