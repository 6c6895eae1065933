package policy

import (
	clear "repro/internal/core"
	"repro/internal/htm"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Context is the attempt context handed to Decide after an aborted attempt:
// everything the §4.3 mechanism knows at the decision point. The cpu layer
// owns one Context per core and reuses it, so Decide must not retain the
// pointer past the call.
type Context struct {
	// Core and ProgID identify the deciding core and the AR it is running.
	Core   int
	ProgID int
	// Attempt is the zero-based attempt index that just aborted;
	// ConflictRetries counts the conflict-type aborts so far (already
	// incremented for the abort being decided).
	Attempt         int
	ConflictRetries int
	// Reason is why the attempt aborted.
	Reason htm.AbortReason
	// Proposed is the §4.3 decision tree's proposal for the next attempt —
	// the mode the hardware mechanism would take. The mechanism (discovery,
	// assessment, ERT/ALT/CRT updates) has already run; a policy chooses
	// whether to honour the proposal or serialize instead.
	Proposed clear.RetryMode
	// Assessed and Assessment carry the discovery assessment when the
	// aborting attempt completed failed-mode discovery.
	Assessed   bool
	Assessment clear.Assessment
	// Rand draws a uniform int in [0, n) from the deciding core's own RNG —
	// the only legal source of per-decision randomness. Policies that do
	// not draw must not call it (the draw sequence is part of the
	// deterministic digest contract).
	Rand func(n int) int
}

// Decision is a policy's answer: the next attempt's mode and the backoff
// delay to insert before it (on top of the fixed abort penalty).
//
// Legal decisions are constrained by the machine's invariants, enforced by
// the cpu layer: a policy may return the proposal unchanged or override it
// to RetryFallback (serialization is always safe). It must never weaken a
// cacheline-locked proposal to a plain speculative retry — that is exactly
// the single-retry-bound violation the oracle exists to catch — and it
// cannot invent a CL mode the mechanism did not propose, because no learned
// footprint would back the lock walk.
type Decision struct {
	Mode    clear.RetryMode
	Backoff sim.Tick
}

// Outcome is one observation fed to a learning policy: an attempt of ProgID
// finished (committed or aborted) in Mode after ConflictRetries
// conflict-counted retries. Mode uses the commit-mode vocabulary, so a
// failed-mode discovery continuation, a speculative execution that already
// knows it will abort, counts as speculative.
type Outcome struct {
	ProgID          int
	Mode            stats.CommitMode
	ConflictRetries int
}

// Env is the per-core construction environment: the run seed, the deciding
// core's id, and the config knobs the default policy needs to reproduce the
// legacy behaviour exactly.
type Env struct {
	Seed        uint64
	Core        int
	RetryLimit  int
	BackoffBase sim.Tick
}

// Policy owns the next-mode decision for one core. Implementations must be
// deterministic (see the package comment) and allocation-free on the
// decision path — Decide runs on every abort of the simulation hot loop.
type Policy interface {
	// Decide picks the next attempt's mode and backoff after an abort.
	Decide(ctx *Context) Decision
	// BudgetExhausted reports whether conflictRetries has exhausted the
	// retry budget; the next attempt then enters the fallback path
	// regardless of the last decision.
	BudgetExhausted(conflictRetries int) bool
	// PreferNonSpec is the attempt-0 hint: skip speculation entirely and
	// try a statically-computed NS-CL footprint (possible only for ARs
	// whose footprint is evaluable a priori; the cpu layer falls back to
	// speculation when it is not).
	PreferNonSpec(progID int) bool
	// OnCommit and OnAbort observe finished attempts, the learning signal
	// for adaptive policies. Called on the simulation hot path; must not
	// allocate per call in steady state.
	OnCommit(o Outcome)
	OnAbort(o Outcome)
}

// New constructs the policy selected by spec for one core. Constructing per
// core keeps learning state core-local (no cross-core coupling, no locks)
// and derivable from (Seed, Core) alone.
func New(spec Spec, env Env) Policy {
	switch spec.Kind {
	case KindRetry:
		n := spec.N
		if n < 1 {
			n = DefaultRetryN
		}
		return &retryPolicy{env: env, n: n, exp: spec.Backoff != "none"}
	case KindEWMA:
		alpha, floor := spec.Alpha, spec.Floor
		if alpha == 0 {
			alpha = DefaultAlpha
		}
		if floor == 0 {
			floor = DefaultFloor
		}
		return &ewmaPolicy{clearPolicy: clearPolicy{env: env}, alpha: alpha, floor: floor, rate: make(map[int]float64, 8)}
	default:
		return clearPolicy{env: env}
	}
}

// OverrideAllowed reports whether a policy may answer decided when the
// mechanism proposed proposed — the legality rule documented on Decision,
// shared by the cpu enforcement point and the decision-table tests.
func OverrideAllowed(proposed, decided clear.RetryMode) bool {
	return decided == proposed || decided == clear.RetryFallback
}
