package policy

import (
	clear "repro/internal/core"
	"repro/internal/sim"
)

// clearPolicy is the paper-exact default: accept every §4.3 proposal and
// draw the legacy randomized exponential backoff from the core's RNG. Its
// draw discipline is load-bearing — one Rand call per decision except when
// the decided mode is cacheline-locked or backoff is disabled, exactly the
// sequence the pre-policy implementation produced — so the default policy
// is bit-identical to HEAD digests.
type clearPolicy struct {
	env Env
}

func (p clearPolicy) Decide(ctx *Context) Decision {
	d := Decision{Mode: ctx.Proposed}
	if p.env.BackoffBase == 0 {
		return d
	}
	if d.Mode == clear.RetrySCL || d.Mode == clear.RetryNSCL {
		// Cacheline-locked retries skip the backoff: their forward progress
		// comes from locking, and delaying them only widens the window in
		// which the learned footprint can go stale.
		return d
	}
	window := backoffWindow(p.env.BackoffBase, ctx.ConflictRetries)
	d.Backoff = sim.Tick(ctx.Rand(int(window)))
	return d
}

// backoffWindow is the exponential backoff range after conflictRetries
// conflict-counted retries: base doubled per retry, capped at 2⁶ × base.
// The policies that back off draw their delay from [0, window).
func backoffWindow(base sim.Tick, conflictRetries int) uint64 {
	return uint64(base) << uint(min(conflictRetries, 6))
}

func (p clearPolicy) BudgetExhausted(conflictRetries int) bool {
	return conflictRetries > p.env.RetryLimit
}

func (p clearPolicy) PreferNonSpec(progID int) bool { return false }

func (p clearPolicy) OnCommit(o Outcome) {}
func (p clearPolicy) OnAbort(o Outcome)  {}
