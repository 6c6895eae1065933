package policy

import (
	clear "repro/internal/core"
	"repro/internal/stats"
)

// ewmaPolicy is the consequence-style adaptive speculator: per AR, an
// exponentially-weighted moving average of speculative attempt success,
// seeded optimistic. While an AR's rate stays above the floor it behaves
// like the default policy. Once contention drags the rate below the floor
// the policy stops speculating on that AR: at invocation start it prefers a
// statically-computed NS-CL entry (skipping speculation entirely when the
// footprint is evaluable a priori), and on abort it overrides a plain
// speculative proposal with fallback rather than burn more doomed attempts.
// Cacheline-locked proposals are always honoured — they carry a learned
// footprint and make progress by locking.
//
// State is per-core and per-AR: each core learns from its own attempts
// only, so the policy stays deterministic without cross-core coupling, at
// the cost of each core paying its own learning transient.
type ewmaPolicy struct {
	// clearPolicy supplies the retry budget and, above the floor, the
	// default policy's decision and backoff draw.
	clearPolicy
	alpha float64
	floor float64
	rate  map[int]float64 // progID -> EWMA of speculative success; absent = optimistic 1.0
}

func (p *ewmaPolicy) rateOf(progID int) float64 {
	if r, ok := p.rate[progID]; ok {
		return r
	}
	return 1.0
}

func (p *ewmaPolicy) Decide(ctx *Context) Decision {
	if ctx.Proposed == clear.RetrySpeculative && p.rateOf(ctx.ProgID) < p.floor {
		// The AR has been aborting speculatively often enough that another
		// speculative attempt is expected to waste work: serialize now.
		return Decision{Mode: clear.RetryFallback}
	}
	return p.clearPolicy.Decide(ctx)
}

func (p *ewmaPolicy) PreferNonSpec(progID int) bool {
	return p.rateOf(progID) < p.floor
}

func (p *ewmaPolicy) OnCommit(o Outcome) {
	if o.Mode != stats.CommitSpeculative {
		return
	}
	p.rate[o.ProgID] = (1-p.alpha)*p.rateOf(o.ProgID) + p.alpha
}

func (p *ewmaPolicy) OnAbort(o Outcome) {
	if o.Mode != stats.CommitSpeculative {
		return
	}
	p.rate[o.ProgID] = (1 - p.alpha) * p.rateOf(o.ProgID)
}
