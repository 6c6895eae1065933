package policy

import (
	clear "repro/internal/core"
	"repro/internal/sim"
)

// retryPolicy is the sapling-style bounded-retry engine: a fixed budget of N
// conflict retries before fallback, with deterministic FNV-jittered
// exponential backoff. Unlike the default policy it draws nothing from the
// core RNG — the delay is a hash of (seed, core, AR, retry count), so two
// runs of the same spec produce identical backoff sequences even across
// schedule perturbations, and the jitter still de-correlates cores hitting
// the same contended line.
type retryPolicy struct {
	env Env
	n   int
	exp bool
}

func (p *retryPolicy) Decide(ctx *Context) Decision {
	d := Decision{Mode: ctx.Proposed}
	if d.Mode == clear.RetrySCL || d.Mode == clear.RetryNSCL {
		// Locked retries make progress by locking; no delay.
		return d
	}
	if !p.exp || p.env.BackoffBase == 0 {
		return d
	}
	window := backoffWindow(p.env.BackoffBase, ctx.ConflictRetries)
	d.Backoff = sim.Tick(fnvMix(p.env.Seed, uint64(p.env.Core), uint64(ctx.ProgID), uint64(ctx.ConflictRetries)) % window)
	return d
}

func (p *retryPolicy) BudgetExhausted(conflictRetries int) bool {
	return conflictRetries > p.n
}

func (p *retryPolicy) PreferNonSpec(progID int) bool { return false }

func (p *retryPolicy) OnCommit(o Outcome) {}
func (p *retryPolicy) OnAbort(o Outcome)  {}

// fnvMix folds four words through the FNV-1a step function (word-wise
// rather than byte-wise: the avalanche of the 64-bit prime is plenty for
// jitter). Fixed arity keeps the decision path allocation-free.
func fnvMix(a, b, c, d uint64) uint64 {
	const prime = 1099511628211
	h := uint64(1469598103934665603) // FNV-1a offset basis
	h = (h ^ a) * prime
	h = (h ^ b) * prime
	h = (h ^ c) * prime
	h = (h ^ d) * prime
	// One xorshift finalizer so consecutive retry counts do not map to
	// near-consecutive hashes.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}
