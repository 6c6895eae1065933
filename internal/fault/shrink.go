package fault

import "repro/internal/sim"

// ShrinkPlan greedily minimises a failing plan: failing(p) must
// deterministically report whether plan p still reproduces the failure
// (an oracle violation, livelocks included, or a crash). The shrinker first
// tries to disable whole fault kinds, then halves the surviving rates and
// magnitudes while the failure persists. Because both the injector and the
// simulation are seed-deterministic, every candidate evaluation is an exact
// replay — the same discipline as the litmus-case shrinker in
// internal/check/fuzz.
//
// The returned plan is a new value; the input is not modified. If the input
// plan does not fail, it is returned unchanged (cloned).
func ShrinkPlan(p *Plan, failing func(*Plan) bool) *Plan {
	cur := p.Clone()
	if !failing(cur) {
		return cur
	}

	// Pass 1: drop entire kinds while the failure persists.
	for k := Kind(0); k < NumKinds; k++ {
		if !cur.Enabled(k) {
			continue
		}
		cand := cur.Clone().Disable(k)
		if failing(cand) {
			cur = cand
		}
	}

	// Pass 2: halve the surviving rates and magnitudes, a few rounds of
	// greedy descent. Each round re-runs the failure predicate per kind, so
	// the loop is bounded by rounds × kinds replays.
	for round := 0; round < 6; round++ {
		improved := false
		for k := Kind(0); k < NumKinds; k++ {
			if !cur.Enabled(k) {
				continue
			}
			cand := cur.Clone()
			if !halveKind(cand, k) {
				continue
			}
			if failing(cand) {
				cur = cand
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return cur
}

// halveKind halves the rate and magnitude fields driving kind k in place,
// keeping the kind enabled. It returns false when the kind is already at its
// minimum useful strength (nothing left to shrink).
func halveKind(p *Plan, k Kind) bool {
	halfRate := func(r *float64) bool {
		if *r <= 0.001 {
			return false
		}
		*r /= 2
		return true
	}
	halfTick := func(t *sim.Tick) bool {
		if *t <= 1 {
			return false
		}
		*t /= 2
		return true
	}
	switch k {
	case KindEventDelay:
		return halfRate(&p.EventDelayRate) || halfTick(&p.EventDelayMax)
	case KindNack:
		if p.NackBurst > 0 {
			p.NackBurst /= 2
			return true
		}
		return halfRate(&p.NackRate)
	case KindDirStall:
		return halfRate(&p.StallRate) || halfTick(&p.StallTicks)
	case KindLockStall:
		return halfRate(&p.LockStallRate) || halfTick(&p.LockStallTicks)
	case KindLockedLineDelay:
		return halfRate(&p.LockedLineDelayRate) || halfTick(&p.LockedLineDelayTicks)
	case KindPowerDeny:
		if p.PowerDenyWindow > 1 {
			p.PowerDenyWindow /= 2
			return true
		}
		return false
	case KindSpuriousAbort:
		return halfRate(&p.SpuriousAbortRate)
	case KindHolderStall:
		return halfRate(&p.HolderStallRate) || halfTick(&p.HolderStallTicks)
	case KindSecondSpecRetry:
		return halfRate(&p.SecondSpecRetryRate)
	case KindLostInvalidation:
		return halfRate(&p.LostInvalidationRate)
	}
	return false
}
