package cpu

import (
	"repro/internal/coherence"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stats"
)

// simTick converts a length to a tick count for latency arithmetic.
func simTick(n int) sim.Tick { return sim.Tick(n) }

// enterFallback takes the global-lock path (decision 0 of §4.3): announce a
// writer claim (blocking new CL read-lockers), wait for the lock, invalidate
// every subscribed speculative reader via a real coherence write to the lock
// line, and execute the AR non-speculatively.
func (c *Core) enterFallback() {
	c.resetAttemptState()
	c.mode = ModeFallback
	if c.power {
		c.m.Power.Release(c.id)
		c.power = false
	}
	if c.m.probe != nil {
		c.m.probe.OnAttemptStart(c.id, ModeFallback, c.attempt, nil)
	}
	c.m.Fallback.AnnounceWriter(c.id)
	c.tryAcquireFallbackWrite()
}

// Fallback-lock wait classes: the sim.WakeMask a parked waiter is released
// by. Only ReleaseWrite and ReleaseRead can make either condition true, so
// wakeLockWaiters runs after each of them and nowhere else.
const (
	// waitFree: a speculative start or a CL read-lock acquisition, which
	// needs Fallback.Free().
	waitFree sim.WakeMask = 1 << iota
	// waitIdle: a fallback writer, which needs Fallback.Idle().
	waitIdle
)

// wakeLockWaiters releases the parked waiters whose condition a fallback
// lock release has just made true.
func (m *Machine) wakeLockWaiters() {
	var kinds sim.WakeMask
	if m.Fallback.Free() {
		kinds |= waitFree
	}
	if m.Fallback.Idle() {
		kinds |= waitIdle
	}
	m.Engine.Wake(kinds)
}

func (c *Core) tryAcquireFallbackWrite() {
	if !c.m.Fallback.TryAcquireWrite(c.id) {
		c.engine().Park(c.id, c.m.Cfg.SpinInterval, nil, waitIdle, c.tryFallbackWrFn)
		return
	}
	// Setting the lock busy requires exclusive permission on the lock line;
	// the invalidations this write fans out are what abort the subscribed
	// speculative transactions (§2.1).
	res := c.m.Dir.Write(c.id, c.m.Fallback.Line, coherence.ReqAttrs{NonSpec: true})
	c.m.Stats.FallbackAcquisitions++
	c.engine().Schedule(res.Latency, c.stepFn)
}

// commitFallback finishes a fallback execution: stores already reached
// memory, so only the lock release remains.
func (c *Core) commitFallback() {
	if c.m.probe != nil {
		c.m.probe.OnCommit(CommitInfo{
			Core:            c.id,
			ProgID:          c.inv.Prog.ID,
			Attempt:         c.attempt,
			Mode:            ModeFallback,
			ConflictRetries: c.conflictRetries,
			// StoreLines nil: fallback stores write memory directly.
		})
	}
	c.m.Fallback.ReleaseWrite(c.id)
	c.m.wakeLockWaiters()
	c.pol.OnCommit(policy.Outcome{
		ProgID:          c.inv.Prog.ID,
		Mode:            policy.ExecFallback,
		ConflictRetries: c.conflictRetries,
	})
	c.m.Stats.Instructions += c.attemptInstr
	c.m.Stats.RecordCommit(stats.CommitFallback, c.conflictRetries)
	c.m.Stats.RecordCommitAR(c.inv.Prog.ID, c.inv.Prog.Name, stats.CommitFallback)
	c.recordFig1Attempt(true)
	c.finishInvocation()
}
