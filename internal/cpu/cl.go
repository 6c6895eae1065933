package cpu

import (
	"repro/internal/coherence"
	clear "repro/internal/core"
	"repro/internal/htm"
	"repro/internal/policy"
	"repro/internal/stats"
)

// beginCLAttempt starts an NS-CL or S-CL re-execution (Figures 3 and 4):
// read-lock the fallback mutex, walk the ALT locking the required lines in
// lexicographic order, then run the AR body.
func (c *Core) beginCLAttempt() {
	c.resetAttemptState()
	if c.power {
		// A cacheline-locked re-execution is not a power transaction.
		c.m.Power.Release(c.id)
		c.power = false
	}
	if c.retryMode == clear.RetryNSCL {
		c.mode = ModeNSCL
		c.m.Stats.NSCLAttempts++
	} else {
		c.mode = ModeSCL
		c.m.Stats.SCLAttempts++
	}
	if c.m.probe != nil {
		c.m.probe.OnAttemptStart(c.id, c.mode, c.attempt, c.altLinesForProbe())
	}
	c.acquireFallbackReadLock()
}

// acquireFallbackReadLock spins until no AR is in (or waiting for) fallback
// mode, then takes the read lock (§4.3).
func (c *Core) acquireFallbackReadLock() {
	if c.m.Fallback.TryAcquireRead(c.id) {
		c.holdsReadLck = true
		c.lockWalk(0)
		return
	}
	c.engine().Park(c.id, c.m.Cfg.SpinInterval, nil, waitFree, c.acquireReadLckFn)
}

// releaseReadLock drops the fallback read lock, if held, and wakes the
// waiters the release lets through.
func (c *Core) releaseReadLock() {
	if c.holdsReadLck {
		c.m.Fallback.ReleaseRead(c.id)
		c.holdsReadLck = false
		c.m.wakeLockWaiters()
	}
}

// lockWalk acquires the cacheline locks the ALT marked NeedsLocking, in
// table (lexicographic) order. Busy lines are retried after a backoff; the
// total order across cores makes the walk deadlock-free [38].
func (c *Core) lockWalk(i int) {
	alt := c.disc.ALT
	for i < alt.Len() && !alt.EntryAt(i).NeedsLocking {
		i++
	}
	if i >= alt.Len() {
		// All locks held; the AR body starts. (The paper overlaps
		// execution with the tail of the locking walk; we serialise them,
		// a timing-only simplification applied identically to all
		// configurations.)
		c.engine().Schedule(0, c.stepFn)
		return
	}
	e := alt.EntryAt(i)
	if c.m.Dir.Owner(e.Addr) == c.id {
		// Present in our cache with exclusive permission: the §5 "Hit"
		// path, lockable without further communication.
		e.Hit = true
	}
	res := c.m.Dir.Lock(c.id, e.Addr, coherence.ReqAttrs{})
	if res.Nacked {
		// A prioritised holder (power transaction, remote S-CL speculative
		// set) refused the lock: abort the CL attempt instead of spinning,
		// so no wait cycle can form (§5.2).
		c.abortNow(htm.AbortMemoryConflict)
		return
	}
	if res.Retry {
		c.m.Stats.LockRetries++
		c.walkIdx = i
		c.engine().Schedule(res.Latency, c.lockWalkFn)
		return
	}
	e.Locked = true
	c.m.Stats.LinesLocked++
	c.l1Insert(e.Addr)
	c.l1.Pin(e.Addr)
	c.walkIdx = i + 1
	lat := res.Latency
	if c.m.fault != nil {
		// Injected lock-holder preemption: the walk stalls while holding
		// this lock, so every contender on it spins longer — the ordered
		// locking argument must still guarantee progress.
		lat += c.m.fault.PreemptHolder(c.id)
	}
	c.engine().Schedule(lat, c.lockWalkFn)
}

// resumeLockWalk is the pre-bound continuation of an in-flight lock walk:
// it resumes at the saved table index (a typed event record rather than a
// fresh closure per scheduled step).
func (c *Core) resumeLockWalk() { c.lockWalk(c.walkIdx) }

// commitCL finishes a successful NS-CL or S-CL execution: the buffered
// stores land while every written line is still cacheline-locked, then the
// bulk unlock (§5.1) and the fallback read-lock release happen atomically at
// the commit point. Only the drain latency is charged afterwards.
func (c *Core) commitCL() {
	drain := c.m.Cfg.CommitStoreLat * simTick(len(c.sq))
	mode := stats.CommitNSCL
	if c.mode == ModeSCL {
		mode = stats.CommitSCL
	}
	if c.m.probe != nil {
		c.m.probe.OnCommit(CommitInfo{
			Core:            c.id,
			ProgID:          c.inv.Prog.ID,
			Attempt:         c.attempt,
			Mode:            c.mode,
			ConflictRetries: c.conflictRetries,
			StoreLines:      c.storeLinesForProbe(),
		})
	}
	c.applySQ()
	c.clearTxSets()
	// Consume the CRT hints this execution used: the conflicts they
	// guarded against did not recur.
	for _, e := range c.disc.ALT.Entries() {
		if e.NeedsLocking && !e.Written {
			c.crt.Remove(e.Addr)
		}
	}
	c.m.Dir.UnlockAll(c.id)
	c.unpinAll()
	c.mode = ModeIdle
	c.releaseReadLock()
	if c.ertEntry != nil {
		c.ertEntry.NoteCommit()
	}
	execMode := policy.ExecNSCL
	if mode == stats.CommitSCL {
		execMode = policy.ExecSCL
	}
	c.pol.OnCommit(policy.Outcome{
		ProgID:          c.inv.Prog.ID,
		Mode:            execMode,
		ConflictRetries: c.conflictRetries,
	})
	c.m.Stats.Instructions += c.attemptInstr
	c.m.Stats.RecordCommit(mode, c.conflictRetries)
	c.m.Stats.RecordCommitAR(c.inv.Prog.ID, c.inv.Prog.Name, mode)
	c.recordFig1Attempt(true)
	c.engine().Schedule(drain, c.finishInvFn)
}
