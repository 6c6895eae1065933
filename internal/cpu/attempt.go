package cpu

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/coherence"
	clear "repro/internal/core"
	"repro/internal/htm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stats"
)

// fig1TrackLimit bounds the per-attempt footprint tracking used by the
// Figure 1 instrumentation: a footprint above 32 lines disqualifies the AR,
// so tracking one extra line suffices.
const fig1TrackLimit = clear.ALTEntries + 1

func (c *Core) resetAttemptState() {
	c.pc = 0
	for i := range c.regs {
		c.regs[i] = 0
	}
	for _, ri := range c.inv.Regs {
		c.regs[ri.Reg] = ri.Val
	}
	c.indir = 0
	c.readSet.Clear()
	c.writeSet.Clear()
	c.sq = c.sq[:0]
	c.sqForward.Clear()
	c.pendingAbort = htm.AbortNone
	c.attemptInstr = 0
	c.attemptLoads = 0
	c.touched.Clear()
	c.failedFetched.Clear()
}

// beginAttempt dispatches the next attempt of the current invocation
// according to the decided retry mode.
func (c *Core) beginAttempt() {
	if c.pol.BudgetExhausted(c.conflictRetries) || c.retryMode == clear.RetryFallback {
		c.enterFallback()
		return
	}

	// MAD/MCAS-style static locking (§2.2): if the footprint is known a
	// priori, lock it and execute non-speculatively — no discovery, no
	// retries. A policy that has learned the AR rarely survives speculation
	// (PreferNonSpec) takes the same path.
	if c.attempt == 0 && c.retryMode == clear.RetrySpeculative &&
		(c.m.Cfg.StaticLocking || c.pol.PreferNonSpec(c.inv.Prog.ID)) &&
		c.tryStaticFootprint() {
		if !c.m.Cfg.StaticLocking {
			c.m.Stats.PolicyNonSpecEntries++
		}
		c.retryMode = clear.RetryNSCL
	}

	switch c.retryMode {
	case clear.RetrySpeculative:
		c.beginSpeculative()
	case clear.RetrySCL, clear.RetryNSCL:
		c.beginCLAttempt()
	default:
		panic(fmt.Sprintf("cpu: core %d invalid retry mode %v", c.id, c.retryMode))
	}
}

// beginSpeculative starts a plain HTM attempt (XBegin): check the fallback
// lock, subscribe to its line, set up discovery, and start executing.
func (c *Core) beginSpeculative() {
	if !c.m.Fallback.Free() {
		// Explicit Fallback abort: we wanted to start but the lock is
		// taken (§7's taxonomy). Counted once per waiting episode; the
		// retry counter is not incremented (fallback-type abort).
		if !c.waitedOnLock {
			c.waitedOnLock = true
			c.m.Stats.RecordAbort(htm.AbortExplicitFallback)
			if c.m.probe != nil {
				// The attempt never started, so no OnAttemptStart pairs
				// with this event; Mode stays idle and the §4.3 decision
				// is unchanged (the same retry mode re-runs once the lock
				// frees).
				c.m.probe.OnAttemptEnd(AttemptEndInfo{
					Core:            c.id,
					ProgID:          c.inv.Prog.ID,
					Attempt:         c.attempt,
					Mode:            c.mode,
					Reason:          htm.AbortExplicitFallback,
					ConflictRetries: c.conflictRetries,
					NextMode:        c.retryMode,
					Proposed:        c.retryMode,
				})
			}
		}
		// Jittered polling so the herd does not stampede when the lock
		// frees; the engine re-arms the poll until a release wakes it.
		c.engine().Park(c.id, c.m.Cfg.SpinInterval, c.rng, waitFree, c.beginAttemptFn)
		return
	}
	c.waitedOnLock = false
	c.resetAttemptState()
	c.mode = ModeSpeculative
	if c.m.probe != nil {
		c.m.probe.OnAttemptStart(c.id, ModeSpeculative, c.attempt, nil)
	}

	// Injected environmental abort (interrupt/TLB shootdown) on a first
	// speculative attempt: the transaction dies before executing.
	if c.m.fault != nil && c.attempt == 0 && c.m.fault.SpuriousAbort(c.id) {
		c.abortNow(htm.AbortSpurious)
		return
	}

	// PowerTM: a transaction that has aborted at least once tries to claim
	// the power token for its retry. An injected denial window models a
	// token arbiter that is momentarily unresponsive; the core simply runs
	// without priority, which the protocol must tolerate anyway.
	if c.m.Cfg.PowerTM && c.conflictRetries >= 1 && !c.power &&
		(c.m.fault == nil || !c.m.fault.DenyPowerClaim(c.id)) {
		if c.m.Power.TryClaim(c.id) {
			c.power = true
			c.m.Stats.PowerClaims++
		}
	}

	// Discovery runs on every invocation's speculative attempt unless the
	// ERT says the AR is not worth discovering (§4.1, §5.1). Retries that
	// come back to speculative mode re-run discovery too: the footprint
	// may differ between invocations but is re-learned each attempt.
	if c.m.Cfg.CLEAR {
		c.ertEntry = c.ert.Lookup(c.inv.Prog.ID)
		if c.ertEntry.DiscoveryEnabled() {
			c.disc.Begin()
		} else {
			c.disc.Disable()
		}
	} else {
		c.disc.Disable()
	}

	// Subscribe to the fallback lock line: its invalidation is how we learn
	// that some thread entered the fallback path. The line is hot in the L1
	// across transactions (only a fallback acquisition invalidates it), so
	// the subscription is usually a cache hit.
	c.readSet.Add(c.m.Fallback.Line)
	if c.l1.Access(c.m.Fallback.Line) {
		c.engine().Schedule(c.m.Cfg.Lat.L1Hit, c.stepFn)
		return
	}
	res := c.m.Dir.Read(c.id, c.m.Fallback.Line, coherence.ReqAttrs{})
	if res.Nacked || res.Retry {
		// Only reachable under fault injection (nothing locks or
		// prioritises the fallback line in normal operation). The
		// subscription did not register at the directory, so the attempt
		// must not proceed — a missed fallback invalidation would break
		// opacity. Treat it like any refused own-request.
		c.readSet.Remove(c.m.Fallback.Line)
		c.conflictOnOwnRequest()
		return
	}
	c.l1Insert(c.m.Fallback.Line)
	c.engine().Schedule(res.Latency, c.stepFn)
}

// tryStaticFootprint evaluates the invocation's footprint from its preset
// registers (isa.EvalFootprint); on success the ALT is pre-filled for an
// NS-CL-style fully-locked execution. It fails for ARs with indirections or
// footprints beyond the lockable window — the scope limitation of the
// multi-address atomic constructs the paper describes in §2.2.
func (c *Core) tryStaticFootprint() bool {
	var regs [isa.NumRegs]uint64
	for _, ri := range c.inv.Regs {
		regs[ri.Reg] = ri.Val
	}
	accesses, ok := isa.EvalFootprint(c.inv.Prog, regs)
	if !ok || len(accesses) == 0 || len(accesses) > c.disc.ALT.Cap() {
		return false
	}
	lines := make([]mem.LineAddr, len(accesses))
	for i, a := range accesses {
		lines[i] = a.Line
	}
	if !cache.FitsSimultaneously(c.m.Cfg.L1, lines) {
		return false
	}
	c.disc.ALT.Reset()
	for _, a := range accesses {
		c.disc.ALT.Record(a.Line, c.m.Dir.SetOf(a.Line), a.Written)
	}
	c.disc.ALT.FinalizeForMode(clear.RetryNSCL, nil)
	return true
}

// l1Insert makes line resident, translating a tracked-line eviction into the
// appropriate capacity signal for the current mode.
func (c *Core) l1Insert(line mem.LineAddr) {
	evicted, didEvict, ok := c.l1.Insert(line)
	if !ok {
		// Every way pinned: only reachable in CL modes, where discovery
		// guaranteed the footprint fits; treat as deviation.
		c.signalAbort(htm.AbortDeviation)
		return
	}
	if !didEvict {
		return
	}
	c.m.Dir.Evict(c.id, evicted)
	if c.readSet.Has(evicted) || c.writeSet.Has(evicted) {
		// A tracked line fell out of the private cache: the speculative
		// window is exhausted.
		c.readSet.Remove(evicted)
		c.writeSet.Remove(evicted)
		switch c.mode {
		case ModeSpeculative:
			c.signalAbort(htm.AbortCapacity)
		case ModeFailedDiscovery:
			c.disc.CacheOverflow = true
		}
	}
}

// trackTouched feeds the Figure 1 footprint instrumentation.
func (c *Core) trackTouched(line mem.LineAddr) {
	if c.touched.Len() <= fig1TrackLimit {
		c.touched.Add(line)
	}
}

// enterFailedMode converts a conflicted discovery attempt into failed-mode
// continuation: the abort signal is held and execution continues to the end
// of the AR so discovery can see the whole footprint (§4.1).
func (c *Core) enterFailedMode(reason htm.AbortReason) {
	c.heldReason = reason
	c.mode = ModeFailedDiscovery
	c.disc.Failed = true
	c.discStart = c.engine().Now()
	c.m.Stats.DiscoveryRuns++
}

// abortNow finalises an aborted attempt: bookkeeping, cleanup, retry-mode
// decision, and scheduling of the next attempt.
func (c *Core) abortNow(reason htm.AbortReason) {
	c.m.Stats.RecordAbort(reason)
	c.m.Stats.RecordAbortAR(c.inv.Prog.ID, c.inv.Prog.Name)
	c.m.Stats.AbortedInstructions += c.attemptInstr

	if c.mode == ModeFailedDiscovery {
		c.m.Stats.DiscoveryCycles += c.engine().Now() - c.discStart
	}

	// Release CL-mode resources.
	if c.mode == ModeSCL || c.mode == ModeNSCL {
		c.m.Dir.UnlockAll(c.id)
		c.unpinAll()
		c.releaseReadLock()
	}

	c.recordFig1Attempt(false)
	c.clearTxSets()

	if htm.CountsTowardRetryLimit(reason) {
		c.conflictRetries++
	}
	c.decideRetryMode(reason)
	mode, _ := c.mode.CommitMode()
	c.pol.OnAbort(policy.Outcome{
		ProgID:          c.inv.Prog.ID,
		Mode:            mode,
		ConflictRetries: c.conflictRetries,
	})
	if c.m.probe != nil {
		c.m.probe.OnAttemptEnd(AttemptEndInfo{
			Core:            c.id,
			ProgID:          c.inv.Prog.ID,
			Attempt:         c.attempt,
			Mode:            c.mode,
			Reason:          reason,
			PC:              c.pc,
			ConflictRetries: c.conflictRetries,
			NextMode:        c.retryMode,
			Proposed:        c.lastProposed,
			Backoff:         c.nextBackoff,
			Assessed:        c.lastAssessed,
			Assessment:      c.lastAssessment,
		})
	}
	// Discovery observation ends with the attempt; the ALT it learned stays
	// intact for the CL-mode lock walk but must not keep recording.
	c.disc.Disable()
	c.mode = ModeIdle
	c.attempt++
	c.engine().Schedule(c.m.Cfg.AbortPenalty+c.nextBackoff, c.beginAttemptFn)
}

// decideRetryMode computes the §4.3 proposal for the next attempt, runs it
// through the retry policy, and installs the final decision and backoff.
// The policy may accept the proposal or override it to fallback
// (serialization is always safe); any other override would either break the
// single-retry bound or start a lock walk with no learned footprint, so it
// is rejected here rather than trusted.
func (c *Core) decideRetryMode(reason htm.AbortReason) {
	proposed := c.proposeRetryMode(reason)
	c.lastProposed = proposed
	c.polCtx.ProgID = c.inv.Prog.ID
	c.polCtx.Attempt = c.attempt
	c.polCtx.ConflictRetries = c.conflictRetries
	c.polCtx.Reason = reason
	c.polCtx.Proposed = proposed
	c.polCtx.Assessed = c.lastAssessed
	c.polCtx.Assessment = c.lastAssessment
	d := c.pol.Decide(&c.polCtx)
	if d.Mode != proposed {
		if !policy.OverrideAllowed(proposed, d.Mode) {
			panic(fmt.Sprintf("cpu: core %d policy decided %v over §4.3 proposal %v (policies may only serialize)",
				c.id, d.Mode, proposed))
		}
		c.m.Stats.PolicyOverrides++
	}
	c.retryMode = d.Mode
	c.nextBackoff = d.Backoff
	c.m.Stats.PolicyBackoffTicks += uint64(d.Backoff)
}

// proposeRetryMode applies the §4.3 decision tree (Figure 2) for the next
// attempt, combining the discovery assessment with the abort context. This
// is the hardware mechanism's proposal — table updates (ERT convertibility,
// ALT finalization) happen here, mode selection is finalized by the policy.
func (c *Core) proposeRetryMode(reason htm.AbortReason) clear.RetryMode {
	c.lastAssessed = false
	c.lastAssessment = clear.Assessment{}
	if !c.m.Cfg.CLEAR {
		if reason == htm.AbortCapacity {
			// Speculative resources cannot support a retry (decision 0).
			return clear.RetryFallback
		}
		return clear.RetrySpeculative
	}

	switch c.mode {
	case ModeSpeculative:
		// Aborted without completing discovery (capacity, explicit abort,
		// fallback interference, or discovery disabled).
		switch reason {
		case htm.AbortCapacity:
			if c.ertEntry != nil {
				c.ertEntry.IsConvertible = false
			}
			return clear.RetryFallback
		case htm.AbortExplicit:
			// Non-memory-conflict abort: mark non-discoverable (§4.4.2).
			if c.ertEntry != nil {
				c.ertEntry.IsConvertible = false
			}
			return clear.RetrySpeculative
		default:
			return clear.RetrySpeculative
		}

	case ModeFailedDiscovery:
		a := c.disc.Assess(c.m.Cfg.L1)
		c.lastAssessed = true
		c.lastAssessment = a
		if c.ertEntry != nil {
			if c.disc.SQOverflow || c.disc.CacheOverflow || c.disc.ALT.Overflowed {
				// Assessment 1 failed: the AR does not fit the speculation
				// window; mark non-convertible.
				c.ertEntry.IsConvertible = false
			}
			c.ertEntry.IsImmutable = a.Immutable
		}
		if a.Mode == clear.RetrySCL || a.Mode == clear.RetryNSCL {
			if c.m.fault != nil && c.m.fault.ForceSecondSpecRetry(c.id) {
				// Planted bug (fault injection only): ignore the convertible
				// assessment and take a second plain speculative retry — the
				// exact bug class the single-retry invariant exists to catch.
				return clear.RetrySpeculative
			}
			c.disc.ALT.FinalizeForMode(c.effectiveCLMode(a.Mode), c.crt)
		}
		return a.Mode

	case ModeSCL:
		switch reason {
		case htm.AbortMemoryConflict:
			// The CRT learned the conflicting read; retry S-CL with the
			// wider lock set.
			c.disc.ALT.FinalizeForMode(clear.RetrySCL, c.crt)
			return clear.RetrySCL
		default:
			// Deviation or other non-conflict failure: the learned
			// footprint is stale; fall back to a plain speculative retry,
			// which re-runs discovery.
			return clear.RetrySpeculative
		}

	case ModeNSCL:
		if reason == htm.AbortMemoryConflict {
			// The lock walk was refused by a prioritised holder; the
			// learned footprint is still immutable, so NS-CL is retried
			// once the holder drains.
			return clear.RetryNSCL
		}
		// A deviation (immutability misprediction): rediscover.
		return clear.RetrySpeculative

	default:
		return clear.RetrySpeculative
	}
}

// effectiveCLMode applies the SCLLockAllReads ablation: when locking all
// reads, the S-CL lock set is computed like NS-CL's (every learned line).
func (c *Core) effectiveCLMode(m clear.RetryMode) clear.RetryMode {
	if m == clear.RetrySCL && c.m.Cfg.SCLLockAllReads {
		return clear.RetryNSCL
	}
	return m
}

// commitNow finishes a successful attempt, the counterpart of abortNow.
// The commit point comes first. A speculative or CL attempt's Halt step
// verified that no abort is pending, so its buffered stores become globally
// visible at once and its transactional sets are dropped: a remote request
// arriving during the drain delay must not abort an already-committed
// transaction. A CL attempt then releases its cacheline locks in bulk
// (§5.1) and its fallback read lock. A fallback execution's stores already
// reached memory, so its commit point is the write-lock release. The
// bookkeeping every mode shares follows, then the end of the invocation:
// after the drain latency, which only delays this core, or at once for a
// fallback execution.
func (c *Core) commitNow() {
	mode := c.mode
	kind, _ := mode.CommitMode()
	drain := c.m.Cfg.CommitStoreLat * sim.Tick(len(c.sq))
	// Discovery observation ends with the attempt.
	c.disc.Disable()
	if c.m.probe != nil {
		c.m.probe.OnCommit(CommitInfo{
			Core:            c.id,
			ProgID:          c.inv.Prog.ID,
			Attempt:         c.attempt,
			Mode:            mode,
			ConflictRetries: c.conflictRetries,
			// Nil for fallback: its stores wrote memory directly.
			StoreLines: c.storeLinesForProbe(),
		})
	}
	if mode == ModeFallback {
		c.m.Fallback.ReleaseWrite(c.id)
		c.m.wakeLockWaiters()
	} else {
		c.applySQ()
		c.clearTxSets()
		if mode != ModeSpeculative {
			// Consume the CRT hints this execution used: the conflicts
			// they guarded against did not recur.
			for _, e := range c.disc.ALT.Entries() {
				if e.NeedsLocking && !e.Written {
					c.crt.Remove(e.Addr)
				}
			}
			c.m.Dir.UnlockAll(c.id)
			c.unpinAll()
		}
		c.mode = ModeIdle
		c.releaseReadLock()
		if c.power {
			c.m.Power.Release(c.id)
			c.power = false
		}
		if c.ertEntry != nil {
			c.ertEntry.NoteCommit()
		}
	}
	c.pol.OnCommit(policy.Outcome{
		ProgID:          c.inv.Prog.ID,
		Mode:            kind,
		ConflictRetries: c.conflictRetries,
	})
	c.m.Stats.Instructions += c.attemptInstr
	c.m.Stats.RecordCommit(kind, c.conflictRetries)
	if kind != stats.CommitSpeculative {
		// The per-AR table leaves speculative commits out. It is part of
		// Stats.Digest, so counting them moves every digest and waits for
		// the next DigestSchemaVersion.
		c.m.Stats.RecordCommitAR(c.inv.Prog.ID, c.inv.Prog.Name, kind)
	}
	c.recordFig1Attempt(true)
	if mode == ModeFallback {
		c.finishInvocation()
		return
	}
	c.engine().Schedule(drain, c.finishInvFn)
}

// clearTxSets drops the transactional read/write sets so remote requests no
// longer treat this core as a conflicting holder.
func (c *Core) clearTxSets() {
	c.readSet.Clear()
	c.writeSet.Clear()
}

// applySQ drains the store queue to memory in program order.
func (c *Core) applySQ() {
	for _, s := range c.sq {
		c.m.Mem.WriteWord(s.addr, s.val)
	}
	c.sq = c.sq[:0]
}

func (c *Core) finishInvocation() {
	c.m.Stats.RecordLatency(c.engine().Now() - c.invStart)
	c.mode = ModeIdle
	c.engine().Schedule(1, c.nextInvocationFn)
}

// recordFig1Attempt updates the Figure 1 footprint-pair instrumentation at
// the end of an attempt. The first aborted attempt captures the reference
// footprint; the immediately following attempt completes the pair.
func (c *Core) recordFig1Attempt(committed bool) {
	switch c.attempt {
	case 0:
		if !committed {
			c.fig1First.Clear()
			for _, l := range c.touched.Lines() {
				c.fig1First.Add(l)
			}
			c.fig1HasFirst = true
		}
	case 1:
		if !c.fig1HasFirst || c.fig1First.Len() == 0 || c.fig1HasRetry {
			// No reference footprint: the first attempt aborted before
			// touching memory (e.g. a fallback-lock invalidation at
			// XBegin); such pairs say nothing about mutability.
			return
		}
		c.fig1Retry.Clear()
		for _, l := range c.touched.Lines() {
			c.fig1Retry.Add(l)
		}
		c.fig1HasRetry = true
		c.m.Stats.RetryPairs++
		if c.fig1PairImmutable(committed) {
			c.m.Stats.ImmutableSmallPairs++
		}
	}
}

// fig1PairImmutable decides whether the (first attempt, first retry) pair
// shows a small, unchanged footprint: at most 32 lines, and the retry
// touched exactly the same lines (when the retry ran to completion) or a
// subset (when it aborted part-way, the strongest property observable).
func (c *Core) fig1PairImmutable(retryCompleted bool) bool {
	if c.fig1First.Len() > clear.ALTEntries || c.fig1First.Len() == 0 {
		return false
	}
	subset := true
	c.fig1Retry.ForEach(func(l mem.LineAddr) {
		if !c.fig1First.Has(l) {
			subset = false
		}
	})
	if !subset {
		return false
	}
	if retryCompleted && c.fig1Retry.Len() != c.fig1First.Len() {
		return false
	}
	return true
}

func (c *Core) unpinAll() {
	for _, e := range c.disc.ALT.Entries() {
		if c.l1.Pinned(e.Addr) {
			c.l1.Unpin(e.Addr)
		}
	}
}
