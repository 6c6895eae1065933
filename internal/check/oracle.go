// Package check implements the opt-in runtime invariant oracle for the
// simulated CLEAR machine. Attached to a cpu.Machine, it observes every
// directory transition (through coherence.Observer) and every atomic-region
// attempt boundary (through cpu.Probe) and asserts five properties on each:
//
//  1. MESI consistency: single writer, lockedBy==owner while locked, the
//     requester registered after every successful access, and every line a
//     commit makes globally visible held with the exclusivity its mode
//     requires — at the commit point, before the store queue drains.
//  2. Lock-order discipline: NS-CL/S-CL cacheline locks acquired in
//     non-decreasing lexicographic (directory set, line) order, and no cycle
//     in the waits-for graph of lock acquisitions (deadlock freedom).
//  3. The single-retry bound: once discovery assesses an AR convertible, the
//     next attempt takes the assessed CL path (or the fallback override) —
//     never a second plain speculative re-execution.
//  4. Footprint immutability: an NS-CL re-execution touches exactly the
//     lines discovery learned.
//  5. Liveness: while invocations are in flight, some core commits within
//     every LivelockWindow ticks. Check samples it between event slices.
//
// The oracle is read-only and digest-transparent: it never mutates machine
// state, consults no RNG, and its periodic full-state audits ride the event
// engine without changing any event's timing — an oracle-enabled run
// produces bit-identical statistics to an oracle-free one (the determinism
// tests assert this). When no oracle is attached, every notification site in
// cpu and coherence costs one nil pointer comparison.
package check

import (
	"fmt"
	"sort"

	"repro/internal/coherence"
	clear "repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// DefaultAuditPeriod is the tick period of the full-state directory audits.
const DefaultAuditPeriod sim.Tick = 2048

// MaxRecordedViolations bounds how many violations keep their full message;
// further ones only increment the counter.
const MaxRecordedViolations = 64

// LivelockWindow is the liveness bound: a run with invocations in flight
// must commit at least once in every window of this many ticks — two orders
// of magnitude above any commit gap observed in the baseline sweeps.
const LivelockWindow sim.Tick = 3_000_000

// CheckEvery is the tick period at which a guarded run pauses between event
// slices to call Check.
const CheckEvery sim.Tick = 200_000

// Report is what the oracle measures that the run statistics do not.
type Report struct {
	// MaxConflictRetries is the worst conflict-counted retry total observed
	// at any commit.
	MaxConflictRetries int
	// MaxCommitLatency is the worst invocation-start-to-commit latency.
	MaxCommitLatency sim.Tick
}

// Commit is one entry of the oracle's commit log: the serialization order
// the differential fuzz checker replays.
type Commit struct {
	Tick   sim.Tick
	Core   int
	ProgID int
	Mode   cpu.Mode
}

// coreState is the oracle's shadow state for one core.
type coreState struct {
	mode    cpu.Mode
	attempt int

	// converted: discovery assessed the current invocation convertible; a
	// plain speculative attempt must not start while set.
	converted bool
	// expectNext/haveExpect: the §4.3 decision recorded at the last abort,
	// to be matched by the next attempt start.
	expectNext clear.RetryMode
	haveExpect bool

	// Lock-order tracking within one CL attempt.
	haveLock bool
	lastSet  int
	lastLine mem.LineAddr

	// Waits-for edge: the line this core's lock walk is spinning on.
	waiting   bool
	waitingOn mem.LineAddr

	// NS-CL footprint bookkeeping.
	footprint map[mem.LineAddr]bool
	touched   map[mem.LineAddr]bool

	// Liveness and latency: an invocation is in flight from its start to
	// its commit.
	inFlight bool
	invStart sim.Tick
}

// Oracle is the runtime invariant checker. Create with Attach; inspect with
// Err/Violations/CommitLog after the run.
type Oracle struct {
	m            *cpu.Machine
	dir          *coherence.Directory
	holdOnLocked bool

	auditPeriod sim.Tick
	auditFn     sim.Event

	cores     []coreState
	commitLog []Commit

	// active counts invocations in flight; lastProgress is the tick of the
	// last commit (or of the first invocation start, before any commit).
	active       int
	lastProgress sim.Tick
	report       Report

	violations []Violation
	total      int
}

// Attach wires an oracle into m through the AddProbe/AddObserver tee seams
// and schedules the first periodic audit. Call before Machine.Run (or
// RunGuarded with Check as the guard); call Finish after.
func Attach(m *cpu.Machine) *Oracle {
	o := &Oracle{
		m:            m,
		dir:          m.Dir,
		holdOnLocked: m.Dir.Config().HoldOnLocked,
		auditPeriod:  DefaultAuditPeriod,
		cores:        make([]coreState, m.Cfg.Cores),
	}
	for i := range o.cores {
		o.cores[i].footprint = make(map[mem.LineAddr]bool)
		o.cores[i].touched = make(map[mem.LineAddr]bool)
	}
	o.auditFn = m.Engine.Register(o.audit)
	m.AddProbe(o)
	m.Dir.AddObserver(o)
	m.Engine.Schedule(o.auditPeriod, o.auditFn)
	return o
}

func (o *Oracle) fail(prop string, core int, format string, args ...any) {
	o.total++
	if len(o.violations) < MaxRecordedViolations {
		o.violations = append(o.violations, Violation{
			Tick:     o.m.Engine.Now(),
			Property: prop,
			Core:     core,
			Msg:      fmt.Sprintf(format, args...),
		})
	}
}

// Violations returns the recorded violations (capped at
// MaxRecordedViolations; ViolationCount has the true total).
func (o *Oracle) Violations() []Violation { return o.violations }

// ViolationCount returns how many violations were observed in total.
func (o *Oracle) ViolationCount() int { return o.total }

// CommitLog returns the observed commit order (the serialization witness).
func (o *Oracle) CommitLog() []Commit { return o.commitLog }

// Report returns the worst-case retry count and commit latency seen so far.
func (o *Oracle) Report() Report { return o.report }

// Check is the guard for Machine.RunGuarded: it samples the liveness
// property and returns Err, so any violation — of any property — stops the
// run at the next slice boundary. A run that already has a violation is
// stopping, so a livelock is reported only when nothing else was.
func (o *Oracle) Check() error {
	if gap := o.m.Engine.Now() - o.lastProgress; o.total == 0 && o.active > 0 && gap > LivelockWindow {
		o.fail(PropLiveness, -1, "livelock: no commit for %d ticks with %d invocations in flight", gap, o.active)
	}
	return o.Err()
}

// Err returns nil when no invariant was violated, else an error naming the
// first violation and the total count.
func (o *Oracle) Err() error {
	if o.total == 0 {
		return nil
	}
	return fmt.Errorf("check: %d invariant violation(s); first: %s", o.total, o.violations[0])
}

// ---------------------------------------------------------------------------
// coherence.Observer

// OnAccess checks the post-state of every directory read/write transaction.
func (o *Oracle) OnAccess(core int, line mem.LineAddr, isWrite bool, attrs coherence.ReqAttrs, res coherence.AccessResult) {
	if attrs.FailedMode {
		// Failed-mode discovery requests are non-registering by design.
		return
	}
	o.checkLine(line)
	if res.Nacked || res.Retry {
		return
	}
	if o.holdOnLocked {
		// HoldOnLocked parks refused requests with a success-shaped result;
		// registration checks do not apply to that (test-only) design.
		return
	}
	if lb := o.dir.LockedBy(line); lb >= 0 && lb != core {
		o.fail(PropMESI, core, "access to %s succeeded while locked by core %d", line, lb)
	}
	if isWrite {
		if own := o.dir.Owner(line); own != core {
			o.fail(PropMESI, core, "write to %s succeeded but owner is %d", line, own)
		}
	} else {
		if o.dir.Owner(line) != core && !o.dir.Sharers(line).Has(core) {
			o.fail(PropMESI, core, "read of %s succeeded but core is neither owner nor sharer", line)
		}
	}
}

// OnLock checks lock-order discipline and waits-for acyclicity on every
// cacheline-lock acquisition.
func (o *Oracle) OnLock(core int, line mem.LineAddr, res coherence.LockResult) {
	cs := &o.cores[core]
	if res.Retry {
		// The walk spins on a lock held elsewhere: record the waits-for edge
		// and look for a cycle through current lock holders.
		cs.waiting = true
		cs.waitingOn = line
		o.checkWaitCycle(core, line)
		return
	}
	cs.waiting = false
	if res.Nacked {
		return
	}
	if lb := o.dir.LockedBy(line); lb != core {
		o.fail(PropMESI, core, "lock of %s succeeded but lockedBy is %d", line, lb)
	}
	if own := o.dir.Owner(line); own != core {
		o.fail(PropMESI, core, "lock of %s succeeded but owner is %d", line, own)
	}
	s := o.dir.SetOf(line)
	if cs.haveLock && (s < cs.lastSet || (s == cs.lastSet && line < cs.lastLine)) {
		o.fail(PropLockOrder, core,
			"lock of %s (set %d) acquired after %s (set %d): lexicographic order broken",
			line, s, cs.lastLine, cs.lastSet)
	}
	cs.haveLock = true
	cs.lastSet = s
	cs.lastLine = line
}

// checkWaitCycle follows holder->waiting edges from the lock core is
// spinning on; reaching core again means a wait cycle (a deadlock the
// lexicographic order should make impossible).
func (o *Oracle) checkWaitCycle(core int, line mem.LineAddr) {
	var chain []int // waiting holders between core and the closing edge
	cur := o.dir.LockedBy(line)
	for hops := 0; cur >= 0 && hops < len(o.cores); hops++ {
		if cur == core {
			o.fail(PropLockOrder, core, "waits-for cycle among cores %v through lock on %s",
				append([]int{core}, chain...), line)
			return
		}
		h := &o.cores[cur]
		if !h.waiting {
			return
		}
		chain = append(chain, cur)
		cur = o.dir.LockedBy(h.waitingOn)
	}
}

// OnUnlock checks the lock actually cleared.
func (o *Oracle) OnUnlock(core int, line mem.LineAddr) {
	if lb := o.dir.LockedBy(line); lb == core {
		o.fail(PropMESI, core, "unlock of %s left lockedBy unchanged", line)
	}
}

// OnEvict checks the core really left the line's holder sets.
func (o *Oracle) OnEvict(core int, line mem.LineAddr) {
	if o.dir.Owner(line) == core || o.dir.Sharers(line).Has(core) {
		o.fail(PropMESI, core, "evict of %s left the core registered", line)
	}
}

// checkLine asserts the per-line MESI invariants on the current state.
func (o *Oracle) checkLine(line mem.LineAddr) {
	own := o.dir.Owner(line)
	if own >= 0 && !o.dir.Sharers(line).Empty() {
		o.fail(PropMESI, own, "line %s owned exclusively but sharer bitset %v non-empty",
			line, o.dir.Sharers(line))
	}
	if lb := o.dir.LockedBy(line); lb >= 0 && own != lb {
		o.fail(PropMESI, lb, "line %s locked by core %d but owned by %d", line, lb, own)
	}
}

// ---------------------------------------------------------------------------
// cpu.Probe

// OnInvocationStart resets the per-invocation shadow state and, for the
// first work of the run, opens the liveness window.
func (o *Oracle) OnInvocationStart(core int, progID int) {
	cs := &o.cores[core]
	now := o.m.Engine.Now()
	if !cs.inFlight {
		o.active++
	}
	cs.inFlight = true
	cs.invStart = now
	if o.active == 1 && len(o.commitLog) == 0 {
		o.lastProgress = now
	}
	cs.converted = false
	cs.haveExpect = false
	cs.waiting = false
	cs.haveLock = false
	cs.mode = cpu.ModeIdle
}

// OnAttemptStart checks the attempt against the recorded §4.3 decision and
// the single-retry bound, and snapshots the CL footprint.
func (o *Oracle) OnAttemptStart(core int, mode cpu.Mode, attempt int, footprint []mem.LineAddr) {
	cs := &o.cores[core]
	cs.mode = mode
	cs.attempt = attempt
	cs.haveLock = false
	cs.waiting = false
	clearLineSet(cs.touched)
	clearLineSet(cs.footprint)
	for _, l := range footprint {
		cs.footprint[l] = true
	}

	if mode == cpu.ModeSpeculative && cs.converted {
		o.fail(PropSingleRetry, core,
			"attempt %d began a second plain speculative re-execution after a convertible discovery assessment", attempt)
	}
	if cs.haveExpect {
		if want, ok := modeFor(cs.expectNext); ok && mode != want && mode != cpu.ModeFallback {
			// The fallback override (retry budget exhausted) is always
			// legal; anything else must honour the recorded decision.
			o.fail(PropSingleRetry, core,
				"attempt %d began in mode %v but the §4.3 decision was %v", attempt, mode, cs.expectNext)
		}
		cs.haveExpect = false
	}
}

// modeFor maps a retry decision to the execution mode that honours it.
func modeFor(m clear.RetryMode) (cpu.Mode, bool) {
	switch m {
	case clear.RetrySpeculative:
		return cpu.ModeSpeculative, true
	case clear.RetrySCL:
		return cpu.ModeSCL, true
	case clear.RetryNSCL:
		return cpu.ModeNSCL, true
	case clear.RetryFallback:
		return cpu.ModeFallback, true
	}
	return cpu.ModeIdle, false
}

// OnAttemptEnd cross-checks the retry decision against the discovery
// assessment and updates the single-retry shadow state.
func (o *Oracle) OnAttemptEnd(info cpu.AttemptEndInfo) {
	cs := &o.cores[info.Core]
	cs.waiting = false
	cs.haveLock = false
	cs.mode = cpu.ModeIdle

	assessedCL := info.Assessed &&
		(info.Assessment.Mode == clear.RetrySCL || info.Assessment.Mode == clear.RetryNSCL)
	if assessedCL && info.NextMode == clear.RetrySpeculative {
		// The direct decision-tree check: a convertible assessment followed
		// by a plain speculative retry is exactly the bug class
		// fault.Plan.SecondSpecRetryRate plants.
		o.fail(PropSingleRetry, info.Core,
			"discovery assessed the AR convertible (%v) but the next attempt is speculative", info.Assessment.Mode)
	}
	if assessedCL {
		cs.converted = true
	} else if (info.Mode == cpu.ModeSCL || info.Mode == cpu.ModeNSCL) &&
		info.NextMode == clear.RetrySpeculative {
		// A CL attempt failed for a non-conflict reason (deviation, explicit
		// abort): the learned footprint is stale and rediscovery is the
		// legal §4.3 answer.
		cs.converted = false
	}
	cs.expectNext = info.NextMode
	cs.haveExpect = true
}

// OnMemAccess checks NS-CL accesses stay inside the discovered footprint.
func (o *Oracle) OnMemAccess(core int, addr mem.Addr, value uint64, isWrite bool, mode cpu.Mode) {
	if mode != cpu.ModeNSCL {
		return
	}
	line := addr.Line()
	cs := &o.cores[core]
	cs.touched[line] = true
	if !cs.footprint[line] {
		o.fail(PropFootprint, core,
			"NS-CL re-execution completed an access to %s outside the discovered footprint", line)
	}
}

// OnConflict is informational (the tracer's event); the oracle's conflict
// reasoning happens at the directory post-states and attempt boundaries.
func (o *Oracle) OnConflict(core int, line mem.LineAddr, isWrite bool, requester int) {}

// OnCommit checks exclusivity of the committing stores and, for NS-CL, that
// the re-execution touched exactly the discovered footprint; it also appends
// the commit to the serialization log and closes the liveness window.
func (o *Oracle) OnCommit(info cpu.CommitInfo) {
	cs := &o.cores[info.Core]
	now := o.m.Engine.Now()
	for _, line := range info.StoreLines {
		switch info.Mode {
		case cpu.ModeSpeculative:
			if o.dir.Owner(line) != info.Core {
				o.fail(PropMESI, info.Core,
					"speculative commit drains a store to %s without exclusive ownership", line)
			}
		case cpu.ModeSCL:
			if o.dir.Owner(line) != info.Core && o.dir.LockedBy(line) != info.Core {
				o.fail(PropMESI, info.Core,
					"S-CL commit drains a store to %s neither owned nor locked", line)
			}
		case cpu.ModeNSCL:
			if o.dir.LockedBy(line) != info.Core {
				o.fail(PropMESI, info.Core,
					"NS-CL commit drains a store to %s that is not cacheline-locked", line)
			}
		}
	}
	if info.Mode == cpu.ModeNSCL {
		for l := range cs.footprint {
			if !cs.touched[l] {
				o.fail(PropFootprint, info.Core,
					"discovered footprint line %s never touched by the NS-CL re-execution", l)
			}
		}
	}
	o.commitLog = append(o.commitLog, Commit{
		Tick:   now,
		Core:   info.Core,
		ProgID: info.ProgID,
		Mode:   info.Mode,
	})
	if info.ConflictRetries > o.report.MaxConflictRetries {
		o.report.MaxConflictRetries = info.ConflictRetries
	}
	if cs.inFlight {
		if lat := now - cs.invStart; lat > o.report.MaxCommitLatency {
			o.report.MaxCommitLatency = lat
		}
		cs.inFlight = false
		o.active--
	}
	o.lastProgress = now
	cs.converted = false
	cs.haveExpect = false
	cs.waiting = false
	cs.haveLock = false
	cs.mode = cpu.ModeIdle
}

// ---------------------------------------------------------------------------
// Periodic audit and end-of-run checks

// audit sweeps the whole directory and the machine-global locks. It
// reschedules itself; the extra events only consume engine sequence numbers
// and change no observable statistic.
func (o *Oracle) audit() {
	lines := make([]coherence.LineState, 0, 64)
	o.dir.ForEachLine(func(ls coherence.LineState) { lines = append(lines, ls) })
	sort.Slice(lines, func(i, j int) bool { return lines[i].Line < lines[j].Line })

	locked := 0
	for _, ls := range lines {
		if ls.Owner >= 0 && !ls.Sharers.Empty() {
			o.fail(PropMESI, ls.Owner, "audit: line %s owned exclusively with sharers %v", ls.Line, ls.Sharers)
		}
		if ls.LockedBy >= 0 {
			locked++
			if ls.Owner != ls.LockedBy {
				o.fail(PropMESI, ls.LockedBy, "audit: line %s locked by %d but owned by %d", ls.Line, ls.LockedBy, ls.Owner)
			}
		}
	}
	if locked != o.dir.LockedLines() {
		o.fail(PropMESI, -1, "audit: %d lines observed locked but LockedLines()=%d", locked, o.dir.LockedLines())
	}
	for core := range o.cores {
		for _, l := range o.dir.HeldLocks(core) {
			if o.dir.LockedBy(l) != core {
				o.fail(PropMESI, core, "audit: held-locks list has %s but lockedBy=%d", l, o.dir.LockedBy(l))
			}
		}
	}
	if o.m.Fallback.WriterHeld() && !o.m.Fallback.Readers().Empty() {
		o.fail(PropLockOrder, o.m.Fallback.Writer(),
			"audit: fallback write lock held while readers %v remain", o.m.Fallback.Readers())
	}
	o.m.Engine.Schedule(o.auditPeriod, o.auditFn)
}

// Finish runs the end-of-run checks (call after Machine.Run returns): all
// cacheline locks released, fallback lock free, power token free.
func (o *Oracle) Finish() {
	if n := o.dir.LockedLines(); n != 0 {
		o.fail(PropMESI, -1, "run ended with %d cacheline locks still held", n)
	}
	if o.m.Fallback.WriterHeld() || !o.m.Fallback.Readers().Empty() {
		o.fail(PropLockOrder, -1, "run ended with the fallback lock held (writer=%d readers=%v)",
			o.m.Fallback.Writer(), o.m.Fallback.Readers())
	}
	if o.m.Power.Held() {
		o.fail(PropMESI, o.m.Power.Holder(), "run ended with the power token held")
	}
}

// clearLineSet empties a line-set map in place, reusing its buckets.
func clearLineSet(m map[mem.LineAddr]bool) {
	for k := range m {
		delete(m, k)
	}
}
