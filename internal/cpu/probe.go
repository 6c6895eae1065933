package cpu

import (
	clear "repro/internal/core"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Probe receives read-only notifications at the control points of every
// atomic-region invocation: attempt starts, aborts (with the retry-mode
// decision that was taken), commits (with the lines the commit is about to
// make globally visible), completed memory operations, and holder-side
// conflict detections.
//
// It exists for the runtime invariant oracle (internal/check) and the
// structured event tracer (internal/trace). All calls are synchronous, on
// the simulation's event path; a probe must not mutate machine state,
// consult the RNG, or schedule events, or it would perturb the run it is
// observing. A nil probe (the default) costs one pointer comparison per
// notification site; multiple probes fan out through AddProbe.
type Probe interface {
	// OnInvocationStart fires when a core dequeues a new invocation, before
	// its first attempt is scheduled.
	OnInvocationStart(core int, progID int)
	// OnAttemptStart fires when an attempt actually begins executing:
	// speculative (after the fallback-lock gate), CL (before the lock
	// walk), or fallback (after the write lock is announced). footprint is
	// the ALT snapshot a CL attempt will lock/execute against (nil
	// otherwise); like CommitInfo.StoreLines it is scratch valid only for
	// the duration of the callback — probes that retain it must copy.
	OnAttemptStart(core int, mode Mode, attempt int, footprint []mem.LineAddr)
	// OnAttemptEnd fires when an attempt aborts, after the retry-mode
	// decision for the next attempt has been taken.
	OnAttemptEnd(info AttemptEndInfo)
	// OnCommit fires at the commit point of an attempt, before the store
	// queue drains to memory and before CL locks are released — the oracle
	// can still observe ownership/locks covering the committing stores.
	OnCommit(info CommitInfo)
	// OnMemAccess fires when a load or store completes (after its latency;
	// the access is architecturally part of the attempt). value is the
	// loaded (isWrite=false) or stored (isWrite=true) word.
	OnMemAccess(core int, addr mem.Addr, value uint64, isWrite bool, mode Mode)
	// OnConflict fires on the holder side when an incoming remote request
	// conflicts with this core's transactional read/write set, before the
	// mode-specific resolution policy (yield/nack/failed-mode) runs.
	OnConflict(core int, line mem.LineAddr, isWrite bool, requester int)
}

// AttemptEndInfo describes one aborted attempt and the decision taken for
// the next one.
type AttemptEndInfo struct {
	Core    int
	ProgID  int
	Attempt int
	// Mode is the execution mode the attempt was in when it aborted.
	Mode Mode
	// Reason is the abort reason recorded in the statistics.
	Reason htm.AbortReason
	// PC is the interpreter's program counter at the abort point (the
	// instruction-level context the old text tracer printed).
	PC int
	// ConflictRetries is the post-abort conflict-counted retry total.
	ConflictRetries int
	// NextMode is the final decision for the next attempt — the retry
	// policy's answer (internal/policy).
	NextMode clear.RetryMode
	// Proposed is the §4.3 mechanism proposal the policy decided over;
	// Proposed != NextMode marks a policy override (always a serialization:
	// policies may only strengthen to fallback). The synthetic
	// busy-fallback-lock attempt-end takes no new decision and reports
	// Proposed == NextMode.
	Proposed clear.RetryMode
	// Backoff is the policy's backoff delay inserted before the next
	// attempt, on top of the fixed abort penalty.
	Backoff sim.Tick
	// Assessed is true when this abort ran the discovery assessment
	// (failed-mode discovery completed); Assessment is then valid.
	Assessed   bool
	Assessment clear.Assessment
}

// CommitInfo describes one committing attempt at its commit point.
type CommitInfo struct {
	Core    int
	ProgID  int
	Attempt int
	// Mode is the execution mode that committed.
	Mode Mode
	// ConflictRetries is the invocation's conflict-counted retry total.
	ConflictRetries int
	// StoreLines lists the distinct cachelines of the buffered stores about
	// to drain (commit order, first occurrence). Nil for fallback commits:
	// fallback stores write memory directly. The slice is scratch reused
	// across commits — valid only for the duration of the callback; probes
	// that retain it must copy.
	StoreLines []mem.LineAddr
}

// AddProbe attaches p alongside any probe already installed: notifications
// fan out to every attached probe in attachment order. Detached machines
// keep paying only the single nil comparison; a solo probe is called
// directly with no tee indirection.
func (m *Machine) AddProbe(p Probe) {
	if p == nil {
		return
	}
	if m.probe == nil {
		m.probe = p
		return
	}
	m.probe = &teeProbe{a: m.probe, b: p}
}

// teeProbe fans probe notifications out to two probes (chains of AddProbe
// calls build a right-leaning tree of tees).
type teeProbe struct{ a, b Probe }

func (t *teeProbe) OnInvocationStart(core int, progID int) {
	t.a.OnInvocationStart(core, progID)
	t.b.OnInvocationStart(core, progID)
}

func (t *teeProbe) OnAttemptStart(core int, mode Mode, attempt int, footprint []mem.LineAddr) {
	t.a.OnAttemptStart(core, mode, attempt, footprint)
	t.b.OnAttemptStart(core, mode, attempt, footprint)
}

func (t *teeProbe) OnAttemptEnd(info AttemptEndInfo) {
	t.a.OnAttemptEnd(info)
	t.b.OnAttemptEnd(info)
}

func (t *teeProbe) OnCommit(info CommitInfo) {
	t.a.OnCommit(info)
	t.b.OnCommit(info)
}

func (t *teeProbe) OnMemAccess(core int, addr mem.Addr, value uint64, isWrite bool, mode Mode) {
	t.a.OnMemAccess(core, addr, value, isWrite, mode)
	t.b.OnMemAccess(core, addr, value, isWrite, mode)
}

func (t *teeProbe) OnConflict(core int, line mem.LineAddr, isWrite bool, requester int) {
	t.a.OnConflict(core, line, isWrite, requester)
	t.b.OnConflict(core, line, isWrite, requester)
}

// storeLinesForProbe collects the distinct lines of the core's buffered
// stores, in first-store order, into the core's reusable scratch slice
// (CommitInfo.StoreLines is callback-scoped). Only called when a probe is
// installed.
func (c *Core) storeLinesForProbe() []mem.LineAddr {
	if len(c.sq) == 0 {
		return nil
	}
	lines := c.probeLines[:0]
	for _, s := range c.sq {
		line := s.addr.Line()
		dup := false
		for _, l := range lines {
			if l == line {
				dup = true
				break
			}
		}
		if !dup {
			lines = append(lines, line)
		}
	}
	c.probeLines = lines
	return lines
}

// altLinesForProbe snapshots the ALT footprint for a CL attempt start into
// the same callback-scoped scratch slice storeLinesForProbe uses (the two
// are never live at once: attempt start and commit are distinct callbacks).
func (c *Core) altLinesForProbe() []mem.LineAddr {
	entries := c.disc.ALT.Entries()
	if len(entries) == 0 {
		return nil
	}
	lines := c.probeLines[:0]
	for _, e := range entries {
		lines = append(lines, e.Addr)
	}
	c.probeLines = lines
	return lines
}
