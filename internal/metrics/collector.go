package metrics

import (
	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// numReasons is the size of the per-reason abort counter array: the named
// enum plus one catch-all slot for out-of-range reasons.
const numReasons = int(htm.NumAbortReasons) + 1

// reasonOverflow is the catch-all slot index.
const reasonOverflow = numReasons - 1

// Instruments is the standard instrument set a simulation run feeds: the
// paper's contention vocabulary (attempt durations by outcome, lock-wait
// time, CL footprint size, NACK bursts, retry-to-commit latency) plus the
// raw event counters. All series live in one Registry and are created at
// most once per registry (Registry.Instruments), so many concurrent runs
// aggregate into the same series.
type Instruments struct {
	RunsStarted  *Counter
	RunsFinished *Counter
	ActiveRuns   *Gauge

	Invocations *Counter
	Attempts    *Counter
	Commits     [stats.NumCommitModes]*Counter
	Aborts      [numReasons]*Counter
	Conflicts   *Counter
	MemLoads    *Counter
	MemStores   *Counter

	LockAcquires *Counter
	LockRetries  *Counter
	LockNacks    *Counter
	Unlocks      *Counter
	Evicts       *Counter
	DirAccesses  *Counter
	DirNacks     *Counter

	// AttemptTicks is the attempt duration distribution, split by outcome.
	AttemptTicksCommit *Histogram
	AttemptTicksAbort  *Histogram
	// InvocationTicks is first-attempt-start to commit (the paper's
	// invocation latency; tails show retry and fallback serialisation).
	InvocationTicks *Histogram
	// RetryToCommitTicks is first-abort to commit, observed only for
	// invocations that aborted at least once: the direct cost of the
	// single-retry bound.
	RetryToCommitTicks *Histogram
	// LockWaitTicks is the duration of one cacheline-lock wait edge
	// (first Retry to acquisition, NACK, or attempt end).
	LockWaitTicks *Histogram
	// FootprintLines is the CL footprint size announced at S-CL/NS-CL
	// attempt starts.
	FootprintLines *Histogram
	// NackBurst is the length of a run of consecutive lock NACKs a core
	// absorbed before succeeding or ending the attempt.
	NackBurst *Histogram

	// PolicyOverrides counts aborts whose retry policy overrode the §4.3
	// mechanism proposal (always a serialization to fallback).
	PolicyOverrides *Counter
	// PolicyBackoffTicks is the distribution of non-zero policy backoff
	// delays inserted before retries (on top of the fixed abort penalty).
	PolicyBackoffTicks *Histogram
}

// Instruments returns the registry's standard instrument set, creating the
// series on first use (idempotent; safe for concurrent callers).
func (r *Registry) Instruments() *Instruments {
	r.instOnce.Do(func() { r.inst = newInstruments(r) })
	return r.inst
}

func newInstruments(r *Registry) *Instruments {
	ins := &Instruments{
		RunsStarted:  r.Counter("clear_runs_started_total", "Simulation runs begun with this registry attached."),
		RunsFinished: r.Counter("clear_runs_finished_total", "Simulation runs completed."),
		ActiveRuns:   r.Gauge("clear_active_runs", "Simulation runs currently executing."),
		Invocations:  r.Counter("clear_invocations_total", "AR invocations dequeued."),
		Attempts:     r.Counter("clear_attempts_total", "AR attempts started."),
		Conflicts:    r.Counter("clear_conflicts_total", "Holder-side transactional conflicts."),
		MemLoads:     r.Counter("clear_mem_ops_total", "Completed memory operations.", Label{"kind", "load"}),
		MemStores:    r.Counter("clear_mem_ops_total", "Completed memory operations.", Label{"kind", "store"}),
		LockAcquires: r.Counter("clear_lock_events_total", "Cacheline-lock protocol events.", Label{"outcome", "ok"}),
		LockRetries:  r.Counter("clear_lock_events_total", "Cacheline-lock protocol events.", Label{"outcome", "retry"}),
		LockNacks:    r.Counter("clear_lock_events_total", "Cacheline-lock protocol events.", Label{"outcome", "nack"}),
		Unlocks:      r.Counter("clear_unlocks_total", "Cacheline-lock releases."),
		Evicts:       r.Counter("clear_evicts_total", "L1 sharer/owner evictions."),
		DirAccesses:  r.Counter("clear_dir_accesses_total", "Directory read/write transactions."),
		DirNacks:     r.Counter("clear_dir_nacks_total", "Directory transactions refused by a prioritised holder."),

		AttemptTicksCommit: r.Histogram("clear_attempt_ticks", "Attempt duration in ticks.", Label{"outcome", "commit"}),
		AttemptTicksAbort:  r.Histogram("clear_attempt_ticks", "Attempt duration in ticks.", Label{"outcome", "abort"}),
		InvocationTicks:    r.Histogram("clear_invocation_ticks", "Invocation latency (first attempt start to commit) in ticks."),
		RetryToCommitTicks: r.Histogram("clear_retry_to_commit_ticks", "First abort to commit in ticks (retried invocations only)."),
		LockWaitTicks:      r.Histogram("clear_lock_wait_ticks", "Cacheline-lock wait-edge duration in ticks."),
		FootprintLines:     r.Histogram("clear_footprint_lines", "CL footprint size at S-CL/NS-CL attempt start, in lines."),
		NackBurst:          r.Histogram("clear_nack_burst", "Consecutive lock NACKs absorbed by one core."),

		PolicyOverrides:    r.Counter("clear_policy_overrides_total", "Retry-policy overrides of the mechanism proposal (serializations)."),
		PolicyBackoffTicks: r.Histogram("clear_policy_backoff_ticks", "Non-zero retry-policy backoff delays in ticks."),
	}
	for m := stats.CommitMode(0); m < stats.NumCommitModes; m++ {
		ins.Commits[m] = r.Counter("clear_commits_total", "Committed AR invocations.", Label{"mode", m.String()})
	}
	for rn := 0; rn < reasonOverflow; rn++ {
		ins.Aborts[rn] = r.Counter("clear_aborts_total", "Aborted AR attempts.", Label{"reason", htm.AbortReason(rn).String()})
	}
	ins.Aborts[reasonOverflow] = r.Counter("clear_aborts_total", "Aborted AR attempts.", Label{"reason", "overflow"})
	return ins
}

// coreState is the per-core bookkeeping the collector needs to turn point
// events into durations. Wait tracking uses parallel slices instead of a
// map: a core waits on at most a handful of lines at once, so linear scans
// are cheap and the storage is reused allocation-free across attempts.
type coreState struct {
	invStart   sim.Tick
	attStart   sim.Tick
	firstAbort sim.Tick
	inInv      bool
	inAtt      bool
	aborted    bool
	nackRun    uint64
	waitLine   []mem.LineAddr
	waitStart  []sim.Tick
}

// Collector feeds a run's events into a registry's Instruments. It
// implements cpu.Probe and coherence.Observer; one Collector serves one
// machine (it keeps per-core state), while the underlying registry may be
// shared across many machines.
type Collector struct {
	ins    *Instruments
	engine *sim.Engine
	cores  []coreState
}

// Attach creates a Collector over reg's standard instruments and hooks it
// into m's probe and directory-observer seams (via AddProbe/AddObserver,
// composing with an attached oracle or tracer).
func Attach(m *cpu.Machine, reg *Registry) *Collector {
	c := &Collector{
		ins:    reg.Instruments(),
		engine: m.Engine,
		cores:  make([]coreState, len(m.Cores)),
	}
	m.AddProbe(c)
	m.Dir.AddObserver(c)
	return c
}

// now is the current simulated tick.
func (c *Collector) now() sim.Tick { return c.engine.Now() }

// flushWaits closes every open wait edge at tick (the attempt ended or
// committed; a still-waiting core stops waiting either way).
func (c *Collector) flushWaits(s *coreState, tick sim.Tick) {
	for _, start := range s.waitStart {
		c.ins.LockWaitTicks.Observe(uint64(tick - start))
	}
	s.waitLine = s.waitLine[:0]
	s.waitStart = s.waitStart[:0]
	if s.nackRun > 0 {
		c.ins.NackBurst.Observe(s.nackRun)
		s.nackRun = 0
	}
}

// --- cpu.Probe ---

func (c *Collector) OnInvocationStart(core int, progID int) {
	c.ins.Invocations.Inc()
	s := &c.cores[core]
	s.invStart = c.now()
	s.inInv = true
	s.aborted = false
}

func (c *Collector) OnAttemptStart(core int, mode cpu.Mode, attempt int, footprint []mem.LineAddr) {
	c.ins.Attempts.Inc()
	s := &c.cores[core]
	s.attStart = c.now()
	s.inAtt = true
	if mode == cpu.ModeSCL || mode == cpu.ModeNSCL {
		c.ins.FootprintLines.Observe(uint64(len(footprint)))
	}
}

func (c *Collector) OnAttemptEnd(info cpu.AttemptEndInfo) {
	tick := c.now()
	s := &c.cores[info.Core]
	if s.inAtt {
		c.ins.AttemptTicksAbort.Observe(uint64(tick - s.attStart))
		s.inAtt = false
	}
	r := int(info.Reason)
	if r < 0 || r >= reasonOverflow {
		r = reasonOverflow
	}
	c.ins.Aborts[r].Inc()
	if info.Proposed != info.NextMode {
		c.ins.PolicyOverrides.Inc()
	}
	if info.Backoff > 0 {
		c.ins.PolicyBackoffTicks.Observe(uint64(info.Backoff))
	}
	if !s.aborted {
		s.aborted = true
		s.firstAbort = tick
	}
	c.flushWaits(s, tick)
}

func (c *Collector) OnCommit(info cpu.CommitInfo) {
	tick := c.now()
	s := &c.cores[info.Core]
	if s.inAtt {
		c.ins.AttemptTicksCommit.Observe(uint64(tick - s.attStart))
		s.inAtt = false
	}
	if m, ok := info.Mode.CommitMode(); ok {
		c.ins.Commits[m].Inc()
	}
	if s.inInv {
		c.ins.InvocationTicks.Observe(uint64(tick - s.invStart))
		s.inInv = false
	}
	if s.aborted {
		c.ins.RetryToCommitTicks.Observe(uint64(tick - s.firstAbort))
		s.aborted = false
	}
	c.flushWaits(s, tick)
}

func (c *Collector) OnMemAccess(core int, addr mem.Addr, value uint64, isWrite bool, mode cpu.Mode) {
	if isWrite {
		c.ins.MemStores.Inc()
	} else {
		c.ins.MemLoads.Inc()
	}
}

func (c *Collector) OnConflict(core int, line mem.LineAddr, isWrite bool, requester int) {
	c.ins.Conflicts.Inc()
}

// --- coherence.Observer ---

func (c *Collector) OnAccess(core int, line mem.LineAddr, isWrite bool, attrs coherence.ReqAttrs, res coherence.AccessResult) {
	c.ins.DirAccesses.Inc()
	if res.Nacked {
		c.ins.DirNacks.Inc()
	}
}

func (c *Collector) OnLock(core int, line mem.LineAddr, res coherence.LockResult) {
	s := &c.cores[core]
	switch {
	case res.Nacked:
		c.ins.LockNacks.Inc()
		s.nackRun++
		c.closeWait(s, line)
	case res.Retry:
		c.ins.LockRetries.Inc()
		for _, l := range s.waitLine {
			if l == line {
				return // wait edge already open
			}
		}
		s.waitLine = append(s.waitLine, line)
		s.waitStart = append(s.waitStart, c.now())
	default:
		c.ins.LockAcquires.Inc()
		c.closeWait(s, line)
		if s.nackRun > 0 {
			c.ins.NackBurst.Observe(s.nackRun)
			s.nackRun = 0
		}
	}
}

// closeWait ends the open wait edge on line, if any, observing its
// duration.
func (c *Collector) closeWait(s *coreState, line mem.LineAddr) {
	for i, l := range s.waitLine {
		if l != line {
			continue
		}
		c.ins.LockWaitTicks.Observe(uint64(c.now() - s.waitStart[i]))
		last := len(s.waitLine) - 1
		s.waitLine[i] = s.waitLine[last]
		s.waitStart[i] = s.waitStart[last]
		s.waitLine = s.waitLine[:last]
		s.waitStart = s.waitStart[:last]
		return
	}
}

func (c *Collector) OnUnlock(core int, line mem.LineAddr) { c.ins.Unlocks.Inc() }

func (c *Collector) OnEvict(core int, line mem.LineAddr) { c.ins.Evicts.Inc() }

var _ cpu.Probe = (*Collector)(nil)
var _ coherence.Observer = (*Collector)(nil)
