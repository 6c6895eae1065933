package cpu

import (
	"repro/internal/cache"
	"repro/internal/coherence"
	clear "repro/internal/core"
	"repro/internal/htm"
	"repro/internal/isa"
	"repro/internal/lineset"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Mode is a core's current execution mode.
type Mode int

const (
	// ModeIdle: between invocations.
	ModeIdle Mode = iota
	// ModeSpeculative: plain HTM transaction (possibly with discovery
	// observing, possibly holding the power token).
	ModeSpeculative
	// ModeFailedDiscovery: a conflict arrived but discovery continues to
	// the end of the AR with the abort signal held (§4.2, §5.1).
	ModeFailedDiscovery
	// ModeSCL: speculative cacheline-locked re-execution.
	ModeSCL
	// ModeNSCL: non-speculative cacheline-locked re-execution.
	ModeNSCL
	// ModeFallback: non-speculative execution under the global lock.
	ModeFallback
)

func (m Mode) String() string {
	switch m {
	case ModeIdle:
		return "idle"
	case ModeSpeculative:
		return "speculative"
	case ModeFailedDiscovery:
		return "failed-discovery"
	case ModeSCL:
		return "S-CL"
	case ModeNSCL:
		return "NS-CL"
	case ModeFallback:
		return "fallback"
	}
	return "unknown"
}

// CommitMode maps the execution mode at commit to the stats commit mode
// (Figure 12): a failed-discovery attempt that commits counts as
// speculative. ok is false for modes that cannot commit.
func (m Mode) CommitMode() (mode stats.CommitMode, ok bool) {
	switch m {
	case ModeSpeculative, ModeFailedDiscovery:
		return stats.CommitSpeculative, true
	case ModeSCL:
		return stats.CommitSCL, true
	case ModeNSCL:
		return stats.CommitNSCL, true
	case ModeFallback:
		return stats.CommitFallback, true
	}
	return 0, false
}

type storeEntry struct {
	addr mem.Addr
	val  uint64
}

// pendingOp is the single in-flight memory operation of a core: the typed
// event record consumed by completeOp when the operation's latency elapses.
// The interpreter is strictly sequential per core — at most one load or
// store awaits completion at a time — so one slot suffices and scheduling a
// completion allocates nothing.
type pendingOp struct {
	in    isa.Instr
	addr  mem.Addr
	indir bool
	store bool
}

// Core is one simulated hardware thread: interpreter state, transactional
// state, and CLEAR per-core tables.
type Core struct {
	id int
	m  *Machine
	l1 *cache.Cache

	// Hot attempt scalars, packed up front so the step prologue (abort
	// check, instruction fetch, windowing) touches the struct's first
	// cachelines instead of fields scattered behind the set tables.
	mode         Mode
	pc           int
	pendingAbort htm.AbortReason
	attemptInstr uint64
	attemptLoads int
	indir        uint32
	power        bool
	holdsReadLck bool
	waitedOnLock bool

	feed InvocationSource

	// CLEAR structures (allocated even when CLEAR is off; simply unused).
	ert  *clear.ERT
	crt  *clear.CRT
	disc *clear.Discovery

	// Current invocation.
	inv             Invocation
	attempt         int
	conflictRetries int
	retryMode       clear.RetryMode
	ertEntry        *clear.ERTEntry
	heldReason      htm.AbortReason

	// lastAssessed/lastAssessment capture the discovery assessment of the
	// most recent decideRetryMode call, for the attempt probe (probe.go).
	lastAssessed   bool
	lastAssessment clear.Assessment

	// lastProposed is the §4.3 mechanism proposal of the most recent
	// decision, before any policy override; nextBackoff is the policy's
	// backoff for the next attempt. Both feed the attempt probe.
	lastProposed clear.RetryMode
	nextBackoff  sim.Tick

	// Figure 1 instrumentation. The sets are epoch-cleared and reused
	// across invocations; the Has flags say whether the current invocation
	// has filled them.
	fig1First    lineset.LineSet
	fig1Retry    lineset.LineSet
	fig1HasFirst bool
	fig1HasRetry bool

	// invStart is when the current invocation's first attempt began
	// (after think time), for the latency histogram.
	invStart sim.Tick

	// Attempt state (hot scalars live at the top of the struct).
	regs      [isa.NumRegs]uint64
	readSet   lineset.LineSet
	writeSet  lineset.LineSet
	sq        []storeEntry
	sqForward lineset.AddrMap
	discStart sim.Tick

	// probeLines is the reusable scratch behind CommitInfo.StoreLines, so
	// an attached probe does not cost one slice allocation per commit.
	probeLines []mem.LineAddr

	// touched records the attempt's distinct lines for Figure 1 (bounded).
	touched lineset.LineSet

	// failedFetched caches lines already fetched by failed-mode loads in
	// this attempt (they do not install into the coherent L1, but the data
	// is at hand and re-reads cost a hit, §5.1 "loads are allowed to read
	// from cache").
	failedFetched lineset.LineSet

	// rng drives retry-backoff jitter; deterministic per (run seed, core).
	rng *sim.RNG

	// pol owns the §4.3 next-mode decision (internal/policy); polCtx is the
	// reusable decision context so the per-abort path allocates nothing.
	pol    policy.Policy
	polCtx policy.Context

	// The core's continuations, registered with the engine once in
	// newCore. Scheduling a method value (c.step) would evaluate to a fresh
	// closure on every use — a heap allocation per simulated instruction —
	// while a registered handle costs nothing to queue and keeps the event
	// queue free of pointers.
	stepFn           sim.Event
	beginAttemptFn   sim.Event
	nextInvocationFn sim.Event
	finishInvFn      sim.Event
	completeOpFn     sim.Event
	lockWalkFn       sim.Event
	acquireReadLckFn sim.Event
	tryFallbackWrFn  sim.Event

	// op is the single pending memory operation (see pendingOp); walkIdx is
	// the resume index of an interrupted lock walk.
	op      pendingOp
	walkIdx int

	done bool
}

func newCore(id int, m *Machine) *Core {
	c := &Core{
		id:   id,
		m:    m,
		l1:   cache.New(m.Cfg.L1),
		ert:  clear.NewERTSized(m.Cfg.ERTEntries),
		crt:  clear.NewCRTSized(m.Cfg.CRTEntries, m.Cfg.CRTWays),
		disc: clear.NewDiscoverySized(m.Cfg.ALTEntries),
		rng:  sim.NewRNG(m.Cfg.Seed*0x9e3779b97f4a7c15 + uint64(id) + 1),
	}
	c.pol = policy.New(m.Cfg.Policy, policy.Env{
		Seed:        m.Cfg.Seed,
		Core:        id,
		RetryLimit:  m.Cfg.RetryLimit,
		BackoffBase: m.Cfg.BackoffBase,
	})
	c.polCtx.Core = id
	c.polCtx.Rand = c.rng.Intn
	c.stepFn = m.Engine.Register(c.step)
	c.beginAttemptFn = m.Engine.Register(c.beginAttempt)
	c.nextInvocationFn = m.Engine.Register(c.nextInvocation)
	c.finishInvFn = m.Engine.Register(c.finishInvocation)
	c.completeOpFn = m.Engine.Register(c.completeOp)
	c.lockWalkFn = m.Engine.Register(c.resumeLockWalk)
	c.acquireReadLckFn = m.Engine.Register(c.acquireFallbackReadLock)
	c.tryFallbackWrFn = m.Engine.Register(c.tryAcquireFallbackWrite)
	return c
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// Mode returns the core's current execution mode (tests observe it).
func (c *Core) Mode() Mode { return c.mode }

func (c *Core) engine() *sim.Engine { return c.m.Engine }

func (c *Core) start() {
	c.engine().Schedule(0, c.nextInvocationFn)
}

func (c *Core) nextInvocation() {
	inv, ok := c.feed.Next()
	if !ok {
		c.done = true
		c.mode = ModeIdle
		c.m.coreFinished()
		return
	}
	c.inv = inv
	c.attempt = 0
	c.conflictRetries = 0
	c.retryMode = clear.RetrySpeculative
	c.heldReason = htm.AbortNone
	c.ertEntry = nil
	c.fig1HasFirst = false
	c.fig1HasRetry = false
	c.waitedOnLock = false
	c.invStart = c.engine().Now() + inv.Think
	if c.m.probe != nil {
		c.m.probe.OnInvocationStart(c.id, inv.Prog.ID)
	}
	c.engine().Schedule(inv.Think, c.beginAttemptFn)
}

// signalAbort delivers an asynchronous abort (from the coherence hook); the
// first reason wins.
func (c *Core) signalAbort(r htm.AbortReason) {
	if c.pendingAbort == htm.AbortNone {
		c.pendingAbort = r
	}
}

// OnRemoteRequest implements coherence.CoreHook: another core wants line.
// This runs synchronously inside the requester's directory transaction.
func (c *Core) OnRemoteRequest(line mem.LineAddr, isWrite bool, requester int, attrs coherence.ReqAttrs) coherence.HolderResponse {
	inRead := c.readSet.Has(line)
	inWrite := c.writeSet.Has(line)
	conflict := (isWrite && (inRead || inWrite)) || (!isWrite && inWrite)

	if !conflict {
		return c.yieldLine(line, isWrite)
	}

	if c.m.probe != nil {
		c.m.probe.OnConflict(c.id, line, isWrite, requester)
	}
	switch c.mode {
	case ModeSpeculative:
		if isWrite && line == c.m.Fallback.Line {
			// Another thread is taking the fallback lock out from under our
			// subscription.
			c.signalAbort(htm.AbortOtherFallback)
			return c.yieldLine(line, isWrite)
		}
		if attrs.NonSpec {
			// Non-speculative fallback execution always wins.
			c.signalAbort(htm.AbortMemoryConflict)
			return c.yieldLine(line, isWrite)
		}
		if c.power && !attrs.Power {
			// Power-mode holder refuses; the requester aborts (§5.2).
			return coherence.HolderNacks
		}
		// Requester wins.
		if c.m.fault != nil && c.m.fault.LoseInvalidation(c.id) {
			// Planted bug (fault injection only): the invalidation is
			// processed but the abort signal is dropped, so this transaction
			// may commit values it read before the remote write — a
			// serializability violation that survives a final-memory
			// comparison.
			return c.yieldLine(line, isWrite)
		}
		c.signalAbort(htm.AbortMemoryConflict)
		return c.yieldLine(line, isWrite)

	case ModeFailedDiscovery:
		// Already failed: nothing more to lose; yield without a new signal.
		return c.yieldLine(line, isWrite)

	case ModeSCL:
		// Locked lines are refused at the directory and never reach this
		// hook, so this is a conflict on one of our speculative (non-
		// locked) accesses. The S-CL execution aborts — and the CRT learns
		// the line, so the next S-CL attempt locks it and cannot suffer
		// the same conflict again (§4.4.2, §5.1: "received an invalidation
		// that caused a conflict and abort"). The one exception is a
		// power-mode requester: S-CL and power transactions answer each
		// other with nacks instead of aborting (§5.2).
		if c.m.Cfg.PowerTM && attrs.Power {
			return coherence.HolderNacks
		}
		if !attrs.Locking {
			c.noteConflictingRead(line)
		}
		c.signalAbort(htm.AbortMemoryConflict)
		return c.yieldLine(line, isWrite)

	case ModeNSCL:
		// NS-CL holds its entire footprint locked, so a conflicting request
		// can only be a stale set entry; treat as yield.
		return c.yieldLine(line, isWrite)

	default: // ModeIdle, ModeFallback
		return c.yieldLine(line, isWrite)
	}
}

// yieldLine relinquishes line to a remote writer (dropping it from the L1
// and the transactional sets) and answers HolderYields. A method rather
// than a per-call closure: OnRemoteRequest runs inside every remote
// directory transaction, and the old `yield := func() {...}` literal
// allocated on each invocation.
func (c *Core) yieldLine(line mem.LineAddr, isWrite bool) coherence.HolderResponse {
	if isWrite {
		c.l1.Remove(line)
		c.readSet.Remove(line)
		c.writeSet.Remove(line)
	}
	return coherence.HolderYields
}

// completeOp consumes the pending-op slot when a memory operation's latency
// has elapsed (the engine's typed-event continuation for loads and stores).
func (c *Core) completeOp() {
	op := c.op
	if op.store {
		c.completeStore(op.in, op.addr, op.indir)
	} else {
		c.completeLoad(op.in, op.addr, op.indir)
	}
}

// scheduleLoadDone files the load's completion record and schedules it.
func (c *Core) scheduleLoadDone(lat sim.Tick, in isa.Instr, addr mem.Addr, indir bool) {
	c.op = pendingOp{in: in, addr: addr, indir: indir}
	c.engine().Schedule(lat, c.completeOpFn)
}

// scheduleStoreDone files the store's completion record and schedules it.
func (c *Core) scheduleStoreDone(lat sim.Tick, in isa.Instr, addr mem.Addr, indir bool) {
	c.op = pendingOp{in: in, addr: addr, indir: indir, store: true}
	c.engine().Schedule(lat, c.completeOpFn)
}

// noteConflictingRead records line in the CRT: a read that did not require
// locking but caused a conflict; the next S-CL attempt will lock it (§5.1).
func (c *Core) noteConflictingRead(line mem.LineAddr) {
	if !c.m.Cfg.CLEAR {
		return
	}
	if !c.writeSet.Has(line) {
		c.crt.Insert(line)
		c.m.Stats.CRTInsertions++
	}
}
