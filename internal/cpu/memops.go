package cpu

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/htm"
	"repro/internal/isa"
	"repro/internal/mem"
)

// StrictChecks enables expensive internal invariant assertions (cache vs
// directory consistency on silent accesses). Tests switch it on; it is off
// for benchmark runs.
var StrictChecks = false

// effAddr computes the effective address of a memory instruction.
func (c *Core) effAddr(in isa.Instr) mem.Addr {
	return mem.Addr(c.regs[in.Src1] + uint64(in.Imm))
}

// readData returns the value visible to this core at addr: its own buffered
// store if one exists (store-to-load forwarding), else committed memory.
func (c *Core) readData(addr mem.Addr) uint64 {
	if v, ok := c.sqForward.Get(addr); ok {
		return v
	}
	return c.m.Mem.ReadWord(addr)
}

// completeLoad finishes a load after its latency elapsed: read the value,
// update register and indirection state, record discovery info, advance.
func (c *Core) completeLoad(in isa.Instr, addr mem.Addr, indirection bool) {
	c.regs[in.Dst] = c.readData(addr)
	c.indir = in.Taint(c.indir)
	line := addr.Line()
	if c.m.probe != nil {
		c.m.probe.OnMemAccess(c.id, addr, c.regs[in.Dst], false, c.mode)
	}
	c.disc.RecordAccess(line, c.m.Dir.SetOf(line), false, indirection)
	if c.discoveryExhausted() {
		c.abortNow(c.heldReason)
		return
	}
	c.pc++
	c.engine().Schedule(0, c.stepFn)
}

// discoveryExhausted implements assessment 1 of §4.1 for failed-mode
// discovery: once the speculative window (ALT capacity, cache residency) is
// exhausted, "there is no reason to continue to its end and the AR is
// immediately aborted".
func (c *Core) discoveryExhausted() bool {
	return c.mode == ModeFailedDiscovery && (c.disc.ALT.Overflowed || c.disc.CacheOverflow)
}

// completeStore finishes a store: buffer it in the SQ (speculative and CL
// modes) or write memory directly (fallback), record discovery info,
// advance.
func (c *Core) completeStore(in isa.Instr, addr mem.Addr, indirection bool) {
	val := c.regs[in.Src2]
	if c.mode == ModeFallback {
		c.m.Mem.WriteWord(addr, val)
	} else {
		if len(c.sq) >= c.m.Cfg.SQEntries {
			c.sqOverflow()
			return
		}
		c.sq = append(c.sq, storeEntry{addr: addr, val: val})
		c.sqForward.Set(addr, val)
	}
	line := addr.Line()
	if c.m.probe != nil {
		c.m.probe.OnMemAccess(c.id, addr, val, true, c.mode)
	}
	c.disc.RecordAccess(line, c.m.Dir.SetOf(line), true, indirection)
	if c.discoveryExhausted() {
		c.abortNow(c.heldReason)
		return
	}
	c.pc++
	c.engine().Schedule(0, c.stepFn)
}

// sqOverflow handles a full store queue according to the mode.
func (c *Core) sqOverflow() {
	switch c.mode {
	case ModeFailedDiscovery:
		// §5.1: the SQ-Full counter is increased and the failed AR aborts
		// immediately.
		c.disc.SQOverflow = true
		if c.ertEntry != nil {
			c.ertEntry.NoteSQOverflow()
		}
		c.abortNow(c.heldReason)
	default:
		// Speculative window exhausted.
		c.abortNow(htm.AbortCapacity)
	}
}

// conflictOnOwnRequest handles our own coherence request being refused
// (NACK). With active discovery the attempt converts to failed mode and the
// instruction re-executes under failed-mode rules; otherwise the attempt
// aborts.
func (c *Core) conflictOnOwnRequest() {
	if c.mode == ModeSpeculative && c.disc.Active && !c.m.Cfg.DisableDiscoveryContinuation {
		c.enterFailedMode(htm.AbortMemoryConflict)
		c.engine().Schedule(1, c.stepFn) // re-execute at same pc in failed mode
		return
	}
	c.abortNow(htm.AbortMemoryConflict)
}

func (c *Core) doLoad(in isa.Instr) {
	addr := c.effAddr(in)
	if !addr.Aligned() {
		// Inconsistent speculative data produced a bogus address; a real
		// machine would fault and abort the transaction.
		c.abortIllegalAccess()
		return
	}
	line := addr.Line()
	indirection := c.indirOf(in.Src1)
	// A line already in the read set is already in the Figure 1 footprint
	// set (every read-set insertion below follows a trackTouched, the
	// fallback lock line is never a program address, and touched only grows
	// within an attempt), so the common steady-state load costs exactly one
	// table probe.
	hasRS := false
	switch c.mode {
	case ModeSpeculative, ModeSCL:
		hasRS = c.readSet.Has(line)
	}
	if !hasRS {
		c.trackTouched(line)
	}
	c.m.Stats.L1Accesses++
	c.attemptLoads++
	if c.m.Cfg.SLE && c.attemptLoads > c.m.Cfg.LQEntries && c.speculationWindowed() {
		c.windowExhausted()
		return
	}

	switch c.mode {
	case ModeSpeculative:
		// L1 residency implies we are a registered sharer (or owner) at
		// the directory — invalidations remove lines from the L1 through
		// the hook — so a hit reads locally and only extends the local
		// read set, exactly like read-set tracking in the L1 of a real
		// HTM.
		if hasRS {
			if StrictChecks && !(c.m.Dir.Sharers(line).Has(c.id) || c.m.Dir.Owner(line) == c.id) {
				panic(fmt.Sprintf("core %d silent read of %s without directory registration (tick %d)", c.id, line, c.engine().Now()))
			}
			c.scheduleLoadDone(c.m.Cfg.Lat.L1Hit, in, addr, indirection)
			return
		}
		if c.writeSet.Has(line) || c.l1.Access(line) {
			if StrictChecks && !(c.m.Dir.Sharers(line).Has(c.id) || c.m.Dir.Owner(line) == c.id) {
				panic(fmt.Sprintf("core %d silent read of %s without directory registration (tick %d)", c.id, line, c.engine().Now()))
			}
			c.readSet.Add(line)
			c.scheduleLoadDone(c.m.Cfg.Lat.L1Hit, in, addr, indirection)
			return
		}
		res := c.m.Dir.Read(c.id, line, coherence.ReqAttrs{Power: c.power})
		if res.Nacked {
			c.conflictOnOwnRequest()
			return
		}
		if res.Retry {
			c.engine().Schedule(res.Latency, c.stepFn) // re-issue
			return
		}
		c.readSet.Add(line)
		c.l1Insert(line)
		c.scheduleLoadDone(res.Latency, in, addr, indirection)

	case ModeFailedDiscovery:
		if c.l1.Access(line) || c.failedFetched.Has(line) {
			c.scheduleLoadDone(c.m.Cfg.Lat.L1Hit, in, addr, indirection)
			return
		}
		res := c.m.Dir.Read(c.id, line, coherence.ReqAttrs{FailedMode: true})
		c.failedFetched.Add(line)
		c.scheduleLoadDone(res.Latency, in, addr, indirection)

	case ModeSCL:
		// S-CL "-writes-" mode (§4.4.2): the learned write set (plus CRT
		// hits) is locked; everything else — including lines outside the
		// learned footprint, since the footprint is not guaranteed
		// immutable — executes speculatively. The AR aborts when its own
		// requests are NACKed (§4.3 iii); conflicting remote requests to
		// its speculative lines are NACKed by the holder hook instead of
		// aborting it (§4.3 ii holds only in "-all-" mode).
		if hasRS {
			c.scheduleLoadDone(c.m.Cfg.Lat.L1Hit, in, addr, indirection)
			return
		}
		if c.lineLockedByUs(line) || c.writeSet.Has(line) || c.l1.Access(line) {
			c.readSet.Add(line)
			c.scheduleLoadDone(c.m.Cfg.Lat.L1Hit, in, addr, indirection)
			return
		}
		res := c.m.Dir.Read(c.id, line, coherence.ReqAttrs{NackableLoad: true})
		if res.Nacked {
			// The line is locked or held with priority remotely (Fig. 5):
			// abort (§4.3 iii). Only priority nacks enter the CRT;
			// lock-caused nacks are transient re-execution artefacts.
			if !res.LockNack {
				c.noteConflictingRead(line)
			}
			c.abortNow(htm.AbortMemoryConflict)
			return
		}
		if res.Retry {
			c.engine().Schedule(res.Latency, c.stepFn)
			return
		}
		c.readSet.Add(line)
		c.l1Insert(line)
		c.scheduleLoadDone(res.Latency, in, addr, indirection)

	case ModeNSCL:
		if !c.disc.ALT.Contains(line) {
			// Immutability misprediction; nothing is visible yet (stores
			// are buffered), so the attempt can still abort safely.
			c.abortNow(htm.AbortDeviation)
			return
		}
		c.scheduleLoadDone(c.m.Cfg.Lat.L1Hit, in, addr, indirection)

	case ModeFallback:
		if c.l1.Access(line) {
			c.scheduleLoadDone(c.m.Cfg.Lat.L1Hit, in, addr, indirection)
			return
		}
		res := c.m.Dir.Read(c.id, line, coherence.ReqAttrs{NonSpec: true})
		if res.Retry {
			c.engine().Schedule(res.Latency, c.stepFn)
			return
		}
		if res.Nacked {
			panic(fmt.Sprintf("cpu: core %d fallback load nacked at %s", c.id, line))
		}
		c.l1Insert(line)
		c.scheduleLoadDone(res.Latency, in, addr, indirection)

	default:
		panic(fmt.Sprintf("cpu: core %d load in mode %v", c.id, c.mode))
	}
}

func (c *Core) doStore(in isa.Instr) {
	addr := c.effAddr(in)
	if !addr.Aligned() {
		c.abortIllegalAccess()
		return
	}
	line := addr.Line()
	indirection := c.indirOf(in.Src1)
	// Mirror of the doLoad fast path: a line already in the write set is
	// already in touched, so the repeat store costs one probe.
	hasWS := false
	switch c.mode {
	case ModeSpeculative, ModeSCL:
		hasWS = c.writeSet.Has(line)
	}
	if !hasWS {
		c.trackTouched(line)
	}
	c.m.Stats.L1Accesses++

	switch c.mode {
	case ModeSpeculative:
		// Exclusive ownership (M/E in the L1) allows a silent local write;
		// otherwise a GetX/upgrade goes to the directory. An already-written
		// line needs no second write-set insertion.
		if hasWS {
			c.scheduleStoreDone(c.m.Cfg.Lat.L1Hit, in, addr, indirection)
			return
		}
		if c.m.Dir.Owner(line) == c.id && c.l1.Access(line) {
			c.writeSet.Add(line)
			c.scheduleStoreDone(c.m.Cfg.Lat.L1Hit, in, addr, indirection)
			return
		}
		res := c.m.Dir.Write(c.id, line, coherence.ReqAttrs{Power: c.power})
		if res.Nacked {
			c.conflictOnOwnRequest()
			return
		}
		if res.Retry {
			c.engine().Schedule(res.Latency, c.stepFn)
			return
		}
		c.writeSet.Add(line)
		c.l1Insert(line)
		c.scheduleStoreDone(res.Latency, in, addr, indirection)

	case ModeFailedDiscovery:
		// Failed-mode stores stay in the SQ and request no permissions
		// (§4.2, §5.1).
		c.scheduleStoreDone(c.m.Cfg.Lat.L1Hit, in, addr, indirection)

	case ModeSCL:
		if hasWS {
			c.scheduleStoreDone(c.m.Cfg.Lat.L1Hit, in, addr, indirection)
			return
		}
		if c.lineLockedByUs(line) ||
			(c.m.Dir.Owner(line) == c.id && c.l1.Access(line)) {
			c.writeSet.Add(line)
			c.scheduleStoreDone(c.m.Cfg.Lat.L1Hit, in, addr, indirection)
			return
		}
		// A store outside the locked set: the write footprint deviated from
		// discovery; execute it speculatively with ordinary conflict
		// detection (the store stays in the SQ until commit).
		res := c.m.Dir.Write(c.id, line, coherence.ReqAttrs{})
		if res.Nacked {
			c.abortNow(htm.AbortMemoryConflict)
			return
		}
		if res.Retry {
			c.engine().Schedule(res.Latency, c.stepFn)
			return
		}
		c.writeSet.Add(line)
		c.l1Insert(line)
		c.scheduleStoreDone(res.Latency, in, addr, indirection)

	case ModeNSCL:
		if !c.disc.ALT.Contains(line) {
			c.abortNow(htm.AbortDeviation)
			return
		}
		c.scheduleStoreDone(c.m.Cfg.Lat.L1Hit, in, addr, indirection)

	case ModeFallback:
		if c.m.Dir.Owner(line) == c.id && c.l1.Access(line) {
			c.scheduleStoreDone(c.m.Cfg.Lat.L1Hit, in, addr, indirection)
			return
		}
		res := c.m.Dir.Write(c.id, line, coherence.ReqAttrs{NonSpec: true})
		if res.Retry {
			c.engine().Schedule(res.Latency, c.stepFn)
			return
		}
		if res.Nacked {
			panic(fmt.Sprintf("cpu: core %d fallback store nacked at %s", c.id, line))
		}
		c.l1Insert(line)
		c.scheduleStoreDone(res.Latency, in, addr, indirection)

	default:
		panic(fmt.Sprintf("cpu: core %d store in mode %v", c.id, c.mode))
	}
}

// abortIllegalAccess handles addresses computed from torn speculative data:
// the hardware analogue is a faulting access inside a transaction, which
// aborts it (an "Others" abort).
func (c *Core) abortIllegalAccess() {
	if c.mode == ModeFallback {
		panic(fmt.Sprintf("cpu: core %d illegal access in fallback (program bug)", c.id))
	}
	if c.mode == ModeFailedDiscovery {
		c.disc.NonMemAbort = true
		c.abortNow(c.heldReason)
		return
	}
	c.abortNow(htm.AbortExplicit)
}

// lineLockedByUs reports whether we hold the cacheline lock on line.
func (c *Core) lineLockedByUs(line mem.LineAddr) bool {
	return c.m.Dir.LockedBy(line) == c.id
}
