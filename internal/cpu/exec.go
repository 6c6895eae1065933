package cpu

import (
	"fmt"

	"repro/internal/htm"
	"repro/internal/isa"
	"repro/internal/sim"
)

// maxAttemptInstr is a hard per-attempt instruction budget. Speculative
// executions read live memory without opacity, so a traversal interleaved
// with remote commits could in principle chase a cycle; the budget converts
// that into a capacity abort instead of hanging the simulation.
const maxAttemptInstr = 1 << 20

// step executes the instruction at pc in the current mode. Every
// continuation goes through the event engine, never recursion.
func (c *Core) step() {
	if c.pendingAbort != htm.AbortNone {
		r := c.pendingAbort
		c.pendingAbort = htm.AbortNone
		if !c.consumeAbortSignal(r) {
			return
		}
	}

	if c.attemptInstr >= maxAttemptInstr {
		c.abortNow(htm.AbortCapacity)
		return
	}
	if c.m.Cfg.SLE && c.attemptInstr >= uint64(c.m.Cfg.ROBEntries) && c.speculationWindowed() {
		c.windowExhausted()
		return
	}

	in := c.inv.Prog.Code[c.pc]
	c.attemptInstr++

	switch in.Op {
	case isa.OpNop:
		c.advance(1)

	case isa.OpLoadImm, isa.OpMov, isa.OpAdd, isa.OpAddImm, isa.OpSub,
		isa.OpMulImm, isa.OpAndImm, isa.OpShrImm, isa.OpXor:
		c.regs[in.Dst] = in.ALU(c.regs[in.Src1], c.regs[in.Src2])
		c.indir = in.Taint(c.indir)
		c.advance(1)

	case isa.OpRdTsc:
		// A non-determinism source: Taint marks the destination as an
		// indirection (§4.1).
		c.regs[in.Dst] = uint64(c.engine().Now())
		c.indir = in.Taint(c.indir)
		c.advance(1)

	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		taken := in.Taken(c.regs[in.Src1], c.regs[in.Src2])
		c.disc.RecordBranch(c.indir&in.SrcMask() != 0)
		if taken {
			c.pc = int(in.Imm)
			c.engine().Schedule(1, c.stepFn)
		} else {
			c.advance(1)
		}

	case isa.OpJump:
		c.pc = int(in.Imm)
		c.engine().Schedule(1, c.stepFn)

	case isa.OpLoad:
		c.doLoad(in)

	case isa.OpStore:
		c.doStore(in)

	case isa.OpXAbort:
		c.doXAbort()

	case isa.OpHalt:
		c.doHalt()

	default:
		panic(fmt.Sprintf("cpu: core %d unknown opcode %v", c.id, in.Op))
	}
}

// consumeAbortSignal handles a pending asynchronous abort; it returns true
// if execution should continue (failed-mode conversion), false if the
// attempt ended.
func (c *Core) consumeAbortSignal(r htm.AbortReason) bool {
	switch c.mode {
	case ModeSpeculative:
		if r == htm.AbortMemoryConflict && c.disc.Active && !c.m.Cfg.DisableDiscoveryContinuation {
			// §4.1: instead of aborting, continue discovery in failed mode
			// until the end of the AR.
			c.enterFailedMode(r)
			return true
		}
		c.abortNow(r)
		return false
	case ModeFailedDiscovery:
		// Already failed; further signals carry no new information.
		return true
	case ModeSCL, ModeNSCL:
		c.abortNow(r)
		return false
	default:
		// Fallback/idle cannot be aborted; drop the signal.
		return true
	}
}

// speculationWindowed reports whether the current mode's speculative state
// lives in the in-core window (ROB/LQ/SQ). NS-CL and fallback execute
// non-speculatively and retire freely; HTM mode (§4.2) tracks state at the
// cache and is limited only by the SQ.
func (c *Core) speculationWindowed() bool {
	switch c.mode {
	case ModeSpeculative, ModeFailedDiscovery, ModeSCL:
		return true
	}
	return false
}

// windowExhausted handles running out of the in-core speculation window
// (§4.1 assessment 1): discovery is hopeless and the AR is non-convertible.
func (c *Core) windowExhausted() {
	switch c.mode {
	case ModeFailedDiscovery:
		c.disc.CacheOverflow = true
		if c.ertEntry != nil {
			c.ertEntry.IsConvertible = false
		}
		c.abortNow(c.heldReason)
	default:
		c.abortNow(htm.AbortCapacity)
	}
}

func (c *Core) advance(cost sim.Tick) {
	c.pc++
	c.engine().Schedule(cost, c.stepFn)
}

func (c *Core) indirOf(r isa.Reg) bool { return c.indir&(1<<uint(r)) != 0 }

func (c *Core) doXAbort() {
	switch c.mode {
	case ModeSpeculative:
		c.abortNow(htm.AbortExplicit)
	case ModeFailedDiscovery:
		// §5.1: failed-mode discovery ends on XAbort with no retry-mode
		// decision taken.
		c.disc.NonMemAbort = true
		c.abortNow(c.heldReason)
	case ModeSCL, ModeNSCL:
		// Non-memory-conflict abort in a CL mode: mark non-discoverable
		// (§4.4.2).
		if c.ertEntry != nil {
			c.ertEntry.IsConvertible = false
		}
		c.abortNow(htm.AbortExplicit)
	case ModeFallback:
		// Non-speculative execution cannot roll back; an explicit abort
		// simply terminates the region.
		c.doHalt()
	}
}

func (c *Core) doHalt() {
	switch c.mode {
	case ModeSpeculative, ModeSCL, ModeNSCL, ModeFallback:
		c.commitNow()
	case ModeFailedDiscovery:
		c.disc.ReachedEnd = true
		c.m.Stats.DiscoveryCycles += c.engine().Now() - c.discStart
		c.discStart = c.engine().Now() // avoid double count in abortNow
		c.abortNow(c.heldReason)
	default:
		panic(fmt.Sprintf("cpu: core %d halt in mode %v", c.id, c.mode))
	}
}
