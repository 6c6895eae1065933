package fault

import (
	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Recorder receives one callback per fired fault; the trace layer implements
// it to give every injected fault a trace record. core is -1 for faults not
// attributable to a core (sim-layer event delays).
type Recorder interface {
	RecordFault(core int, kind Kind, ticks sim.Tick, line mem.LineAddr)
}

// Stats accumulates what an injector actually did during a run.
type Stats struct {
	// Fired counts fault activations per kind.
	Fired [NumKinds]uint64
	// ExtraTicks is the total injected latency (delay-type faults only).
	ExtraTicks sim.Tick
}

// Total returns the number of faults fired across all kinds.
func (s *Stats) Total() uint64 {
	var n uint64
	for _, f := range s.Fired {
		n += f
	}
	return n
}

// Injector is the deterministic fault engine for one machine. It implements
// coherence.FaultHook and cpu.FaultHook and installs a sim delay
// perturbation; all three seams draw from one private RNG so the fault
// sequence is a pure function of (Plan, Plan.Seed, machine seed).
type Injector struct {
	plan Plan
	m    *cpu.Machine
	dir  *coherence.Directory
	eng  *sim.Engine
	rng  *sim.RNG
	rec  Recorder

	// burstLeft[core] counts remaining refusals of an armed NACK storm.
	burstLeft []int

	stats Stats
}

// mixSeed folds the plan seed and the machine seed into one RNG seed
// (splitmix64 finalizer) so varying either produces an independent but
// reproducible fault stream.
func mixSeed(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 + b
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Attach installs an injector driven by plan on machine m and returns it. A
// nil plan attaches nothing and returns nil — the machine keeps its zero-cost
// detached seams. A non-nil but empty plan installs the hooks yet fires no
// fault and consumes no randomness on rate-guarded paths, leaving the run's
// statistics digest byte-identical (asserted by the transparency tests).
func Attach(m *cpu.Machine, plan *Plan) *Injector {
	if plan == nil {
		return nil
	}
	inj := &Injector{
		plan:      *plan,
		m:         m,
		dir:       m.Dir,
		eng:       m.Engine,
		rng:       sim.NewRNG(mixSeed(plan.Seed, m.Cfg.Seed)),
		burstLeft: make([]int, m.Cfg.Cores),
	}
	m.Engine.SetDelayPerturb(inj.perturbDelay)
	m.Dir.SetFaultHook(inj)
	m.SetFaultHook(inj)
	return inj
}

// SetRecorder wires a per-fault callback (e.g. the trace layer). Pass nil to
// detach.
func (inj *Injector) SetRecorder(r Recorder) { inj.rec = r }

// Stats returns a copy of the accumulated fault statistics.
func (inj *Injector) Stats() Stats { return inj.stats }

// Plan returns a copy of the plan driving this injector.
func (inj *Injector) Plan() Plan { return inj.plan }

func (inj *Injector) fire(k Kind, core int, ticks sim.Tick, line mem.LineAddr) {
	inj.stats.Fired[k]++
	inj.stats.ExtraTicks += ticks
	if inj.rec != nil {
		inj.rec.RecordFault(core, k, ticks, line)
	}
}

// perturbDelay is the sim-layer seam: with probability EventDelayRate each
// scheduled event is delayed by an extra uniform [1, EventDelayMax] ticks.
func (inj *Injector) perturbDelay(delay sim.Tick) sim.Tick {
	if inj.plan.EventDelayRate <= 0 || inj.plan.EventDelayMax <= 0 {
		return delay
	}
	if inj.rng.Float64() >= inj.plan.EventDelayRate {
		return delay
	}
	extra := sim.Tick(inj.rng.Intn(int(inj.plan.EventDelayMax))) + 1
	inj.fire(KindEventDelay, -1, extra, 0)
	return delay + extra
}

// deniable reports whether a directory request may be refused by injection.
// Non-speculative fallback requests must never be denied (the fallback path
// treats a NACK as a protocol bug), failed-mode discovery requests are
// non-aborting by construction, and lock-acquisition upgrades are filtered
// at the Lock seam instead — denying the inner Write too would double-count.
func deniable(attrs coherence.ReqAttrs) bool {
	return !attrs.NonSpec && !attrs.FailedMode && !attrs.Locking
}

// FilterAccess implements coherence.FaultHook: NACK amplification/storms,
// directory transient-state stalls, and extra delay against requesters of
// cacheline-locked lines.
func (inj *Injector) FilterAccess(core int, line mem.LineAddr, isWrite bool, attrs coherence.ReqAttrs) (bool, sim.Tick) {
	var extra sim.Tick
	if inj.plan.StallRate > 0 && inj.plan.StallTicks > 0 &&
		inj.rng.Float64() < inj.plan.StallRate {
		// Directory transient-state stall: the transaction completes but
		// only after the entry sat in a transient state for StallTicks.
		extra += inj.plan.StallTicks
		inj.fire(KindDirStall, core, inj.plan.StallTicks, line)
	}
	if inj.plan.LockedLineDelayRate > 0 && inj.plan.LockedLineDelayTicks > 0 {
		if holder := inj.dir.LockedBy(line); holder >= 0 && holder != core &&
			inj.rng.Float64() < inj.plan.LockedLineDelayRate {
			// Invalidation burst against a locked-line requester: the
			// refusal (Retry or NACK) it is about to receive arrives late.
			extra += inj.plan.LockedLineDelayTicks
			inj.fire(KindLockedLineDelay, core, inj.plan.LockedLineDelayTicks, line)
		}
	}
	if deniable(attrs) {
		if inj.burstLeft[core] > 0 {
			// An armed NACK storm keeps refusing this core's requests.
			inj.burstLeft[core]--
			inj.fire(KindNack, core, 0, line)
			return true, extra
		}
		if inj.plan.NackRate > 0 && inj.rng.Float64() < inj.plan.NackRate {
			inj.burstLeft[core] = inj.plan.NackBurst
			inj.fire(KindNack, core, 0, line)
			return true, extra
		}
	}
	return false, extra
}

// FilterLock implements coherence.FaultHook for cacheline-lock acquisitions:
// a denied acquisition is reported as a Retry (the directory momentarily
// cannot grant the lock), which the ordered lock walk must absorb without
// losing its deadlock-freedom argument.
func (inj *Injector) FilterLock(core int, line mem.LineAddr) (bool, sim.Tick) {
	if inj.plan.LockStallRate > 0 && inj.rng.Float64() < inj.plan.LockStallRate {
		inj.fire(KindLockStall, core, inj.plan.LockStallTicks, line)
		return true, inj.plan.LockStallTicks
	}
	return false, 0
}

// DenyPowerClaim implements cpu.FaultHook: power-token claims are refused
// during a periodic denial window (tick mod Period < Window).
func (inj *Injector) DenyPowerClaim(core int) bool {
	if inj.plan.PowerDenyPeriod <= 0 || inj.plan.PowerDenyWindow <= 0 {
		return false
	}
	if inj.eng.Now()%inj.plan.PowerDenyPeriod < inj.plan.PowerDenyWindow {
		inj.fire(KindPowerDeny, core, 0, 0)
		return true
	}
	return false
}

// SpuriousAbort implements cpu.FaultHook: a first speculative attempt is
// killed before executing with probability SpuriousAbortRate.
func (inj *Injector) SpuriousAbort(core int) bool {
	if inj.plan.SpuriousAbortRate > 0 && inj.rng.Float64() < inj.plan.SpuriousAbortRate {
		inj.fire(KindSpuriousAbort, core, 0, 0)
		return true
	}
	return false
}

// PreemptHolder implements cpu.FaultHook: with probability HolderStallRate a
// lock-walk step stalls for HolderStallTicks after acquiring its lock.
func (inj *Injector) PreemptHolder(core int) sim.Tick {
	if inj.plan.HolderStallRate > 0 && inj.plan.HolderStallTicks > 0 &&
		inj.rng.Float64() < inj.plan.HolderStallRate {
		inj.fire(KindHolderStall, core, inj.plan.HolderStallTicks, 0)
		return inj.plan.HolderStallTicks
	}
	return 0
}

// ForceSecondSpecRetry implements cpu.FaultHook: the planted single-retry-
// bound bug, fired with probability SecondSpecRetryRate after a convertible
// assessment.
func (inj *Injector) ForceSecondSpecRetry(core int) bool {
	if inj.plan.SecondSpecRetryRate > 0 && inj.rng.Float64() < inj.plan.SecondSpecRetryRate {
		inj.fire(KindSecondSpecRetry, core, 0, 0)
		return true
	}
	return false
}

// LoseInvalidation implements cpu.FaultHook: the planted conflict-detection
// bug, fired with probability LostInvalidationRate when a speculative holder
// loses a line to a requester-wins conflict.
func (inj *Injector) LoseInvalidation(core int) bool {
	if inj.plan.LostInvalidationRate > 0 && inj.rng.Float64() < inj.plan.LostInvalidationRate {
		inj.fire(KindLostInvalidation, core, 0, 0)
		return true
	}
	return false
}
