// Package fault implements deterministic fault injection for the simulated
// CLEAR machine. An Injector, configured by a declarative Plan, perturbs a
// run at three layers through the machine's nil-guarded hook seams:
//
//   - sim: bounded random extra latency on scheduled events (models jittery
//     interconnects and slow paths the timing model abstracts away);
//   - coherence: NACK amplification and storms, directory transient-state
//     stalls, and extra invalidation-burst delay against requesters of
//     cacheline-locked lines;
//   - cpu: power-token denial windows, spurious first-attempt aborts, and
//     lock-holder preemption stalls.
//
// Faults may delay or refuse, never corrupt: every injected outcome is one
// the protocol must already tolerate (a NACK, a Retry, extra latency, a
// denied token, an early abort), so workload verification and the
// internal/check oracle must hold under any plan. What a plan stresses is
// the *robustness* claims — the single-retry bound, deadlock freedom of the
// ordered lock walk, and graceful degradation to the fallback path.
//
// The two exceptions are the planted bugs, which exist to prove the
// detectors fire: KindSecondSpecRetry (Plan.SecondSpecRetryRate) breaks the
// single-retry bound for the internal/check oracle, and
// KindLostInvalidation (Plan.LostInvalidationRate) breaks conflict
// detection for the internal/litmus axiomatic checker. They are the only
// way to plant a bug in the simulator.
//
// Determinism contract: the injector draws from its own sim.RNG seeded from
// (Plan.Seed, machine seed), so the same plan and seeds reproduce the same
// fault sequence and therefore a bit-identical run — campaigns are
// replayable and failing plans are shrinkable (ShrinkPlan). A detached
// injector costs nothing; an attached injector with an all-zero plan fires
// no fault, consumes no randomness on rate-guarded paths, and leaves the
// statistics digest byte-identical (the transparency tests assert this).
package fault

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Kind identifies one fault class of the taxonomy.
type Kind int

const (
	// KindEventDelay: bounded random extra latency added to a scheduled
	// simulation event (sim layer).
	KindEventDelay Kind = iota
	// KindNack: a speculative-side directory request refused outright; with
	// NackBurst the refusal repeats, modelling a NACK storm (coherence).
	KindNack
	// KindDirStall: a directory transaction held in a transient state for
	// extra ticks before completing (coherence).
	KindDirStall
	// KindLockStall: a cacheline-lock acquisition denied with a Retry,
	// modelling a directory that momentarily cannot grant the lock
	// (coherence).
	KindLockStall
	// KindLockedLineDelay: extra delay on a request whose target line is
	// cacheline-locked by another core — a forced invalidation burst against
	// the locked-line requester (coherence).
	KindLockedLineDelay
	// KindPowerDeny: the power token refused during a periodic denial
	// window (cpu).
	KindPowerDeny
	// KindSpuriousAbort: a first speculative attempt aborted before
	// executing, like an interrupt or TLB shootdown landing inside the
	// transaction (cpu).
	KindSpuriousAbort
	// KindHolderStall: a lock-walk step stalled after acquiring its lock,
	// modelling preemption of a lock holder (cpu).
	KindHolderStall
	// KindSecondSpecRetry: the §4.3 decision tree deliberately broken — a
	// convertible assessment followed by a second plain speculative retry.
	// This is a *planted bug*, not a tolerable fault: the oracle must catch
	// it (campaigns use it to prove they can).
	KindSecondSpecRetry
	// KindLostInvalidation: conflict detection deliberately broken — a
	// speculative holder losing a line to a requester-wins conflict yields
	// it without aborting, so it may commit values that were concurrently
	// overwritten. Another *planted bug*: the final memory image can still
	// match a serial replay, and the litmus axiomatic checker must catch
	// the resulting fr/co cycle.
	KindLostInvalidation

	// NumKinds is the number of fault kinds.
	NumKinds
)

func (k Kind) String() string {
	switch k {
	case KindEventDelay:
		return "event-delay"
	case KindNack:
		return "nack"
	case KindDirStall:
		return "dir-stall"
	case KindLockStall:
		return "lock-stall"
	case KindLockedLineDelay:
		return "locked-line-delay"
	case KindPowerDeny:
		return "power-deny"
	case KindSpuriousAbort:
		return "spurious-abort"
	case KindHolderStall:
		return "holder-stall"
	case KindSecondSpecRetry:
		return "second-spec-retry"
	case KindLostInvalidation:
		return "lost-invalidation"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// KindFromString resolves a Kind by its String form.
func KindFromString(s string) (Kind, bool) {
	for k := Kind(0); k < NumKinds; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// Plan declares a reproducible fault campaign: per-kind rates, magnitudes,
// and windows. The zero value injects nothing. Rates are probabilities in
// [0,1]; tick fields are magnitudes. Plans are plain data — comparable,
// clonable, and shrinkable.
type Plan struct {
	// Seed drives the injector's private RNG (mixed with the machine seed,
	// so the same plan across different run seeds produces independent but
	// reproducible fault sequences).
	Seed uint64

	// --- sim layer ---

	// EventDelayRate is the probability a scheduled event receives extra
	// latency drawn uniformly from [1, EventDelayMax].
	EventDelayRate float64
	EventDelayMax  sim.Tick

	// --- coherence layer ---

	// NackRate is the probability a deniable directory request (not
	// NonSpec, FailedMode, or Locking) is refused outright. Each fired NACK
	// arms a storm of NackBurst further refusals for the same core.
	NackRate  float64
	NackBurst int

	// StallRate/StallTicks hold a directory transaction in a transient
	// state for StallTicks extra latency.
	StallRate  float64
	StallTicks sim.Tick

	// LockStallRate/LockStallTicks deny a cacheline-lock acquisition with a
	// Retry plus LockStallTicks extra backoff.
	LockStallRate  float64
	LockStallTicks sim.Tick

	// LockedLineDelayRate/LockedLineDelayTicks add delay to requests whose
	// target line is locked by another core (invalidation bursts against
	// locked-line requesters).
	LockedLineDelayRate  float64
	LockedLineDelayTicks sim.Tick

	// --- cpu layer ---

	// PowerDenyPeriod/PowerDenyWindow deny power-token claims whenever
	// tick%Period < Window (a periodic denial window). Zero disables.
	PowerDenyPeriod sim.Tick
	PowerDenyWindow sim.Tick

	// SpuriousAbortRate aborts a first speculative attempt before it
	// executes, with reason htm.AbortSpurious.
	SpuriousAbortRate float64

	// HolderStallRate/HolderStallTicks stall a core's lock walk after a
	// successful acquisition (lock-holder preemption): every other core
	// contending for its held locks spins longer.
	HolderStallRate  float64
	HolderStallTicks sim.Tick

	// SecondSpecRetryRate plants the single-retry-bound bug: after a
	// convertible discovery assessment the core retries speculatively
	// instead of taking the assessed CL mode. Detection, not tolerance, is
	// the expected outcome.
	SecondSpecRetryRate float64

	// LostInvalidationRate plants the conflict-detection bug: a speculative
	// holder hit by a requester-wins conflict keeps running instead of
	// aborting. Detection, not tolerance, is the expected outcome.
	LostInvalidationRate float64
}

// Empty reports whether the plan injects nothing at all.
func (p *Plan) Empty() bool {
	return !p.simActive() && !p.coherenceActive() && !p.cpuActive()
}

func (p *Plan) simActive() bool {
	return p.EventDelayRate > 0 && p.EventDelayMax > 0
}

func (p *Plan) coherenceActive() bool {
	return p.NackRate > 0 || (p.StallRate > 0 && p.StallTicks > 0) ||
		p.LockStallRate > 0 ||
		(p.LockedLineDelayRate > 0 && p.LockedLineDelayTicks > 0)
}

func (p *Plan) cpuActive() bool {
	return (p.PowerDenyPeriod > 0 && p.PowerDenyWindow > 0) ||
		p.SpuriousAbortRate > 0 ||
		(p.HolderStallRate > 0 && p.HolderStallTicks > 0) ||
		p.SecondSpecRetryRate > 0 || p.LostInvalidationRate > 0
}

// Clone returns an independent copy.
func (p *Plan) Clone() *Plan {
	cp := *p
	return &cp
}

// maxTicks caps every tick-valued field of a Plan. The largest preset
// magnitude is 10,000 ticks; a value near 2⁶⁴ wraps the latency it is
// added to, and one past the int range panics the delay draw.
const maxTicks sim.Tick = 1 << 32

// Validate sanity-checks rates and magnitudes.
func (p *Plan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"EventDelayRate", p.EventDelayRate},
		{"NackRate", p.NackRate},
		{"StallRate", p.StallRate},
		{"LockStallRate", p.LockStallRate},
		{"LockedLineDelayRate", p.LockedLineDelayRate},
		{"SpuriousAbortRate", p.SpuriousAbortRate},
		{"HolderStallRate", p.HolderStallRate},
		{"SecondSpecRetryRate", p.SecondSpecRetryRate},
		{"LostInvalidationRate", p.LostInvalidationRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s=%g outside [0,1]", r.name, r.v)
		}
	}
	if p.NackBurst < 0 {
		return fmt.Errorf("fault: NackBurst=%d negative", p.NackBurst)
	}
	for _, f := range []struct {
		name string
		v    sim.Tick
	}{
		{"EventDelayMax", p.EventDelayMax},
		{"StallTicks", p.StallTicks},
		{"LockStallTicks", p.LockStallTicks},
		{"LockedLineDelayTicks", p.LockedLineDelayTicks},
		{"PowerDenyPeriod", p.PowerDenyPeriod},
		{"PowerDenyWindow", p.PowerDenyWindow},
		{"HolderStallTicks", p.HolderStallTicks},
	} {
		if f.v > maxTicks {
			return fmt.Errorf("fault: %s=%d above %d ticks", f.name, f.v, maxTicks)
		}
	}
	if p.PowerDenyWindow > 0 && p.PowerDenyPeriod > 0 && p.PowerDenyWindow >= p.PowerDenyPeriod {
		return fmt.Errorf("fault: PowerDenyWindow=%d >= PowerDenyPeriod=%d (token never grantable)",
			p.PowerDenyWindow, p.PowerDenyPeriod)
	}
	return nil
}

// Disable zeroes every field driving kind k, returning the receiver.
func (p *Plan) Disable(k Kind) *Plan {
	switch k {
	case KindEventDelay:
		p.EventDelayRate, p.EventDelayMax = 0, 0
	case KindNack:
		p.NackRate, p.NackBurst = 0, 0
	case KindDirStall:
		p.StallRate, p.StallTicks = 0, 0
	case KindLockStall:
		p.LockStallRate, p.LockStallTicks = 0, 0
	case KindLockedLineDelay:
		p.LockedLineDelayRate, p.LockedLineDelayTicks = 0, 0
	case KindPowerDeny:
		p.PowerDenyPeriod, p.PowerDenyWindow = 0, 0
	case KindSpuriousAbort:
		p.SpuriousAbortRate = 0
	case KindHolderStall:
		p.HolderStallRate, p.HolderStallTicks = 0, 0
	case KindSecondSpecRetry:
		p.SecondSpecRetryRate = 0
	case KindLostInvalidation:
		p.LostInvalidationRate = 0
	}
	return p
}

// Enabled reports whether kind k can fire under this plan.
func (p *Plan) Enabled(k Kind) bool {
	switch k {
	case KindEventDelay:
		return p.EventDelayRate > 0 && p.EventDelayMax > 0
	case KindNack:
		return p.NackRate > 0
	case KindDirStall:
		return p.StallRate > 0 && p.StallTicks > 0
	case KindLockStall:
		return p.LockStallRate > 0
	case KindLockedLineDelay:
		return p.LockedLineDelayRate > 0 && p.LockedLineDelayTicks > 0
	case KindPowerDeny:
		return p.PowerDenyPeriod > 0 && p.PowerDenyWindow > 0
	case KindSpuriousAbort:
		return p.SpuriousAbortRate > 0
	case KindHolderStall:
		return p.HolderStallRate > 0 && p.HolderStallTicks > 0
	case KindSecondSpecRetry:
		return p.SecondSpecRetryRate > 0
	case KindLostInvalidation:
		return p.LostInvalidationRate > 0
	}
	return false
}

// Restrict disables every kind not named in keep (the clearchaos -faults
// filter), returning the receiver.
func (p *Plan) Restrict(keep map[Kind]bool) *Plan {
	for k := Kind(0); k < NumKinds; k++ {
		if !keep[k] {
			p.Disable(k)
		}
	}
	return p
}

// String renders the non-zero fields compactly ("nack=0.01/burst2
// lock-stall=0.02/+100t ..."); an empty plan renders as "empty".
func (p *Plan) String() string {
	var parts []string
	add := func(s string) { parts = append(parts, s) }
	if p.Enabled(KindEventDelay) {
		add(fmt.Sprintf("event-delay=%g/max%d", p.EventDelayRate, p.EventDelayMax))
	}
	if p.Enabled(KindNack) {
		add(fmt.Sprintf("nack=%g/burst%d", p.NackRate, p.NackBurst))
	}
	if p.Enabled(KindDirStall) {
		add(fmt.Sprintf("dir-stall=%g/+%dt", p.StallRate, p.StallTicks))
	}
	if p.Enabled(KindLockStall) {
		add(fmt.Sprintf("lock-stall=%g/+%dt", p.LockStallRate, p.LockStallTicks))
	}
	if p.Enabled(KindLockedLineDelay) {
		add(fmt.Sprintf("locked-line-delay=%g/+%dt", p.LockedLineDelayRate, p.LockedLineDelayTicks))
	}
	if p.Enabled(KindPowerDeny) {
		add(fmt.Sprintf("power-deny=%d/%dt", p.PowerDenyWindow, p.PowerDenyPeriod))
	}
	if p.Enabled(KindSpuriousAbort) {
		add(fmt.Sprintf("spurious-abort=%g", p.SpuriousAbortRate))
	}
	if p.Enabled(KindHolderStall) {
		add(fmt.Sprintf("holder-stall=%g/+%dt", p.HolderStallRate, p.HolderStallTicks))
	}
	if p.Enabled(KindSecondSpecRetry) {
		add(fmt.Sprintf("second-spec-retry=%g", p.SecondSpecRetryRate))
	}
	if p.Enabled(KindLostInvalidation) {
		add(fmt.Sprintf("lost-invalidation=%g", p.LostInvalidationRate))
	}
	if len(parts) == 0 {
		return "empty"
	}
	return strings.Join(parts, " ")
}

// presets is the named plan registry. "default" is the broad mild mix the
// clearchaos campaign acceptance runs under; "planted" adds the deliberate
// single-retry-bound bug and exists to prove the detectors fire.
var presets = map[string]Plan{
	"off": {},
	"default": {
		EventDelayRate: 0.01, EventDelayMax: 32,
		NackRate: 0.004, NackBurst: 2,
		StallRate: 0.01, StallTicks: 64,
		LockStallRate: 0.02, LockStallTicks: 100,
		LockedLineDelayRate: 0.05, LockedLineDelayTicks: 50,
		PowerDenyPeriod: 10_000, PowerDenyWindow: 1_500,
		SpuriousAbortRate: 0.01,
		HolderStallRate:   0.02, HolderStallTicks: 200,
	},
	"latency": {
		EventDelayRate: 0.05, EventDelayMax: 128,
		StallRate: 0.05, StallTicks: 200,
		LockedLineDelayRate: 0.2, LockedLineDelayTicks: 150,
	},
	"storm": {
		NackRate: 0.02, NackBurst: 8,
		StallRate: 0.02, StallTicks: 120,
	},
	"power": {
		PowerDenyPeriod: 4_000, PowerDenyWindow: 2_000,
		SpuriousAbortRate: 0.05,
	},
	"locks": {
		LockStallRate: 0.1, LockStallTicks: 300,
		HolderStallRate: 0.1, HolderStallTicks: 500,
		LockedLineDelayRate: 0.1, LockedLineDelayTicks: 100,
	},
	"planted": {
		EventDelayRate: 0.01, EventDelayMax: 32,
		NackRate: 0.004, NackBurst: 2,
		SecondSpecRetryRate: 0.5,
	},
}

// Presets lists the available preset names, sorted.
func Presets() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PresetPlan returns a copy of the named preset plan.
func PresetPlan(name string) (*Plan, error) {
	p, ok := presets[name]
	if !ok {
		return nil, fmt.Errorf("fault: unknown plan preset %q (have %s)",
			name, strings.Join(Presets(), ", "))
	}
	return p.Clone(), nil
}
