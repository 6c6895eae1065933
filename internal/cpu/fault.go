package cpu

import "repro/internal/sim"

// FaultHook is the cpu-layer fault-injection seam. The machine consults it
// (when installed) at the points where the retry-control state machine is
// most sensitive to environmental interference. All answers must be
// deterministic functions of the injector's private RNG so runs stay
// reproducible.
//
// Every hook models a *tolerable* disturbance — a denied token, an early
// abort, a stalled holder — except ForceSecondSpecRetry and
// LoseInvalidation, which plant bugs on purpose so tests and campaigns can
// prove the oracle and the litmus checker detect them.
type FaultHook interface {
	// DenyPowerClaim refuses a PowerTM token claim for core (a periodic
	// denial window); the retry proceeds without priority.
	DenyPowerClaim(core int) bool
	// SpuriousAbort kills core's first speculative attempt before it
	// executes (interrupt / TLB shootdown inside the window).
	SpuriousAbort(core int) bool
	// PreemptHolder returns extra ticks to stall core's lock walk after a
	// successful acquisition (lock-holder preemption); zero means no fault.
	PreemptHolder(core int) sim.Tick
	// ForceSecondSpecRetry makes core take a second plain speculative retry
	// after a convertible discovery assessment — the planted §4.3 bug.
	ForceSecondSpecRetry(core int) bool
	// LoseInvalidation makes core, a speculative holder losing a line to a
	// requester-wins conflict, yield it without aborting — the planted
	// conflict-detection bug.
	LoseInvalidation(core int) bool
}

// SetFaultHook installs (or, with nil, removes) the cpu-layer fault hook.
// Nil by default: each consultation site pays one pointer comparison.
func (m *Machine) SetFaultHook(h FaultHook) { m.fault = h }
