package check

import (
	"fmt"

	"repro/internal/sim"
)

// Property names the five checked invariant families (see DESIGN.md,
// "Verification").
const (
	// PropMESI: directory single-writer / sharer-bitset consistency, and
	// exclusive coverage of committing stores.
	PropMESI = "mesi"
	// PropLockOrder: NS-CL/S-CL cacheline locks are acquired in the
	// lexicographic (directory set, line) order and the waits-for graph of
	// lock acquisitions stays acyclic.
	PropLockOrder = "lock-order"
	// PropSingleRetry: the paper's headline bound — after a convertible
	// discovery assessment, an AR never performs a second plain speculative
	// re-execution; the §4.3 decision is honoured by the next attempt.
	PropSingleRetry = "single-retry"
	// PropFootprint: an NS-CL re-execution touches exactly the footprint
	// discovery learned (immutability held in practice).
	PropFootprint = "footprint"
	// PropLiveness: forward progress — while invocations are in flight,
	// some core commits within every LivelockWindow ticks.
	PropLiveness = "liveness"
)

// Violation is one invariant failure the oracle observed.
type Violation struct {
	// Tick is the simulation time of the observation.
	Tick sim.Tick
	// Property is one of the Prop* constants.
	Property string
	// Core is the core the violation is attributed to, or -1 for
	// machine-global checks.
	Core int
	// Msg describes the failure.
	Msg string
}

func (v Violation) String() string {
	return fmt.Sprintf("[tick %d core %d] %s: %s", v.Tick, v.Core, v.Property, v.Msg)
}
