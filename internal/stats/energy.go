package stats

import "repro/internal/coherence"

// EnergyModel is the event-counting substitute for McPAT: total energy is
// static power integrated over the run plus a per-event dynamic charge. The
// coefficients are abstract (arbitrary units); only ratios between
// configurations are meaningful, which is also how the paper reports energy
// (normalized to requester-wins).
type EnergyModel struct {
	// StaticPerCoreCycle is leakage+clock energy per core per cycle.
	StaticPerCoreCycle float64
	// DynamicPerInstr covers fetch/decode/execute of one instruction.
	DynamicPerInstr float64
	// DynamicPerL1Access covers an L1 lookup.
	DynamicPerL1Access float64
	// DynamicPerDirectoryOp covers a directory transaction (L3 tag+TSV).
	DynamicPerDirectoryOp float64
	// DynamicPerMemoryFetch covers a DRAM access.
	DynamicPerMemoryFetch float64
	// DynamicPerNetworkMsg covers one interconnect message (invalidations,
	// nacks, forwards, retries).
	DynamicPerNetworkMsg float64
	// DynamicPerHop covers one link traversal (topology-dependent; the
	// mesh pays more hops than the crossbar for the same traffic).
	DynamicPerHop float64
}

// DefaultEnergyModel returns coefficients with McPAT-like proportions for a
// 22nm out-of-order core: static energy dominates at low activity, DRAM
// accesses are roughly two orders of magnitude costlier than an L1 access.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{
		StaticPerCoreCycle:    0.30,
		DynamicPerInstr:       1.0,
		DynamicPerL1Access:    0.5,
		DynamicPerDirectoryOp: 5.0,
		DynamicPerMemoryFetch: 60.0,
		DynamicPerNetworkMsg:  2.0,
		DynamicPerHop:         0.5,
	}
}

// Energy computes the run's total energy in abstract units. Each product
// is rounded by an explicit float64 conversion: Go may otherwise fuse a
// multiply into the following add (it does on arm64), and the same run
// would report a different last digit on such hosts.
func (m EnergyModel) Energy(r *Run, dir coherence.Stats, cores int) float64 {
	static := float64(m.StaticPerCoreCycle * float64(r.Cycles) * float64(cores))
	instr := float64(m.DynamicPerInstr * float64(r.Instructions+r.AbortedInstructions))
	l1 := float64(m.DynamicPerL1Access * float64(r.L1Accesses))
	dirOps := float64(m.DynamicPerDirectoryOp * float64(dir.Reads+dir.Writes+dir.Locks+dir.Unlocks))
	mems := float64(m.DynamicPerMemoryFetch * float64(dir.MemoryFetches))
	msgs := float64(m.DynamicPerNetworkMsg * float64(dir.Invalidations+dir.Downgrades+dir.Nacks+dir.Retries+dir.Forwards))
	hops := float64(m.DynamicPerHop * float64(dir.Hops))
	return static + instr + l1 + dirOps + mems + msgs + hops
}

// Breakdown itemises the energy of a run per component; the clearsim report
// prints it so the static/dynamic split behind Figure 10 is inspectable.
type Breakdown struct {
	Static    float64
	Instr     float64
	L1        float64
	Directory float64
	Memory    float64
	Network   float64
	Total     float64
}

// EnergyBreakdown computes the per-component split of Energy, with the
// same explicit rounding of each product.
func (m EnergyModel) EnergyBreakdown(r *Run, dir coherence.Stats, cores int) Breakdown {
	b := Breakdown{
		Static:    float64(m.StaticPerCoreCycle * float64(r.Cycles) * float64(cores)),
		Instr:     float64(m.DynamicPerInstr * float64(r.Instructions+r.AbortedInstructions)),
		L1:        float64(m.DynamicPerL1Access * float64(r.L1Accesses)),
		Directory: float64(m.DynamicPerDirectoryOp * float64(dir.Reads+dir.Writes+dir.Locks+dir.Unlocks)),
		Memory:    float64(m.DynamicPerMemoryFetch * float64(dir.MemoryFetches)),
		Network: float64(m.DynamicPerNetworkMsg*float64(dir.Invalidations+dir.Downgrades+dir.Nacks+dir.Retries+dir.Forwards)) +
			float64(m.DynamicPerHop*float64(dir.Hops)),
	}
	b.Total = b.Static + b.Instr + b.L1 + b.Directory + b.Memory + b.Network
	return b
}
