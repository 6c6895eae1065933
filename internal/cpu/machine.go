// Package cpu implements the simulated multicore machine: per-core
// interpreters of the mini-ISA with indirection-bit tracking, the
// speculative (HTM), failed-mode-discovery, S-CL, NS-CL, and fallback
// execution modes, and the retry-control state machine that glues the
// internal/htm policies and internal/core CLEAR structures together.
package cpu

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stats"
)

// SystemConfig selects the simulated hardware and policy configuration. The
// four configurations of the paper's evaluation are obtained by toggling
// CLEAR and PowerTM:
//
//	B (requester-wins):  CLEAR=false PowerTM=false
//	P (PowerTM):         CLEAR=false PowerTM=true
//	C (CLEAR over B):    CLEAR=true  PowerTM=false
//	W (CLEAR over P):    CLEAR=true  PowerTM=true
//
// harness.ConfigID.Apply is the one place a configuration letter sets them.
// Planted bugs are not configuration: they come only from an
// internal/fault plan through the FaultHook seam.
type SystemConfig struct {
	Cores int
	// RetryLimit is how many conflict-counted aborts are allowed before the
	// fallback path (the paper sweeps 1..10 and picks the best per
	// application).
	RetryLimit int
	// CLEAR enables discovery and the cacheline-locked retry modes.
	CLEAR bool
	// PowerTM enables the power-token priority policy.
	PowerTM bool
	// SQEntries is the store-queue capacity (72 in Table 2).
	SQEntries int
	// StaticLocking selects the §2.2 non-speculative baseline (MAD
	// atomics / hardware MCAS): ARs whose footprint is computable from the
	// preset registers alone skip speculation entirely and execute under
	// ordered cacheline locking from the start; all other ARs run on the
	// plain speculative baseline. No CLEAR structures are involved.
	StaticLocking bool
	// SLE selects in-core speculation (§4.1): the speculative window is
	// bounded by the ROB and load queue, so ARs larger than those
	// structures can never complete speculatively and failed-mode
	// discovery cannot run past them (§4.2's HTM mode lifts this, leaving
	// only the SQ as the limit).
	SLE bool
	// ROBEntries and LQEntries bound the in-core window when SLE is set
	// (352 and 128 in Table 2).
	ROBEntries int
	LQEntries  int
	// L1 is the private data-cache geometry (read/write-set capacity).
	L1 cache.Geometry
	// DirectorySets defines the lexicographic lock order granularity.
	DirectorySets int
	// Mesh replaces the Table 2 crossbar with a 2D mesh interconnect whose
	// directory banks are distributed over the nodes (per-hop pricing).
	Mesh bool
	// MeshHopLatency and MeshRouterLatency price the mesh links.
	MeshHopLatency    sim.Tick
	MeshRouterLatency sim.Tick
	Lat               coherence.Latencies
	// AbortPenalty models the pipeline flush plus checkpoint restore
	// between an abort and the retry.
	AbortPenalty sim.Tick
	// BackoffBase scales the randomized exponential backoff added to
	// AbortPenalty on conflict retries — the standard software retry-loop
	// policy for best-effort HTM; without it, aborted threads retry in
	// lockstep and convoy into the fallback path.
	BackoffBase sim.Tick
	// SpinInterval is the polling period while waiting on the fallback
	// lock (at least 1).
	SpinInterval sim.Tick
	// Seed drives the per-core backoff jitter (deterministic per run).
	Seed uint64
	// CommitStoreLat is the per-store cost of draining the SQ at commit.
	CommitStoreLat sim.Tick
	// DisableDiscoveryContinuation aborts at the first conflict even when
	// discovery is active (the ablation bench: without failed-mode
	// continuation CLEAR only learns complete footprints from conflict-free
	// prefixes, so most conversions are lost).
	DisableDiscoveryContinuation bool
	// SCLLockAllReads locks the full learned footprint in S-CL instead of
	// writes+CRT (the §4.4.2 "lock all" alternative; an ablation).
	SCLLockAllReads bool
	// ERTEntries, ALTEntries, CRTEntries and CRTWays override the sizes of
	// CLEAR's per-core tables for sizing ablations; zero selects the
	// paper's values (16, 32, 64/8-way).
	ERTEntries int
	ALTEntries int
	CRTEntries int
	CRTWays    int
	// Policy selects the retry policy owning the §4.3 next-mode decision
	// (internal/policy). The zero value is the paper-exact CLEAR policy,
	// bit-identical to the hard-wired decision tree it replaced; non-default
	// policies are a scenario axis keyed into the runstore cache exactly
	// like the CLEAR/PowerTM toggles.
	Policy policy.Spec
}

// DefaultSystemConfig mirrors Table 2 with CLEAR and PowerTM off
// (configuration B).
func DefaultSystemConfig() SystemConfig {
	return SystemConfig{
		Cores:             32,
		RetryLimit:        4,
		SQEntries:         72,
		ROBEntries:        352,
		LQEntries:         128,
		L1:                cache.L1DGeometry,
		DirectorySets:     4096,
		MeshHopLatency:    2,
		MeshRouterLatency: 3,
		Lat:               coherence.DefaultLatencies(),
		AbortPenalty:      30,
		BackoffBase:       64,
		SpinInterval:      40,
		Seed:              1,
		CommitStoreLat:    1,
	}
}

// Validate sanity-checks the configuration.
func (c SystemConfig) Validate() error {
	if c.Cores <= 0 || c.Cores > 64 {
		return fmt.Errorf("cpu: core count %d out of range", c.Cores)
	}
	if c.RetryLimit < 1 {
		return fmt.Errorf("cpu: retry limit %d must be >= 1", c.RetryLimit)
	}
	if c.SQEntries < 1 {
		return fmt.Errorf("cpu: SQ size %d must be >= 1", c.SQEntries)
	}
	if c.SpinInterval < 1 {
		// A zero poll period would stop simulated time while a core waits
		// on the fallback lock, so the tick budget could never fire.
		return fmt.Errorf("cpu: spin interval %d must be >= 1", c.SpinInterval)
	}
	return nil
}

// Machine is one simulated multicore system executing one benchmark run.
type Machine struct {
	Cfg      SystemConfig
	Engine   *sim.Engine
	Mem      *mem.Memory
	Dir      *coherence.Directory
	Fallback *htm.FallbackLock
	Power    *htm.PowerToken
	Stats    *stats.Run
	Cores    []*Core

	remaining int

	// probe, when non-nil, observes attempt lifecycle events (see Probe in
	// probe.go). Nil by default: notification sites pay one pointer
	// comparison. Multiple observers (oracle, tracer, metrics) attach via
	// AddProbe, which tees them.
	probe Probe

	// fault, when non-nil, perturbs the retry-control state machine (see
	// FaultHook in fault.go). Nil by default, same cost discipline as probe.
	fault FaultHook
}

// NewMachine assembles a machine around an already-populated memory (the
// workload's Setup has run). The fallback lock line is allocated here.
func NewMachine(cfg SystemConfig, memory *mem.Memory) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dirCfg := coherence.Config{
		NumCores: cfg.Cores,
		Sets:     cfg.DirectorySets,
		Lat:      cfg.Lat,
	}
	if cfg.Mesh {
		dirCfg.Topo = noc.NewMesh(cfg.Cores, cfg.MeshHopLatency, cfg.MeshRouterLatency)
	}
	dir := coherence.NewDirectory(dirCfg)
	m := &Machine{
		Cfg:      cfg,
		Engine:   sim.NewEngine(),
		Mem:      memory,
		Dir:      dir,
		Fallback: htm.NewFallbackLock(memory.AllocLine().Line()),
		Power:    htm.NewPowerToken(),
		Stats:    &stats.Run{},
	}
	m.Cores = make([]*Core, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		m.Cores[i] = newCore(i, m)
		dir.RegisterHook(i, m.Cores[i])
	}
	return m, nil
}

// AttachFeeds gives each core its invocation stream. Cores without a feed
// (len(feeds) < Cores) stay idle.
func (m *Machine) AttachFeeds(feeds []InvocationSource) {
	for i, f := range feeds {
		if i >= len(m.Cores) {
			break
		}
		m.Cores[i].feed = f
	}
}

// Run starts every fed core and executes the simulation to completion. It
// returns an error if the event queue stalls or maxTicks elapses before all
// cores finish — both indicate a deadlock or livelock in the protocol under
// test (the HoldOnLocked experiments trigger this deliberately).
func (m *Machine) Run(maxTicks sim.Tick) error {
	return m.RunGuarded(maxTicks, 0, nil)
}

// RunGuarded runs like Run but pauses the event loop every `every` simulated
// ticks to call guard. A non-nil guard error stops the run and is returned
// verbatim — harness.Run passes the invariant oracle's Check here, so a
// livelock or any other oracle violation becomes a structured failure at the
// next slice boundary instead of after the tick budget burns out. Guard callbacks run between events and
// must not schedule anything, so a nil-returning guard leaves the run
// bit-identical to an unguarded one. every==0 or guard==nil degrades to a
// single uninterrupted RunUntil.
func (m *Machine) RunGuarded(maxTicks sim.Tick, every sim.Tick, guard func() error) error {
	m.remaining = 0
	for _, c := range m.Cores {
		if c.feed != nil {
			m.remaining++
			c.start()
		}
	}
	if m.remaining == 0 {
		return nil
	}
	var drained bool
	if every == 0 || guard == nil {
		drained = m.Engine.RunUntil(maxTicks)
	} else {
		for next := every; ; next += every {
			if next > maxTicks {
				next = maxTicks
			}
			drained = m.Engine.RunUntil(next)
			if drained || m.remaining == 0 || next >= maxTicks {
				break
			}
			if err := guard(); err != nil {
				return err
			}
		}
	}
	if m.remaining > 0 {
		if drained {
			return fmt.Errorf("cpu: event queue drained with %d cores unfinished (deadlock)", m.remaining)
		}
		return fmt.Errorf("cpu: %d cores unfinished after %d ticks (livelock or undersized budget)", m.remaining, maxTicks)
	}
	m.Stats.Cycles = m.Engine.Now()
	return nil
}

func (m *Machine) coreFinished() {
	m.remaining--
	if m.remaining == 0 {
		m.Engine.Stop()
	}
}
