package harness

import (
	"fmt"

	"repro/internal/coherence"
	clear "repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// WatchdogConfig tunes the forward-progress watchdog. The zero value selects
// the defaults below.
type WatchdogConfig struct {
	// LivelockWindow is the sliding sim-tick window without a single commit
	// (while invocations are in flight) after which the run is declared
	// livelocked. Default 3,000,000 ticks — two orders of magnitude above
	// any observed commit gap in the baseline sweeps.
	LivelockWindow sim.Tick
	// CheckEvery is how often (sim ticks) the event loop pauses to run the
	// detectors. Default 200,000.
	CheckEvery sim.Tick
}

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	if c.LivelockWindow == 0 {
		c.LivelockWindow = 3_000_000
	}
	if c.CheckEvery == 0 {
		c.CheckEvery = 200_000
	}
	return c
}

// WatchdogReport summarises what the watchdog saw during one run — the
// robustness metrics a chaos campaign aggregates.
type WatchdogReport struct {
	// Commits counts committed attempts (all modes).
	Commits uint64
	// Degradations counts commits that degraded to the serialized fallback
	// path — graceful-degradation events under fault pressure.
	Degradations uint64
	// MaxConflictRetries is the worst conflict-counted retry total observed
	// at any commit.
	MaxConflictRetries int
	// MaxCommitLatency is the worst invocation-start-to-commit latency.
	MaxCommitLatency sim.Tick
	// RetryBoundViolations counts detected single-retry-bound violations
	// (each also latches the watchdog error).
	RetryBoundViolations uint64
	// LivelockDetected reports a tripped livelock window, at LivelockTick.
	LivelockDetected bool
	LivelockTick     sim.Tick
	// WaitCycle is the waits-for cycle (core ids) that survived past the
	// ordered-locking guarantee, if one was detected.
	WaitCycle []int
}

type watchCore struct {
	inFlight  bool
	invStart  sim.Tick
	converted bool
	waiting   bool
	waitLine  mem.LineAddr
}

// Watchdog is the forward-progress detector: attached through the machine's
// probe/observer tee seams, it shadows commit progress, the §4.3 conversion
// state, and lock waits; Check (called by Machine.RunGuarded between event
// slices) turns a stalled window, a persistent waits-for cycle, or a
// single-retry-bound violation into a structured error long before the tick
// budget burns out.
//
// Like every probe, the watchdog never mutates simulation state, consults no
// RNG, and schedules nothing — runs are bit-identical with it attached.
type Watchdog struct {
	cfg WatchdogConfig
	eng *sim.Engine
	dir *coherence.Directory

	cores        []watchCore
	active       int
	lastProgress sim.Tick
	prevCycle    string

	report WatchdogReport
	err    error
}

// AttachWatchdog hooks a watchdog into m via AddProbe/AddObserver (composing
// with an oracle, tracer, or metrics collector already attached).
func AttachWatchdog(m *cpu.Machine, cfg WatchdogConfig) *Watchdog {
	w := &Watchdog{
		cfg:   cfg.withDefaults(),
		eng:   m.Engine,
		dir:   m.Dir,
		cores: make([]watchCore, len(m.Cores)),
	}
	m.AddProbe(w)
	m.Dir.AddObserver(w)
	return w
}

// Report returns a copy of the accumulated robustness metrics.
func (w *Watchdog) Report() WatchdogReport {
	r := w.report
	r.WaitCycle = append([]int(nil), w.report.WaitCycle...)
	return r
}

// Err returns the latched watchdog error, if any.
func (w *Watchdog) Err() error { return w.err }

func (w *Watchdog) violate(core int, format string, args ...any) {
	w.report.RetryBoundViolations++
	if w.err == nil {
		w.err = fmt.Errorf("watchdog: core %d: %s (tick %d)",
			core, fmt.Sprintf(format, args...), w.eng.Now())
	}
}

// Check runs the forward-progress detectors; RunGuarded calls it between
// event slices. A non-nil return stops the run.
func (w *Watchdog) Check() error {
	if w.err != nil {
		return w.err
	}
	now := w.eng.Now()
	if w.active > 0 && now-w.lastProgress > w.cfg.LivelockWindow {
		w.report.LivelockDetected = true
		w.report.LivelockTick = now
		if cycle := w.findWaitCycle(); len(cycle) > 0 {
			w.report.WaitCycle = cycle
			w.err = fmt.Errorf("watchdog: waits-for cycle among cores %v survived the ordered-locking guarantee (no commit for %d ticks, tick %d)",
				cycle, now-w.lastProgress, now)
		} else {
			w.err = fmt.Errorf("watchdog: livelock: no commit for %d ticks with %d invocations in flight (tick %d)",
				now-w.lastProgress, w.active, now)
		}
		return w.err
	}
	// A waits-for cycle must never persist even while other cores commit:
	// require the identical cycle (same cores, same lines) across two
	// consecutive checks before declaring it — transient snapshots during a
	// legal lock handoff resolve within one backoff, far below CheckEvery.
	if cycle := w.findWaitCycle(); len(cycle) > 0 {
		fp := w.cycleFingerprint(cycle)
		if fp == w.prevCycle {
			w.report.WaitCycle = cycle
			w.err = fmt.Errorf("watchdog: waits-for cycle among cores %v persisted across %d ticks (tick %d)",
				cycle, w.cfg.CheckEvery, now)
			return w.err
		}
		w.prevCycle = fp
	} else {
		w.prevCycle = ""
	}
	return nil
}

// findWaitCycle walks the lock waits-for graph (core -> holder of the line
// it is retrying to lock) and returns one cycle, rotated so the smallest
// core id leads; nil when the graph is acyclic.
func (w *Watchdog) findWaitCycle() []int {
	n := len(w.cores)
	next := make([]int, n)
	for c := range w.cores {
		next[c] = -1
		if w.cores[c].waiting {
			if h := w.dir.LockedBy(w.cores[c].waitLine); h >= 0 && h != c {
				next[c] = h
			}
		}
	}
	state := make([]int, n) // 0 unvisited, 1 on current path, 2 done
	for s := 0; s < n; s++ {
		if state[s] != 0 {
			continue
		}
		var path []int
		c := s
		for c >= 0 && state[c] == 0 {
			state[c] = 1
			path = append(path, c)
			c = next[c]
		}
		if c >= 0 && state[c] == 1 {
			i := 0
			for path[i] != c {
				i++
			}
			return rotateMinFirst(path[i:])
		}
		for _, p := range path {
			state[p] = 2
		}
	}
	return nil
}

func rotateMinFirst(cycle []int) []int {
	minAt := 0
	for i, c := range cycle {
		if c < cycle[minAt] {
			minAt = i
		}
	}
	out := make([]int, 0, len(cycle))
	out = append(out, cycle[minAt:]...)
	out = append(out, cycle[:minAt]...)
	return out
}

func (w *Watchdog) cycleFingerprint(cycle []int) string {
	fp := ""
	for _, c := range cycle {
		fp += fmt.Sprintf("%d@%d;", c, uint64(w.cores[c].waitLine))
	}
	return fp
}

// --- cpu.Probe ---

func (w *Watchdog) OnInvocationStart(core int, progID int) {
	cs := &w.cores[core]
	if !cs.inFlight {
		w.active++
	}
	cs.inFlight = true
	cs.invStart = w.eng.Now()
	cs.converted = false
	cs.waiting = false
	if w.active == 1 && w.report.Commits == 0 {
		// First work in the run: start the progress window now, not at
		// tick zero.
		w.lastProgress = w.eng.Now()
	}
}

func (w *Watchdog) OnAttemptStart(core int, mode cpu.Mode, attempt int, footprint []mem.LineAddr) {
	cs := &w.cores[core]
	cs.waiting = false
	if mode == cpu.ModeSpeculative && cs.converted {
		w.violate(core, "attempt %d is a second plain speculative re-execution after a convertible discovery assessment", attempt)
	}
}

func (w *Watchdog) OnAttemptEnd(info cpu.AttemptEndInfo) {
	cs := &w.cores[info.Core]
	cs.waiting = false
	assessedCL := info.Assessed &&
		(info.Assessment.Mode == clear.RetrySCL || info.Assessment.Mode == clear.RetryNSCL)
	if assessedCL && info.NextMode == clear.RetrySpeculative {
		w.violate(info.Core, "discovery assessed the AR convertible (%v) but the next attempt is speculative",
			info.Assessment.Mode)
	}
	if assessedCL {
		cs.converted = true
	} else if (info.Mode == cpu.ModeSCL || info.Mode == cpu.ModeNSCL) &&
		info.NextMode == clear.RetrySpeculative {
		// Legal rediscovery after a stale-footprint CL failure.
		cs.converted = false
	}
}

func (w *Watchdog) OnCommit(info cpu.CommitInfo) {
	cs := &w.cores[info.Core]
	now := w.eng.Now()
	w.report.Commits++
	if info.Mode == cpu.ModeFallback {
		w.report.Degradations++
	}
	if info.ConflictRetries > w.report.MaxConflictRetries {
		w.report.MaxConflictRetries = info.ConflictRetries
	}
	if cs.inFlight {
		if lat := now - cs.invStart; lat > w.report.MaxCommitLatency {
			w.report.MaxCommitLatency = lat
		}
		cs.inFlight = false
		w.active--
	}
	cs.converted = false
	cs.waiting = false
	w.lastProgress = now
}

func (w *Watchdog) OnMemAccess(core int, addr mem.Addr, value uint64, isWrite bool, mode cpu.Mode) {
}

func (w *Watchdog) OnConflict(core int, line mem.LineAddr, isWrite bool, requester int) {}

// --- coherence.Observer ---

func (w *Watchdog) OnAccess(core int, line mem.LineAddr, isWrite bool, attrs coherence.ReqAttrs, res coherence.AccessResult) {
}

func (w *Watchdog) OnLock(core int, line mem.LineAddr, res coherence.LockResult) {
	cs := &w.cores[core]
	if res.Retry {
		cs.waiting = true
		cs.waitLine = line
	} else {
		cs.waiting = false
	}
}

func (w *Watchdog) OnUnlock(core int, line mem.LineAddr) {}

func (w *Watchdog) OnEvict(core int, line mem.LineAddr) {}

var _ cpu.Probe = (*Watchdog)(nil)
var _ coherence.Observer = (*Watchdog)(nil)
