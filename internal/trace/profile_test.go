package trace

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ev builders for hand-ticked synthetic streams (the tracer stamps events
// with engine time, which never advances in unit tests).
func pInvoke(tick sim.Tick, core int, prog int) Event {
	return Event{Tick: tick, Kind: KindInvocationStart, Core: uint8(core), Addr: uint64(prog)}
}
func pAttempt(tick sim.Tick, core int, prog int, mode cpu.Mode) Event {
	return Event{Tick: tick, Kind: KindAttemptStart, Core: uint8(core), Arg0: uint8(mode), Addr: uint64(prog)}
}
func pAbort(tick sim.Tick, core int, prog int, mode cpu.Mode, reason htm.AbortReason) Event {
	return Event{Tick: tick, Kind: KindAttemptEnd, Core: uint8(core), Arg0: uint8(mode), Arg1: uint8(reason), Addr: uint64(prog)}
}
func pCommit(tick sim.Tick, core int, prog int, mode cpu.Mode) Event {
	return Event{Tick: tick, Kind: KindCommit, Core: uint8(core), Arg0: uint8(mode), Addr: uint64(prog)}
}
func pConflict(tick sim.Tick, holder int, requester int, line mem.LineAddr) Event {
	return Event{Tick: tick, Kind: KindConflict, Core: uint8(holder), Arg1: uint8(requester), Addr: uint64(line)}
}
func pLock(tick sim.Tick, core int, line mem.LineAddr, outcome uint8, holder int) Event {
	var h uint8
	if holder >= 0 {
		h = uint8(holder + 1)
	}
	return Event{Tick: tick, Kind: KindLock, Core: uint8(core), Arg0: outcome, Arg1: h, Addr: uint64(line)}
}

func findEdge(t *testing.T, p *Profile, aborter, victim int, via string) AbortEdge {
	t.Helper()
	for _, e := range p.Edges {
		if e.Aborter == aborter && e.Victim == victim && e.Via == via {
			return e
		}
	}
	t.Fatalf("no edge %d->%d via %q in %+v", aborter, victim, via, p.Edges)
	return AbortEdge{}
}

// TestProfileAttribution drives every attribution mechanism once through a
// hand-built four-core stream and checks the edges, the ticks-lost
// accounting, the line profile, and the retry-to-commit latency.
func TestProfileAttribution(t *testing.T) {
	meta := Meta{Cores: 4, ARNames: map[int]string{1: "alpha", 2: "beta"}}
	evs := []Event{
		// Core 0: conflict-attributed abort (requester core 1), then a
		// committing retry: retry-to-commit latency = 70-30 = 40.
		pInvoke(0, 0, 1),
		pAttempt(10, 0, 1, cpu.ModeSpeculative),
		pConflict(20, 0, 1, 0x40),
		pAbort(30, 0, 1, cpu.ModeSpeculative, htm.AbortMemoryConflict),
		pAttempt(35, 0, 1, cpu.ModeSpeculative),
		pCommit(70, 0, 1, cpu.ModeSpeculative),

		// Core 1: fallback-mode attempt (the global-lock holder) that
		// core 3's fallback-subscription abort attributes to.
		pInvoke(100, 1, 2),
		pAttempt(100, 1, 2, cpu.ModeFallback),
		pInvoke(100, 3, 1),
		pAttempt(105, 3, 1, cpu.ModeSpeculative),
		pAbort(125, 3, 1, cpu.ModeSpeculative, htm.AbortOtherFallback),
		pCommit(140, 1, 2, cpu.ModeFallback),

		// Core 2: waits on line 7 held by core 3 (event-carried holder),
		// then aborts while waiting: wait-chain attribution, 40 wait ticks.
		pInvoke(200, 2, 2),
		pAttempt(200, 2, 2, cpu.ModeNSCL),
		pLock(210, 2, 7, LockRetry, 3),
		pAbort(250, 2, 2, cpu.ModeNSCL, htm.AbortMemoryConflict),

		// Core 3: self-inflicted capacity abort and an injected spurious one.
		pAttempt(300, 3, 1, cpu.ModeSpeculative),
		pAbort(320, 3, 1, cpu.ModeSpeculative, htm.AbortCapacity),
		pAttempt(330, 3, 1, cpu.ModeSpeculative),
		pAbort(340, 3, 1, cpu.ModeSpeculative, htm.AbortSpurious),
	}
	p := BuildProfile(meta, evs)

	if p.Invocations != 4 || p.Attempts != 7 || p.Commits != 2 || p.Aborts != 5 {
		t.Fatalf("totals: %d inv, %d att, %d commits, %d aborts", p.Invocations, p.Attempts, p.Commits, p.Aborts)
	}
	if p.Attributed != 3 || p.Unattributed != 2 {
		t.Fatalf("attribution split: %d attributed, %d unattributed", p.Attributed, p.Unattributed)
	}

	if e := findEdge(t, p, 1, 0, "conflict"); e.Count != 1 || e.TicksLost != 20 || e.Reason != htm.AbortMemoryConflict {
		t.Fatalf("conflict edge: %+v", e)
	}
	if e := findEdge(t, p, 1, 3, "fallback"); e.Count != 1 || e.TicksLost != 20 {
		t.Fatalf("fallback edge: %+v", e)
	}
	if e := findEdge(t, p, 3, 2, "lock-holder"); e.Count != 1 || e.TicksLost != 50 {
		t.Fatalf("wait-chain edge: %+v", e)
	}
	if e := findEdge(t, p, -1, 3, "self"); e.Reason != htm.AbortCapacity {
		t.Fatalf("self edge: %+v", e)
	}
	findEdge(t, p, -1, 3, "injected")

	if p.AbortedTicks != 20+20+50+20+10 {
		t.Fatalf("aborted ticks: %d", p.AbortedTicks)
	}
	if p.TicksLostByReason[htm.AbortMemoryConflict] != 70 {
		t.Fatalf("ticks lost to memory-conflict: %d", p.TicksLostByReason[htm.AbortMemoryConflict])
	}
	if p.LockWaitTicks != 40 {
		t.Fatalf("lock wait ticks: %d", p.LockWaitTicks)
	}

	if len(p.Lines) != 2 {
		t.Fatalf("want 2 contended lines, got %+v", p.Lines)
	}
	// Line 7 leads on wait ticks.
	if l := p.Lines[0]; l.Line != 7 || l.Retries != 1 || l.WaitTicks != 40 || l.MaxWait != 40 || l.Waiters != 1 {
		t.Fatalf("line 7 profile: %+v", l)
	}
	if l := p.Lines[1]; l.Line != 0x40 || l.Conflicts != 1 {
		t.Fatalf("line 0x40 profile: %+v", l)
	}

	if p.RetryLatency.Count != 1 || p.RetryLatency.Max != 40 {
		t.Fatalf("retry latency: %+v", p.RetryLatency)
	}
	if p.CommitsByMode[stats.CommitSpeculative] != 1 || p.CommitsByMode[stats.CommitFallback] != 1 {
		t.Fatalf("commits by mode: %+v", p.CommitsByMode)
	}

	// Per-AR split: alpha carries the conflict + capacity + spurious +
	// fallback-subscription aborts, beta the wait-chain one.
	var alpha, beta *ARProfile
	for i := range p.ARs {
		switch p.ARs[i].Name {
		case "alpha":
			alpha = &p.ARs[i]
		case "beta":
			beta = &p.ARs[i]
		}
	}
	if alpha == nil || beta == nil {
		t.Fatalf("missing AR profiles: %+v", p.ARs)
	}
	if alpha.Aborts != 4 || alpha.Commits != 1 || beta.Aborts != 1 || beta.Commits != 1 {
		t.Fatalf("per-AR totals: alpha=%+v beta=%+v", alpha, beta)
	}
	if beta.LockWaitTicks != 40 {
		t.Fatalf("beta lock wait: %+v", beta)
	}

	// The edge table must account for every abort (CrossCheck's last gate).
	var edgeCount int
	for _, e := range p.Edges {
		edgeCount += e.Count
	}
	if edgeCount != p.Aborts {
		t.Fatalf("edges cover %d of %d aborts", edgeCount, p.Aborts)
	}
}

// TestProfileHolderFallsBackToAcquire checks that a retry event without a
// carried holder (old traces) still gets wait-chain attribution through the
// reconstructed acquire->unlock holder map.
func TestProfileHolderFallsBackToAcquire(t *testing.T) {
	meta := Meta{Cores: 2}
	evs := []Event{
		pAttempt(0, 0, 1, cpu.ModeNSCL),
		pLock(5, 0, 9, LockOK, -1),
		pAttempt(10, 1, 1, cpu.ModeNSCL),
		pLock(20, 1, 9, LockRetry, -1), // no carried holder
		pAbort(60, 1, 1, cpu.ModeNSCL, htm.AbortMemoryConflict),
	}
	p := BuildProfile(meta, evs)
	if e := findEdge(t, p, 0, 1, "lock-holder"); e.Count != 1 {
		t.Fatalf("fallback-holder edge: %+v", e)
	}
}

// TestProfileTruncatedStream checks open waits at end-of-stream are closed
// at the last tick instead of leaking.
func TestProfileTruncatedStream(t *testing.T) {
	meta := Meta{Cores: 2}
	evs := []Event{
		pAttempt(0, 1, 1, cpu.ModeNSCL),
		pLock(10, 1, 3, LockRetry, 0),
		pCommit(50, 0, 2, cpu.ModeSpeculative), // just advances LastTick
	}
	p := BuildProfile(meta, evs)
	if p.LockWaitTicks != 40 {
		t.Fatalf("truncated wait: %d ticks", p.LockWaitTicks)
	}
}

// TestSampleIntervalsBoundary pins the boundary convention: an event at
// exactly Start+Width belongs to the next interval, not the closing one.
func TestSampleIntervalsBoundary(t *testing.T) {
	meta := Meta{Cores: 2}
	evs := []Event{
		pCommit(0, 0, 1, cpu.ModeSpeculative),
		pCommit(10, 0, 1, cpu.ModeSpeculative), // exactly on the boundary
	}
	s, err := SampleIntervals(meta, evs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 {
		t.Fatalf("want 2 intervals, got %d: %+v", len(s), s)
	}
	if s[0].Commits != 1 || s[1].Commits != 1 {
		t.Fatalf("boundary event landed wrong: %+v", s)
	}
	if s[1].Start != 10 {
		t.Fatalf("second interval start: %+v", s[1])
	}
}

// TestSampleIntervalsQuietGap checks that event-free intermediate intervals
// are still emitted and carry the standing state (locked lines, active
// cores) across the gap, and that the final partial interval is flushed.
func TestSampleIntervalsQuietGap(t *testing.T) {
	meta := Meta{Cores: 2}
	evs := []Event{
		pAttempt(0, 0, 1, cpu.ModeNSCL),
		pLock(1, 0, 5, LockOK, -1),
		pCommit(35, 0, 1, cpu.ModeNSCL), // lands in interval [30,40)
	}
	s, err := SampleIntervals(meta, evs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 4 {
		t.Fatalf("want 4 intervals, got %d: %+v", len(s), s)
	}
	for i := 0; i < 3; i++ {
		if s[i].LockedLines != 1 || s[i].ActiveCores != 1 {
			t.Fatalf("interval %d lost standing state: %+v", i, s[i])
		}
	}
	if s[1].Commits != 0 || s[2].Commits != 0 {
		t.Fatalf("quiet intervals not quiet: %+v", s)
	}
	if s[3].Commits != 1 || s[3].ActiveCores != 0 {
		t.Fatalf("final flush: %+v", s[3])
	}
}

// TestSampleIntervalsDegenerate pins the nil returns for zero width and
// empty streams.
func TestSampleIntervalsDegenerate(t *testing.T) {
	meta := Meta{Cores: 1}
	if s, err := SampleIntervals(meta, []Event{pCommit(0, 0, 1, cpu.ModeSpeculative)}, 0); s != nil || err != nil {
		t.Fatalf("zero width: want nil, got %+v, %v", s, err)
	}
	if s, err := SampleIntervals(meta, nil, 10); s != nil || err != nil {
		t.Fatalf("empty stream: want nil, got %+v, %v", s, err)
	}
}

// TestProfileCountsSpanlessAborts pins that an explicit-fallback abort
// without a preceding attempt start (the core found the fallback lock taken
// before it could begin) is still an abort: in the total, in the per-reason
// tally, and in its AR's row. A span-based tally misses exactly these.
func TestProfileCountsSpanlessAborts(t *testing.T) {
	meta := Meta{Cores: 1, ARNames: map[int]string{1: "alpha"}}
	evs := []Event{
		pInvoke(0, 0, 1),
		pAbort(5, 0, 1, cpu.ModeSpeculative, htm.AbortExplicitFallback),
		pAttempt(10, 0, 1, cpu.ModeSpeculative),
		pCommit(20, 0, 1, cpu.ModeSpeculative),
	}
	p := BuildProfile(meta, evs)
	if p.Aborts != 1 || p.AbortsByReason[htm.AbortExplicitFallback] != 1 {
		t.Fatalf("aborts %d, by reason %v; want the explicit-fallback abort counted", p.Aborts, p.AbortsByReason)
	}
	if len(p.ARs) != 1 || p.ARs[0].Aborts != 1 || p.ARs[0].Commits != 1 {
		t.Fatalf("per-AR row: %+v", p.ARs)
	}
	if p.AbortedTicks != 0 {
		t.Fatalf("a spanless abort discards no attempt time, got %d ticks", p.AbortedTicks)
	}
}
