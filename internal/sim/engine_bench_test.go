package sim

import "testing"

// BenchmarkEngineScheduleStep measures the raw schedule+dispatch cost of the
// event engine under the delay mix the simulator actually produces: the
// dominant near-future delays (0, 1, and an L1-hit-like 1) plus a tail of
// directory-latency events that exercise the far-future path. The workload
// keeps a small standing population of events so both the fast lane and the
// heap stay busy.
func BenchmarkEngineScheduleStep(b *testing.B) {
	delays := [8]Tick{0, 1, 1, 0, 1, 45, 1, 97}
	b.ReportAllocs()
	b.ResetTimer()
	e := NewEngine()
	n := 0
	var pump func()
	pump = func() {
		if n >= b.N {
			return
		}
		e.Schedule(delays[n&7], pump)
		n++
	}
	// Standing population: a few pumps in flight at once.
	for i := 0; i < 4 && i < b.N; i++ {
		e.Schedule(delays[i&7], pump)
		n++
	}
	e.Run()
}

// BenchmarkEngineFarFuture isolates the heap path: every event lands beyond
// the near-future fast lane.
func BenchmarkEngineFarFuture(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	e := NewEngine()
	n := 0
	var pump func()
	pump = func() {
		if n >= b.N {
			return
		}
		e.Schedule(1000+Tick(n&127), pump)
		n++
	}
	for i := 0; i < 4 && i < b.N; i++ {
		e.Schedule(1000+Tick(i), pump)
		n++
	}
	e.Run()
}

// BenchmarkEngineParkedPoll prices dead polls: 31 waiters parked on a
// condition that never turns true (the engine re-arms each one about every
// 60 ticks) beside a sparse stream of real events, one every ~50 ticks.
// One op is one real event plus the ~26 re-arms due meanwhile; CI requires
// 0 allocs/op.
func BenchmarkEngineParkedPoll(b *testing.B) {
	e := NewEngine()
	rng := NewRNG(1)
	for s := 0; s < 31; s++ {
		e.Park(s, 40, rng, 1, func() { panic("dead poll dispatched") })
	}
	n, limit := 0, 0
	var pump Event
	pump = func() {
		if n++; n < limit {
			e.Schedule(Tick(46+n&7), pump)
		} else {
			e.Stop()
		}
	}
	// Warm up, so every lane bucket the stream lands in has its backing
	// array before the timer starts.
	limit = 4 * laneTicks
	e.Schedule(1, pump)
	e.Run()
	n, limit = 0, b.N
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(1, pump)
	e.Run()
}
