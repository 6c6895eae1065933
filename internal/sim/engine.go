// Package sim provides the deterministic discrete-event simulation engine
// that drives every timed component of the CLEAR reproduction: cores,
// caches, the coherence directory, and the interconnect.
//
// Events are totally ordered by (tick, sequence number); the sequence number
// makes the order total and therefore the whole simulation deterministic:
// two runs with the same seed produce bit-identical statistics, a property
// the test suite checks at both the engine and the machine level.
//
// The engine is the hottest host code in the simulator — every simulated
// load, store, and branch passes through Schedule and Step — so its data
// structures are chosen for zero steady-state allocation:
//
//   - Near-future events (delay < laneTicks, the dominant 0/1/L1-hit
//     delays) go to a ring of per-tick FIFO buckets ("fast lane") and never
//     touch the heap. Appending to a bucket reuses its backing array.
//   - Far-future events go to a monomorphic binary min-heap of
//     scheduledEvent values: no container/heap, no interface boxing, no
//     per-push allocation.
//   - Popped slots (heap and lane) are zeroed so retired event closures
//     become garbage immediately instead of being retained by backing
//     arrays.
package sim

import (
	"fmt"
	"math/bits"
)

// Tick is the simulated clock, measured in core cycles.
type Tick uint64

// Event is a callback scheduled to run at a specific tick. Callers on hot
// paths should pass pre-bound function values (method values created once,
// not per call) so scheduling does not allocate.
type Event func()

type scheduledEvent struct {
	at   Tick
	seq  uint64
	call Event
}

// less is the total event order: earlier tick first, then earlier sequence
// number (FIFO within a tick).
func (a scheduledEvent) less(b scheduledEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// laneTicks is the fast-lane horizon: events with delay < laneTicks are
// bucketed per tick instead of entering the heap. 256 covers every latency
// the memory hierarchy composes on the hot path — including a full memory
// fetch (two crossbar links + directory + DRAM ≈ 137 ticks) — so the heap
// only sees long think times, backoff tails, and oracle audit timers. The
// nonempty-bucket scan is a four-word bitmap walk, so widening the horizon
// does not lengthen the search. Must be a power of two.
const laneTicks = 256

const laneMask = laneTicks - 1

// laneWords is the occupancy bitmap size: one bit per bucket.
const laneWords = laneTicks / 64

// laneBucket is one tick's FIFO of near-future events. head indexes the
// next event to pop; events append at the tail in sequence order, so a
// bucket is always sorted by seq.
type laneBucket struct {
	head int
	evs  []scheduledEvent
}

// Engine is a discrete-event scheduler. The zero value is not usable; create
// engines with NewEngine.
type Engine struct {
	now     Tick
	seq     uint64
	stopped bool

	// lane holds events with at in [now, now+laneTicks), indexed by
	// at&laneMask; laneLen is the total number of events across buckets.
	// occ has one bit per bucket (set while the bucket is nonempty), so
	// finding the earliest pending tick is a short bitmap walk instead of
	// a bucket-by-bucket scan.
	lane    [laneTicks]laneBucket
	occ     [laneWords]uint64
	laneLen int

	// heap is a binary min-heap (by scheduledEvent.less) of far-future
	// events.
	heap []scheduledEvent

	// Executed counts how many events have run; exposed for tests and for
	// the harness's progress accounting.
	Executed uint64

	// perturb, when non-nil, maps each Schedule delay to the delay actually
	// used (the fault-injection seam: bounded random extra latency). Nil by
	// default: Schedule pays one pointer comparison.
	perturb func(Tick) Tick
}

// NewEngine returns an engine with an empty event queue at tick zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated tick.
func (e *Engine) Now() Tick { return e.now }

// Schedule runs call after delay ticks. A delay of zero runs the event in
// the current tick, after all events already scheduled for this tick.
func (e *Engine) Schedule(delay Tick, call Event) {
	if call == nil {
		panic("sim: Schedule called with nil event")
	}
	if e.perturb != nil {
		delay = e.perturb(delay)
	}
	e.seq++
	ev := scheduledEvent{at: e.now + delay, seq: e.seq, call: call}
	if delay < laneTicks {
		idx := int(ev.at) & laneMask
		b := &e.lane[idx]
		if len(b.evs) == 0 {
			e.occ[idx>>6] |= 1 << (uint(idx) & 63)
		}
		b.evs = append(b.evs, ev)
		e.laneLen++
		return
	}
	e.heapPush(ev)
}

// SetDelayPerturb installs (or, with nil, removes) a delay-perturbation
// function applied to every Schedule call. Fault injection uses it to add
// bounded random latency to scheduled events; the perturbation must be
// deterministic for the run to stay reproducible.
func (e *Engine) SetDelayPerturb(f func(Tick) Tick) { e.perturb = f }

// ScheduleAt runs call at an absolute tick, which must not be in the past.
func (e *Engine) ScheduleAt(at Tick, call Event) {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%d) is in the past (now %d)", at, e.now))
	}
	e.Schedule(at-e.now, call)
}

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int { return e.laneLen + len(e.heap) }

// Stop makes the currently running Run or RunUntil call return after the
// in-flight event completes.
func (e *Engine) Stop() { e.stopped = true }

// nextLane returns the bucket holding the earliest lane event and its tick.
// Only call with e.laneLen > 0. The walk covers the occupancy bitmap once,
// starting at now's bucket: the first word is masked to bits at or after
// now, the wrapped-around revisit of that word to bits before it.
func (e *Engine) nextLane() (*laneBucket, Tick) {
	s := uint(e.now) & laneMask
	w0, b0 := int(s>>6), s&63
	for k := 0; k <= laneWords; k++ {
		w := (w0 + k) & (laneWords - 1)
		x := e.occ[w]
		if k == 0 {
			x &= ^uint64(0) << b0
		} else if k == laneWords {
			x &= uint64(1)<<b0 - 1
		}
		if x == 0 {
			continue
		}
		idx := w<<6 + bits.TrailingZeros64(x)
		return &e.lane[idx], e.now + Tick((uint(idx)-s)&laneMask)
	}
	panic("sim: laneLen > 0 but occupancy bitmap empty")
}

// nextAt returns the tick of the next event without popping it.
func (e *Engine) nextAt() (Tick, bool) {
	if e.laneLen > 0 {
		_, at := e.nextLane()
		// A heap event can never precede a lane event at an earlier tick,
		// but at the same tick the lane event still wins only if its seq is
		// lower; for the peeked *tick* the minimum of the two is exact.
		if len(e.heap) > 0 && e.heap[0].at < at {
			return e.heap[0].at, true
		}
		return at, true
	}
	if len(e.heap) > 0 {
		return e.heap[0].at, true
	}
	return 0, false
}

// Step drains every event due at the next pending tick (one batch) and
// returns true, or returns false if the queue is empty. Batching keeps the
// scheduler out of the per-event path: the bucket for the tick is located
// once and its FIFO consumed in place, with the (tick, seq) total order
// preserved — far-future heap events that land on the same tick are
// interleaved by sequence number, and events a callback schedules with zero
// delay append to the same bucket and run within the batch. If Stop is
// called mid-batch the remaining same-tick events stay queued; the next
// Step resumes the same tick.
func (e *Engine) Step() bool {
	var t Tick
	if e.laneLen > 0 {
		_, t = e.nextLane()
		if len(e.heap) > 0 && e.heap[0].at < t {
			t = e.heap[0].at
		}
	} else if len(e.heap) > 0 {
		t = e.heap[0].at
	} else {
		return false
	}
	e.stepAt(t)
	return true
}

// stepAt drains the batch due at tick t, which the caller has already
// located (Step via its own scan, RunUntil via nextAt — sharing the scan
// keeps the bitmap walk off the per-batch path twice).
func (e *Engine) stepAt(t Tick) {
	e.now = t
	idx := int(t) & laneMask
	b := &e.lane[idx]
	// Whether the heap's minimum lands on this very tick is monotone within
	// the batch: every pending heap event has at >= t, and a callback's
	// far-future push lands at >= t+laneTicks, so the flag only changes at a
	// heapPop — hoisting it keeps the heap peek off the per-event path.
	heapSame := len(e.heap) > 0 && e.heap[0].at == t
	for {
		var ev scheduledEvent
		if b.head < len(b.evs) {
			ev = b.evs[b.head]
			if heapSame && e.heap[0].seq < ev.seq {
				ev = e.heapPop()
				heapSame = len(e.heap) > 0 && e.heap[0].at == t
			} else {
				b.head++
				if b.head == len(b.evs) {
					// Drained: zero the consumed slots in one bulk clear so
					// retired closures become garbage, then rewind, keeping
					// the backing array for reuse.
					clear(b.evs)
					b.evs = b.evs[:0]
					b.head = 0
					e.occ[idx>>6] &^= 1 << (uint(idx) & 63)
				}
				e.laneLen--
			}
		} else if heapSame {
			ev = e.heapPop()
			heapSame = len(e.heap) > 0 && e.heap[0].at == t
		} else {
			return
		}
		e.Executed++
		ev.call()
		if e.stopped {
			return
		}
	}
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with tick <= deadline. Events scheduled past the
// deadline remain queued. It returns true if the queue drained.
func (e *Engine) RunUntil(deadline Tick) bool {
	e.stopped = false
	for !e.stopped {
		at, ok := e.nextAt()
		if !ok {
			return true
		}
		if at > deadline {
			e.now = deadline
			return false
		}
		e.stepAt(at)
	}
	return e.Pending() == 0
}

// heapPush inserts ev into the far-future heap (monomorphic sift-up).
func (e *Engine) heapPush(ev scheduledEvent) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].less(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.heap = h
}

// heapPop removes the minimum event (monomorphic sift-down). The vacated
// tail slot is zeroed so the popped event's closure is not retained by the
// backing array.
func (e *Engine) heapPop() scheduledEvent {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = scheduledEvent{}
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].less(h[l]) {
			m = r
		}
		if !h[m].less(h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	e.heap = h
	return top
}
