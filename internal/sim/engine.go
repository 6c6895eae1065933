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
//     delays) go to a ring of per-tick FIFO buckets ("fast lane").
//     Appending to a bucket reuses its backing array.
//   - Far-future events wait unordered in a short far list, its earliest
//     tick cached. A batch that starts within laneTicks of that tick first
//     moves every far event now inside the horizon into its bucket, so the
//     lane is the one ordered structure for events.
//   - Queued events hold no pointers. Each callback is registered once
//     (Register) and an Event is its handle in the engine's table, so a
//     lane entry is one word, sequence number above handle, with the tick
//     implied by its bucket, and a far entry adds the tick. The collector
//     never scans the queue, appends take no write barrier, and drained
//     slots need no clearing.
//   - A waiter that re-polls a condition only a Wake can make true (a core
//     spinning on the fallback lock) is a parked poll, not an event: one
//     record per slot plus a 256-bucket calendar of slot masks that mirrors
//     the lane. While the poll is dead the engine re-arms it in place,
//     drawing the same jitter, delay perturbation and sequence number at
//     the same (tick, seq) position as the callback's own reschedule
//     would, so the run stays bit-identical; only a woken poll dispatches
//     its callback. Executed therefore counts dispatched callbacks, not
//     re-arms.
package sim

import (
	"fmt"
	"math/bits"
)

// Tick is the simulated clock, measured in core cycles.
type Tick uint64

// Event is the handle Register returns for a callback; Schedule and Park
// queue the handle, and the engine calls the callback when it is due.
// Handles belong to the engine that issued them.
type Event uint16

// A queued event is one word, key = seq<<handleBits | handle. Sequence
// numbers are unique, so comparing two keys compares their sequence
// numbers.
const (
	handleBits = 16
	// maxCalls bounds the callback table. The all-ones handle is never
	// issued, so no key equals noKey.
	maxCalls = 1<<handleBits - 1
	// maxSeq is the largest sequence number a key can carry.
	maxSeq = 1<<(64-handleBits) - 1
)

// noKey sorts after every key.
const noKey = ^uint64(0)

// farEvent is an event due laneTicks or more past the tick it was
// scheduled at: its tick and its key.
type farEvent struct {
	at  Tick
	key uint64
}

// laneTicks is the fast-lane horizon: events with delay < laneTicks are
// bucketed per tick at once, the rest wait in the far list. 256 covers every
// latency the memory hierarchy composes on the hot path — including a full
// memory fetch (two crossbar links + directory + DRAM ≈ 137 ticks) — so the
// far list only sees long think times, backoff tails, and oracle audit
// timers. The nonempty-bucket scan is a four-word bitmap walk, so widening
// the horizon does not lengthen the search. Must be a power of two.
const laneTicks = 256

const laneMask = laneTicks - 1

// laneWords is the occupancy bitmap size: one bit per bucket.
const laneWords = laneTicks / 64

// laneBucket is one tick's FIFO of near-future event keys. head indexes
// the next key to pop; keys append at the tail in sequence order and far
// events are inserted by key, so a bucket is always sorted.
type laneBucket struct {
	head int
	evs  []uint64
}

// maxPollSlots bounds the slots Park accepts: the calendar keeps one bit
// per slot in a 64-bit mask.
const maxPollSlots = 64

// WakeMask names the classes of condition a parked poll waits on; Wake
// releases the polls parked with any class in its mask.
type WakeMask uint8

// pollSlot is one parked poll: call re-checks a condition every period
// ticks, plus Intn(period+1) ticks drawn from rng when rng is non-nil.
// key is the poll's place in the event order while it is in the calendar.
type pollSlot struct {
	key    uint64
	period Tick
	rng    *RNG
	kinds  WakeMask
	call   Event
}

// Engine is a discrete-event scheduler. The zero value is not usable; create
// engines with NewEngine.
type Engine struct {
	now     Tick
	seq     uint64
	stopped bool

	// calls is the callback table; an Event indexes it.
	calls []func()

	// lane holds events with at in [now, now+laneTicks), indexed by
	// at&laneMask; laneLen is the total number of events across buckets
	// plus the parked polls in pollCal. occ has one bit per bucket (set
	// while the bucket holds events or due polls), so finding the earliest
	// pending tick is a short bitmap walk instead of a bucket-by-bucket
	// scan.
	lane    [laneTicks]laneBucket
	occ     [laneWords]uint64
	laneLen int

	// pollCal mirrors the lane for parked polls: bit s of pollCal[i] is
	// set while slot s's poll is due at the tick whose bucket is i. polls
	// holds the slot records, grown on demand to the highest slot parked;
	// parked has bit s set while slot s is in the calendar, live while a
	// Wake has released it.
	pollCal [laneTicks]uint64
	polls   []pollSlot
	parked  uint64
	live    uint64

	// far holds the events not yet within the lane horizon, in no order;
	// farAt is the earliest tick among them while far is non-empty.
	far   []farEvent
	farAt Tick

	// Executed counts dispatched callbacks (a dead poll's re-arm is not
	// one); exposed for tests and for the benchmark's event count.
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

// Register adds call to the engine's callback table and returns its
// handle. The table keeps every callback for the engine's life, so
// register each continuation once, when its owner is built, not per
// event; at most 65,535 fit.
func (e *Engine) Register(call func()) Event {
	if call == nil {
		panic("sim: Register called with nil callback")
	}
	if len(e.calls) >= maxCalls {
		panic(fmt.Sprintf("sim: more than %d callbacks registered", maxCalls))
	}
	e.calls = append(e.calls, call)
	return Event(len(e.calls) - 1)
}

// key draws the next sequence number and packs it above call.
func (e *Engine) key(call Event) uint64 {
	e.seq++
	if e.seq > maxSeq {
		panic("sim: sequence numbers exhausted")
	}
	return e.seq<<handleBits | uint64(call)
}

// Schedule runs call after delay ticks. A delay of zero runs the event in
// the current tick, after all events already scheduled for this tick.
func (e *Engine) Schedule(delay Tick, call Event) {
	if int(call) >= len(e.calls) {
		panic("sim: Schedule called with an unregistered event")
	}
	if e.perturb != nil {
		delay = e.perturb(delay)
	}
	k := e.key(call)
	at := e.now + delay
	if delay < laneTicks {
		idx := int(at) & laneMask
		b := &e.lane[idx]
		if len(b.evs) == 0 {
			e.occ[idx>>6] |= 1 << (uint(idx) & 63)
		}
		b.evs = append(b.evs, k)
		e.laneLen++
		return
	}
	e.addFar(at, k)
}

// addFar puts an event due past the lane horizon in the far list.
func (e *Engine) addFar(at Tick, key uint64) {
	if len(e.far) == 0 || at < e.farAt {
		e.farAt = at
	}
	e.far = append(e.far, farEvent{at: at, key: key})
}

// fileFar moves every far event now due within the lane horizon into its
// bucket, inserted by key, and recomputes farAt. A far event was scheduled
// at least laneTicks before its tick, earlier than any key the lane filed
// for that tick, so it goes in ahead of those; such keys exist when
// RunUntil moved the clock to a deadline and an event was scheduled from
// there.
func (e *Engine) fileFar() {
	kept := e.far[:0]
	for _, ev := range e.far {
		if ev.at-e.now >= laneTicks {
			if len(kept) == 0 || ev.at < e.farAt {
				e.farAt = ev.at
			}
			kept = append(kept, ev)
			continue
		}
		idx := int(ev.at) & laneMask
		b := &e.lane[idx]
		b.evs = append(b.evs, ev.key)
		i := len(b.evs) - 1
		for ; i > b.head && b.evs[i-1] > ev.key; i-- {
			b.evs[i] = b.evs[i-1]
		}
		b.evs[i] = ev.key
		e.occ[idx>>6] |= 1 << (uint(idx) & 63)
		e.laneLen++
	}
	e.far = kept
}

// SetDelayPerturb installs (or, with nil, removes) a delay-perturbation
// function applied to every Schedule call and every poll re-arm. Fault
// injection uses it to add bounded random latency to scheduled events; the
// perturbation must be deterministic for the run to stay reproducible, and
// must not turn a poll's delay into zero.
func (e *Engine) SetDelayPerturb(f func(Tick) Tick) { e.perturb = f }

// ScheduleAt runs call at an absolute tick, which must not be in the past.
func (e *Engine) ScheduleAt(at Tick, call Event) {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%d) is in the past (now %d)", at, e.now))
	}
	e.Schedule(at-e.now, call)
}

// Pending reports how many events and parked polls are waiting in the
// queue.
func (e *Engine) Pending() int { return e.laneLen + len(e.far) }

// Park files call as slot's parked poll: a waiter that re-checks, every
// period ticks plus Intn(period+1) drawn from rng when rng is non-nil, a
// condition that only a Wake naming one of kinds can make true. The first
// delay is drawn now. Until such a Wake, the engine re-arms the poll at
// each due time itself, with the draws (jitter, perturbation, sequence
// number) the callback's own reschedule would make at that point of the
// event order; after it, the poll dispatches call once, like any event.
// A slot holds one poll at a time; period must be at least 1.
func (e *Engine) Park(slot int, period Tick, rng *RNG, kinds WakeMask, call Event) {
	if int(call) >= len(e.calls) {
		panic("sim: Park called with an unregistered event")
	}
	if slot < 0 || slot >= maxPollSlots || period < 1 {
		panic(fmt.Sprintf("sim: Park(slot %d, period %d) out of range", slot, period))
	}
	if slot >= len(e.polls) {
		e.polls = append(e.polls, make([]pollSlot, slot+1-len(e.polls))...)
	}
	bit := uint64(1) << uint(slot)
	if e.parked&bit != 0 {
		panic(fmt.Sprintf("sim: slot %d parked twice", slot))
	}
	p := &e.polls[slot]
	p.period, p.rng, p.kinds, p.call = period, rng, kinds, call
	e.parked |= bit
	e.laneLen++
	e.arm(p, bit)
}

// Wake releases every parked poll whose kinds intersect kinds: at its due
// time it dispatches its callback instead of being re-armed. Waking a poll
// whose condition is still false is harmless — its callback re-checks and
// parks again — but a condition must never turn true without a Wake.
func (e *Engine) Wake(kinds WakeMask) {
	for m := e.parked &^ e.live; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		if e.polls[s].kinds&kinds != 0 {
			e.live |= 1 << uint(s)
		}
	}
}

// arm draws a parked poll's next delay exactly as its callback would have
// rescheduled itself — jitter, then perturbation, then a sequence number —
// and files it in the calendar. A delay past the lane horizon (reachable
// only under perturbation) makes the poll an ordinary far event that runs
// its callback.
func (e *Engine) arm(p *pollSlot, bit uint64) {
	delay := p.period
	if p.rng != nil {
		delay += Tick(p.rng.Intn(int(p.period) + 1))
	}
	if e.perturb != nil {
		delay = e.perturb(delay)
	}
	if delay == 0 {
		panic("sim: delay perturbation made a parked poll due in the current batch")
	}
	k := e.key(p.call)
	if delay >= laneTicks {
		e.unpark(p, bit)
		e.addFar(e.now+delay, k)
		return
	}
	p.key = k
	idx := int(e.now+delay) & laneMask
	e.pollCal[idx] |= bit
	e.occ[idx>>6] |= 1 << (uint(idx) & 63)
}

// unpark removes a poll from the parked set (its calendar bit is already
// clear) and returns its callback.
func (e *Engine) unpark(p *pollSlot, bit uint64) Event {
	call := p.call
	*p = pollSlot{}
	e.parked &^= bit
	e.live &^= bit
	e.laneLen--
	return call
}

// nextDue returns the slot and key of the earliest poll due in bucket
// idx, or noKey when none is.
func (e *Engine) nextDue(idx int) (int, uint64) {
	slot, key := -1, noKey
	for m := e.pollCal[idx]; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		if k := e.polls[s].key; k < key {
			slot, key = s, k
		}
	}
	return slot, key
}

// Stop makes the currently running Run or RunUntil call return after the
// in-flight event completes.
func (e *Engine) Stop() { e.stopped = true }

// nextLane returns the tick of the earliest lane event or due poll. Only
// call with e.laneLen > 0. The walk covers the occupancy bitmap once,
// starting at now's bucket: the first word is masked to bits at or after
// now, the wrapped-around revisit of that word to bits before it.
func (e *Engine) nextLane() Tick {
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
		idx := uint(w<<6 + bits.TrailingZeros64(x))
		return e.now + Tick((idx-s)&laneMask)
	}
	panic("sim: laneLen > 0 but occupancy bitmap empty")
}

// nextAt returns the tick of the next event without popping it: the
// earlier of the lane's next tick and the far list's earliest.
func (e *Engine) nextAt() (Tick, bool) {
	if e.laneLen > 0 {
		at := e.nextLane()
		if len(e.far) > 0 && e.farAt < at {
			return e.farAt, true
		}
		return at, true
	}
	return e.farAt, len(e.far) > 0
}

// Step drains every event due at the next pending tick (one batch) and
// returns true, or returns false if the queue is empty. Batching keeps the
// scheduler out of the per-event path: the bucket for the tick is located
// once and its FIFO consumed in place, with the (tick, seq) total order
// preserved — far events that land on the same tick are filed into the
// bucket by sequence number first, and events a callback schedules with
// zero delay append to the same bucket and run within the batch. If Stop is
// called mid-batch the remaining same-tick events stay queued; the next
// Step resumes the same tick.
func (e *Engine) Step() bool {
	t, ok := e.nextAt()
	if ok {
		e.stepAt(t)
	}
	return ok
}

// stepAt drains the batch due at tick t, which the caller has already
// located with nextAt (RunUntil checks the tick against its deadline first;
// passing it on keeps the bitmap walk to once per batch). It files the far
// events now within the horizon, then merges the tick's lane bucket with
// the parked polls due in it by sequence number: a dead poll is re-armed at
// exactly the point of the (tick, seq) order where its callback would have
// run, so the seq numbers and random draws of everything after it are
// unchanged.
func (e *Engine) stepAt(t Tick) {
	e.now = t
	if len(e.far) > 0 && e.farAt-t < laneTicks {
		e.fileFar()
	}
	idx := int(t) & laneMask
	b := &e.lane[idx]
	// No far event or poll can join a running batch: every far event is
	// laneTicks out and every Park and re-arm at least one tick out, so
	// the due polls only shrink.
	ps, pkey := e.nextDue(idx)
	for {
		var call Event
		if b.head < len(b.evs) && b.evs[b.head] < pkey {
			call = Event(b.evs[b.head])
			b.head++
			if b.head == len(b.evs) {
				// Drained: rewind, keeping the backing array for reuse.
				b.evs = b.evs[:0]
				b.head = 0
			}
			e.laneLen--
		} else if pkey != noKey {
			bit := uint64(1) << uint(ps)
			e.pollCal[idx] &^= bit
			p := &e.polls[ps]
			if e.live&bit == 0 {
				e.arm(p, bit)
				ps, pkey = e.nextDue(idx)
				continue
			}
			call = e.unpark(p, bit)
			ps, pkey = e.nextDue(idx)
		} else {
			break
		}
		e.Executed++
		e.calls[call]()
		if e.stopped {
			break
		}
	}
	if len(b.evs) == 0 && e.pollCal[idx] == 0 {
		e.occ[idx>>6] &^= 1 << (uint(idx) & 63)
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
