package sim

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// The test below runs one randomized program through Engine and through
// refQueue, an independent model of the same contract: every pending event
// in one slice kept sorted by (tick, seq), dispatched one at a time from
// the front. The two must dispatch the same events at the same ticks.

// orderIDs is how many distinct callbacks the program schedules.
const orderIDs = 300

// orderQueue is what the program needs from a scheduler.
type orderQueue interface {
	schedule(delay Tick, id int)
	now() Tick
	stop()
	runUntil(deadline Tick) bool
	pending() int
}

type refEvent struct {
	at  Tick
	seq uint64
	id  int
}

// refQueue implements RunUntil's contract directly: run events in (tick,
// seq) order while the first is due by the deadline, and return early
// after the callback that calls stop.
type refQueue struct {
	clock   Tick
	seq     uint64
	stopped bool
	q       []refEvent
	call    func(id int)
}

func (r *refQueue) schedule(delay Tick, id int) {
	r.seq++
	ev := refEvent{at: r.clock + delay, seq: r.seq, id: id}
	i := sort.Search(len(r.q), func(i int) bool {
		q := r.q[i]
		return q.at > ev.at || q.at == ev.at && q.seq > ev.seq
	})
	r.q = append(r.q, refEvent{})
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = ev
}

func (r *refQueue) now() Tick    { return r.clock }
func (r *refQueue) stop()        { r.stopped = true }
func (r *refQueue) pending() int { return len(r.q) }

func (r *refQueue) runUntil(deadline Tick) bool {
	r.stopped = false
	for !r.stopped {
		if len(r.q) == 0 {
			return true
		}
		if r.q[0].at > deadline {
			r.clock = deadline
			return false
		}
		ev := r.q[0]
		r.q = append(r.q[:0], r.q[1:]...)
		r.clock = ev.at
		r.call(ev.id)
	}
	return len(r.q) == 0
}

// engineQueue adapts Engine: program id i is the handle ids[i].
type engineQueue struct {
	e   *Engine
	ids []Event
}

func (q *engineQueue) schedule(delay Tick, id int) { q.e.Schedule(delay, q.ids[id]) }
func (q *engineQueue) now() Tick                   { return q.e.Now() }
func (q *engineQueue) stop()                       { q.e.Stop() }
func (q *engineQueue) runUntil(deadline Tick) bool { return q.e.RunUntil(deadline) }
func (q *engineQueue) pending() int                { return q.e.Pending() }

// orderProgram is the randomized workload. Every callback logs (tick, id),
// sometimes stops the run, and schedules up to two more events with zero
// delay (into the running batch), a lane delay or a far delay. All its
// choices come from rng, so both queues see the same program as long as
// they dispatch in the same order.
type orderProgram struct {
	q      orderQueue
	rng    *RNG
	budget int // events left to schedule
	log    []string
}

func (p *orderProgram) delay() Tick {
	switch p.rng.Intn(4) {
	case 0:
		return 0
	case 1, 2:
		return Tick(1 + p.rng.Intn(laneTicks-1))
	default:
		return Tick(laneTicks + p.rng.Intn(700))
	}
}

func (p *orderProgram) spawn() {
	if p.budget > 0 {
		p.budget--
		p.q.schedule(p.delay(), p.rng.Intn(orderIDs))
	}
}

func (p *orderProgram) fire(id int) {
	p.log = append(p.log, fmt.Sprintf("%d:%d", p.q.now(), id))
	if p.rng.Intn(17) == 0 {
		p.q.stop()
	}
	for k := p.rng.Intn(3); k > 0; k-- {
		p.spawn()
	}
}

// run seeds the queue and drives it in RunUntil slices of random length,
// re-entering a slice that a stop cut short and adding an event from
// outside between slices. It returns what each slice left behind.
func (p *orderProgram) run() []string {
	for i := 0; i < 16; i++ {
		p.spawn()
	}
	var slices []string
	deadline := Tick(0)
	for i := 0; ; i++ {
		drained := p.q.runUntil(deadline)
		slices = append(slices, fmt.Sprintf("deadline=%d now=%d pending=%d drained=%v",
			deadline, p.q.now(), p.q.pending(), drained))
		if drained && p.budget == 0 {
			return slices
		}
		if i > 100_000 {
			panic("order program did not drain")
		}
		if p.q.now() == deadline {
			deadline += Tick(p.rng.Intn(2 * laneTicks))
		}
		if p.rng.Intn(3) == 0 {
			p.spawn()
		}
	}
}

// TestEngineMatchesReferenceOrder runs the randomized program through
// Engine and refQueue and requires the same (tick, id) log and the same
// Now, Pending and drained result after every RunUntil slice. Half the
// seeds start the engine's sequence counter 1,000 below 2⁴⁷, so sequence
// numbers carry into the top bit of their 48 mid-run, and give the
// program the top handles, the last one issued among them.
func TestEngineMatchesReferenceOrder(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		ref := &orderProgram{rng: NewRNG(seed), budget: 3000}
		rq := &refQueue{call: ref.fire}
		ref.q = rq

		eng := &orderProgram{rng: NewRNG(seed), budget: 3000}
		e := NewEngine()
		if seed%2 == 0 {
			e.seq = 1<<47 - 1000
			for i := 0; i < maxCalls-orderIDs; i++ {
				e.Register(func() { panic("filler callback dispatched") })
			}
		}
		eq := &engineQueue{e: e, ids: make([]Event, orderIDs)}
		for id := range eq.ids {
			id := id
			eq.ids[id] = e.Register(func() { eng.fire(id) })
		}
		eng.q = eq

		refSlices := ref.run()
		engSlices := eng.run()
		if !reflect.DeepEqual(ref.log, eng.log) {
			t.Fatalf("seed %d: dispatch logs differ\n%s", seed, firstDiff(ref.log, eng.log))
		}
		if !reflect.DeepEqual(refSlices, engSlices) {
			t.Fatalf("seed %d: RunUntil slices differ\n%s", seed, firstDiff(refSlices, engSlices))
		}
		if e.Executed != uint64(len(eng.log)) {
			t.Fatalf("seed %d: Executed %d, dispatched %d", seed, e.Executed, len(eng.log))
		}
	}
}
