package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// The tests below check that a parked poll is an exact stand-in for the
// waiter it replaces: a callback that re-checks a lock and, finding it
// held, reschedules itself with Schedule after the same jitter draw.

const lockKind WakeMask = 1

// stopEvery makes every stopEvery-th background event call Stop, often
// in the middle of a batch.
const stopEvery = 23

// lockWorld is a small contended lock driven by waiters (slots) and a
// randomized background stream. It runs the same way whether its waiters
// park or re-poll through Schedule, and records what a run observes.
type lockWorld struct {
	e      *Engine
	parked bool
	period Tick

	holder  int // waiter slot or background id holding the lock, or -1
	waiters []*lockWaiter
	driver  *RNG
	perturb *RNG
	budget  int // background events left to spawn
	nbg     int // background events run; every stopEvery-th calls Stop
	stopped bool

	log []string
}

type lockWaiter struct {
	w      *lockWorld
	slot   int
	rng    *RNG
	jitter bool
	rounds int
	tryFn  Event
	relFn  Event
}

func newLockWorld(seed uint64, parked, perturb bool, waiters int) *lockWorld {
	w := &lockWorld{
		e:      NewEngine(),
		parked: parked,
		period: 40,
		holder: -1,
		driver: NewRNG(seed),
		budget: 400,
	}
	if perturb {
		w.perturb = NewRNG(seed ^ 0xabcdef)
		w.e.SetDelayPerturb(func(d Tick) Tick {
			// Occasional extra latency, some of it far enough to push a
			// re-armed poll past the lane horizon onto the heap.
			if w.perturb.Intn(6) == 0 {
				return d + Tick(w.perturb.Intn(320))
			}
			return d
		})
	}
	for s := 0; s < waiters; s++ {
		lw := &lockWaiter{w: w, slot: s, rng: NewRNG(seed*31 + uint64(s) + 1), jitter: s%2 == 0, rounds: 12}
		lw.tryFn = lw.try
		lw.relFn = lw.release
		w.waiters = append(w.waiters, lw)
	}
	return w
}

func (w *lockWorld) logf(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%d ", w.e.Now())+fmt.Sprintf(format, args...))
}

// wait is the waiter's response to a held lock: park, or the re-poll a
// parked poll replaces.
func (lw *lockWaiter) wait() {
	w := lw.w
	var rng *RNG
	if lw.jitter {
		rng = lw.rng
	}
	if w.parked {
		w.e.Park(lw.slot, w.period, rng, lockKind, lw.tryFn)
		return
	}
	d := w.period
	if rng != nil {
		d += Tick(rng.Intn(int(w.period) + 1))
	}
	w.e.Schedule(d, lw.tryFn)
}

func (lw *lockWaiter) try() {
	w := lw.w
	if w.holder >= 0 {
		lw.wait()
		return
	}
	w.holder = lw.slot
	w.logf("w%d acquire", lw.slot)
	// Zero holds release within the same batch.
	w.e.Schedule(Tick(lw.rng.Intn(3)*lw.rng.Intn(30)), lw.relFn)
}

func (lw *lockWaiter) release() {
	w := lw.w
	w.holder = -1
	w.logf("w%d release", lw.slot)
	w.e.Wake(lockKind)
	lw.rounds--
	if lw.rounds > 0 {
		// Some think times go past the lane horizon onto the heap.
		w.e.Schedule(Tick(lw.rng.Intn(300)), lw.tryFn)
	}
}

// background is one event of the randomized stream: it logs, may take or
// release the lock (a wake issued inside a batch), may stop the engine,
// and spawns follow-ups with zero, near and far (heap) delays.
func (w *lockWorld) background(id int) Event {
	return func() {
		w.nbg++
		w.logf("bg%d", id)
		switch r := w.driver.Intn(8); {
		case r == 0 && w.holder < 0:
			w.holder = 1000 + id
			w.logf("bg%d acquire", id)
			hold := Tick(w.driver.Intn(120))
			w.e.Schedule(hold, func() {
				w.holder = -1
				w.logf("bg%d release", id)
				w.e.Wake(lockKind)
			})
		case r == 1:
			w.e.Wake(lockKind) // a spurious wake is always harmless
		}
		if w.nbg%stopEvery == 0 {
			w.stopped = true
			w.e.Stop()
		}
		delays := [...]Tick{0, 1, 3, 17, 40, 41, 80, 255, 256, 300}
		for k := w.driver.Intn(3); k > 0 && w.budget > 0; k-- {
			w.budget--
			w.e.Schedule(delays[w.driver.Intn(len(delays))], w.background(w.budget))
		}
	}
}

// run drives the world in RunUntil slices and records the engine's view
// after each: Pending, Now and the drained flag.
func (w *lockWorld) run() []string {
	for _, lw := range w.waiters {
		w.e.Schedule(Tick(lw.rng.Intn(50)), lw.tryFn)
	}
	for i := 0; i < 4; i++ {
		w.e.Schedule(Tick(w.driver.Intn(20)), w.background(-1-i))
	}
	var slices []string
	for deadline := Tick(97); ; deadline += 97 {
		drained := w.e.RunUntil(deadline)
		for w.stopped {
			w.stopped = false
			slices = append(slices, fmt.Sprintf("stopped now=%d pending=%d", w.e.Now(), w.e.Pending()))
			drained = w.e.RunUntil(deadline)
		}
		slices = append(slices, fmt.Sprintf("now=%d pending=%d drained=%v", w.e.Now(), w.e.Pending(), drained))
		if drained {
			return slices
		}
		if deadline > 1_000_000 {
			panic("lock world did not drain")
		}
	}
}

func (w *lockWorld) rngStates() []uint64 {
	st := []uint64{w.driver.state}
	if w.perturb != nil {
		st = append(st, w.perturb.state)
	}
	for _, lw := range w.waiters {
		st = append(st, lw.rng.state)
	}
	return st
}

// TestParkedPollMatchesRepoll runs randomized lock worlds twice, with
// parked waiters and with Schedule re-polls, and requires the same
// executed (tick, label) log, the same final RNG states, and the same
// Pending after every RunUntil slice.
func TestParkedPollMatchesRepoll(t *testing.T) {
	var rearmed uint64
	for seed := uint64(1); seed <= 40; seed++ {
		for _, perturb := range []bool{false, true} {
			old := newLockWorld(seed, false, perturb, 7)
			oldSlices := old.run()
			park := newLockWorld(seed, true, perturb, 7)
			parkSlices := park.run()
			name := fmt.Sprintf("seed %d perturb %v", seed, perturb)
			if !reflect.DeepEqual(old.log, park.log) {
				t.Fatalf("%s: executed logs differ\n%s", name, firstDiff(old.log, park.log))
			}
			if !reflect.DeepEqual(oldSlices, parkSlices) {
				t.Fatalf("%s: RunUntil slices differ\n%s", name, firstDiff(oldSlices, parkSlices))
			}
			if a, b := old.rngStates(), park.rngStates(); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: final RNG states differ: %v vs %v", name, a, b)
			}
			if park.e.Executed > old.e.Executed {
				t.Fatalf("%s: parked run dispatched %d callbacks, re-poll run %d", name, park.e.Executed, old.e.Executed)
			}
			rearmed += old.e.Executed - park.e.Executed
		}
	}
	if rearmed == 0 {
		t.Fatal("no dead poll was ever re-armed in place; the worlds do not exercise parking")
	}
}

func firstDiff(a, b []string) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("entry %d: %q vs %q", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(a), len(b))
}

// TestParkedPollMergedBySeq pins the position of a dead re-arm in the
// event order. At tick 5, event A (earlier seq) schedules the release X
// for tick 10, then the dead poll P re-arms, also for tick 10: X holds the
// earlier seq, so P runs after the release and acquires at tick 10. An
// engine that settled dead polls at the start of a batch would give P the
// earlier seq, find the lock still held at 10, and acquire only at 15.
func TestParkedPollMergedBySeq(t *testing.T) {
	for _, parked := range []bool{false, true} {
		e := NewEngine()
		held := true
		var log []string
		var poll Event
		poll = func() {
			if held {
				if parked {
					e.Park(0, 5, nil, lockKind, poll)
				} else {
					e.Schedule(5, poll)
				}
				return
			}
			log = append(log, fmt.Sprintf("P acquires at %d", e.Now()))
		}
		e.Schedule(5, func() { // A
			e.Schedule(5, func() { // X
				held = false
				e.Wake(lockKind)
			})
		})
		poll() // parks (or re-polls) at tick 0, due at 5 after A
		e.Run()
		if want := []string{"P acquires at 10"}; !reflect.DeepEqual(log, want) {
			t.Fatalf("parked=%v: got %v, want %v", parked, log, want)
		}
	}
}

// TestParkedPollStaysPending: a dead poll is queued work. RunUntil leaves
// it parked past the deadline and reports it in Pending, and a queue
// holding only dead polls never drains.
func TestParkedPollStaysPending(t *testing.T) {
	e := NewEngine()
	woken, ran := false, 0
	e.Park(3, 10, NewRNG(1), lockKind, func() {
		if !woken {
			t.Fatal("dead poll dispatched")
		}
		ran++
	})
	if drained := e.RunUntil(1000); drained {
		t.Fatal("queue with a parked poll reported drained")
	}
	if e.Pending() != 1 || e.Executed != 0 {
		t.Fatalf("pending %d executed %d, want 1 and 0", e.Pending(), e.Executed)
	}
	woken = true
	e.Wake(lockKind)
	e.RunUntil(1100)
	if ran != 1 || e.Pending() != 0 {
		t.Fatalf("woken poll ran %d times, pending %d; want 1 and 0", ran, e.Pending())
	}
	if !e.RunUntil(2000) {
		t.Fatal("empty queue did not drain")
	}
}

// TestParkedPollRearmAllocatesNothing: a dead re-arm is O(1) work on the
// slot records and calendar masks Park already sized.
func TestParkedPollRearmAllocatesNothing(t *testing.T) {
	e := NewEngine()
	rng := NewRNG(7)
	for s := 0; s < maxPollSlots; s++ {
		e.Park(s, 40, rng, lockKind, func() {})
	}
	e.RunUntil(1000) // settle
	if a := testing.AllocsPerRun(10, func() { e.RunUntil(e.Now() + 1000) }); a != 0 {
		t.Fatalf("dead re-arms allocated %.1f times per 1000 ticks", a)
	}
}

func TestParkMisusePanics(t *testing.T) {
	for name, fn := range map[string]func(e *Engine){
		"nil event":     func(e *Engine) { e.Park(0, 1, nil, lockKind, nil) },
		"slot too high": func(e *Engine) { e.Park(maxPollSlots, 1, nil, lockKind, func() {}) },
		"zero period":   func(e *Engine) { e.Park(0, 0, nil, lockKind, func() {}) },
		"parked twice": func(e *Engine) {
			e.Park(1, 5, nil, lockKind, func() {})
			e.Park(1, 5, nil, lockKind, func() {})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Park did not panic", name)
				}
			}()
			fn(NewEngine())
		}()
	}
}
