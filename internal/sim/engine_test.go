package sim

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, e.Register(func() { got = append(got, 3) }))
	e.Schedule(10, e.Register(func() { got = append(got, 1) }))
	e.Schedule(20, e.Register(func() { got = append(got, 2) }))
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("execution order %v, want [1 2 3]", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock %d, want 30", e.Now())
	}
}

func TestEngineSameTickFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, e.Register(func() { got = append(got, i) }))
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-tick events reordered at %d: got %d", i, v)
		}
	}
}

func TestEngineZeroDelayRunsSameTick(t *testing.T) {
	e := NewEngine()
	var at []Tick
	inner := e.Register(func() { at = append(at, e.Now()) })
	e.Schedule(7, e.Register(func() { e.Schedule(0, inner) }))
	e.Run()
	if len(at) != 1 || at[0] != 7 {
		t.Fatalf("zero-delay event ran at %v, want [7]", at)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec Event
	rec = e.Register(func() {
		depth++
		if depth < 1000 {
			e.Schedule(1, rec)
		}
	})
	e.Schedule(0, rec)
	e.Run()
	if depth != 1000 {
		t.Fatalf("depth %d, want 1000", depth)
	}
	if e.Now() != 999 {
		t.Fatalf("clock %d, want 999", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	inc := e.Register(func() { ran++ })
	e.Schedule(10, inc)
	e.Schedule(100, inc)
	if drained := e.RunUntil(50); drained {
		t.Fatal("queue should not have drained")
	}
	if ran != 1 {
		t.Fatalf("ran %d events before deadline, want 1", ran)
	}
	if e.Now() != 50 {
		t.Fatalf("clock %d, want 50 (deadline)", e.Now())
	}
	if drained := e.RunUntil(1000); !drained {
		t.Fatal("queue should have drained")
	}
	if ran != 2 {
		t.Fatalf("ran %d events total, want 2", ran)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(1, e.Register(func() { ran++; e.Stop() }))
	e.Schedule(2, e.Register(func() { ran++ }))
	e.Run()
	if ran != 1 {
		t.Fatalf("Stop did not halt the loop: ran %d", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending %d, want 1", e.Pending())
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	e := NewEngine()
	nop := e.Register(func() {})
	e.Schedule(10, e.Register(func() {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleAt in the past did not panic")
			}
		}()
		e.ScheduleAt(5, nop)
	}))
	e.Run()
}

// TestScheduleNilPanics: Schedule refuses an Event the engine never
// issued, the handle's counterpart of a nil callback.
func TestScheduleNilPanics(t *testing.T) {
	for _, registered := range []int{0, 3} {
		func() {
			e := NewEngine()
			for i := 0; i < registered; i++ {
				e.Register(func() {})
			}
			defer func() {
				if recover() == nil {
					t.Errorf("Schedule of handle %d with %d registered did not panic", registered, registered)
				}
			}()
			e.Schedule(0, Event(registered))
		}()
	}
}

// TestKeyLimits: the largest handle and the largest sequence number still
// pack into keys that order by sequence number and dispatch; a nil
// callback, one callback more, or one sequence number more panics.
func TestKeyLimits(t *testing.T) {
	e := NewEngine()
	var ran []Event
	for i := 0; i < maxCalls; i++ {
		h := Event(i)
		if got := e.Register(func() { ran = append(ran, h) }); got != h {
			t.Fatalf("Register returned handle %d, want %d", got, h)
		}
	}
	e.seq = maxSeq - 2
	e.Schedule(5, Event(maxCalls-1))
	e.Schedule(5, 0)
	e.Run()
	if want := []Event{maxCalls - 1, 0}; !reflect.DeepEqual(ran, want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
	for name, fn := range map[string]func(){
		"nil callback":  func() { e.Register(nil) },
		"table full":    func() { e.Register(func() {}) },
		"seq exhausted": func() { e.Schedule(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestEnginePropertyMonotonicClock: no event ever observes a clock earlier
// than a previously executed event, for random delay sequences.
func TestEnginePropertyMonotonicClock(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine()
		last := Tick(0)
		ok := true
		check := e.Register(func() {
			if e.Now() < last {
				ok = false
			}
			last = e.Now()
		})
		for _, d := range delays {
			e.Schedule(Tick(d), check)
		}
		e.Run()
		return ok && e.Pending() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLaneBucketWrapAroundDrain exercises the batched bucket drain across a
// full lane revolution: bucket index (t & laneMask) serves tick t and then
// tick t+laneTicks, with a far event landing exactly on the wrapped tick.
// The (tick, seq) total order must hold throughout — the far event,
// scheduled first, carries the lowest sequence number at the wrapped tick
// and must run ahead of the lane events that arrive later — and every
// bucket must rewind once drained.
func TestLaneBucketWrapAroundDrain(t *testing.T) {
	e := NewEngine()
	type rec struct {
		at  Tick
		tag int
	}
	var got []rec
	note := func(tag int) Event {
		return e.Register(func() { got = append(got, rec{e.Now(), tag}) })
	}

	const base = 7
	const wrapped = Tick(base + laneTicks) // same bucket index as base

	// Delay >= laneTicks routes through the far list; this event lands on
	// the wrapped tick with the lowest seq there.
	e.Schedule(wrapped, note(100))

	// A FIFO batch at tick base fills bucket index base the first time.
	for i := 0; i < 3; i++ {
		e.Schedule(base, note(i))
	}
	// Refill the same bucket one lane revolution later: a callback at
	// base+laneTicks-1 schedules delay 1, landing at base+laneTicks — bucket
	// index base again, now holding the wrapped tick.
	refill := e.Register(func() {
		got = append(got, rec{e.Now(), 50})
		for i := 0; i < 3; i++ {
			e.Schedule(1, note(200+i))
		}
	})
	e.Schedule(base, e.Register(func() { e.Schedule(laneTicks-1, refill) }))

	e.Run()

	want := []rec{
		{base, 0}, {base, 1}, {base, 2},
		{base + laneTicks - 1, 50},
		{wrapped, 100}, // far event first: same tick, lowest seq
		{wrapped, 200}, {wrapped, 201}, {wrapped, 202},
	}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got {tick %d, tag %d}, want {tick %d, tag %d}\nfull order: %v",
				i, got[i].at, got[i].tag, want[i].at, want[i].tag, got)
		}
	}

	if e.Pending() != 0 {
		t.Fatalf("queue not drained: %d pending", e.Pending())
	}
	for b := range e.lane {
		bucket := &e.lane[b]
		if bucket.head != 0 || len(bucket.evs) != 0 {
			t.Fatalf("bucket %d not rewound after drain: head=%d len=%d", b, bucket.head, len(bucket.evs))
		}
	}
}

// TestFarEventPrecedesLaterLaneEvent: a far event is filed into its lane
// bucket by key, not appended. RunUntil moves the clock to a deadline
// inside the far event's horizon without running a batch, so the event is
// still in the far list when an event scheduled from there lands in the
// same bucket for the same tick. The far event holds the lower sequence
// number and must run first.
func TestFarEventPrecedesLaterLaneEvent(t *testing.T) {
	e := NewEngine()
	var got []string
	far := e.Register(func() { got = append(got, "far") })
	near := e.Register(func() { got = append(got, "near") })
	const at = Tick(laneTicks + 10)
	e.Schedule(at, far)
	if drained := e.RunUntil(at - 5); drained || e.Now() != at-5 {
		t.Fatalf("RunUntil(%d): drained %v, now %d", at-5, drained, e.Now())
	}
	e.Schedule(5, near)
	e.Run()
	if want := []string{"far", "near"}; !reflect.DeepEqual(got, want) || e.Now() != at {
		t.Fatalf("ran %v ending at tick %d, want %v at tick %d", got, e.Now(), want, at)
	}
}
