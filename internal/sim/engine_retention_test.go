package sim

import (
	"reflect"
	"runtime"
	"testing"
)

// hasPointers reports whether a value of type t holds a pointer the
// garbage collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.Slice, reflect.String:
		return true
	}
	return false
}

// TestHeapPopReleasesEvents: a drained far list keeps no retired event
// reachable. A far record is a tick and a key word with no pointer, so
// filing it into the lane just shrinks the list and a vacated slot past
// len() can hold nothing the collector would follow. The walk is checked
// on types that do hold a pointer, the old func-carrying record among
// them.
func TestHeapPopReleasesEvents(t *testing.T) {
	e := NewEngine()
	ran := 0
	inc := e.Register(func() { ran++ })
	// All delays >= laneTicks so every event goes through the far list.
	for i := 0; i < 100; i++ {
		e.Schedule(Tick(laneTicks+i), inc)
	}
	if len(e.far) != 100 {
		t.Fatalf("far list holds %d events, want 100", len(e.far))
	}
	for e.Step() {
	}
	if ran != 100 || e.Pending() != 0 {
		t.Fatalf("ran %d events with %d pending, want 100 and 0", ran, e.Pending())
	}
	if typ := reflect.TypeOf(e.far).Elem(); hasPointers(typ) {
		t.Fatalf("far record %v holds a pointer", typ)
	}
	type funcRecord struct {
		at   Tick
		seq  uint64
		call func()
	}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(funcRecord{}),
		reflect.TypeOf([2]*int{}),
		reflect.TypeOf(struct{ s []uint64 }{}),
		reflect.TypeOf(""),
	} {
		if !hasPointers(typ) {
			t.Errorf("walk missed the pointer in %v", typ)
		}
	}
}

// TestLanePopReleasesEvents checks the same property for the fast-lane
// buckets: a bucket entry is one key word, so a drained bucket just
// rewinds and its backing array holds nothing the collector would follow.
func TestLanePopReleasesEvents(t *testing.T) {
	e := NewEngine()
	ran := 0
	inc := e.Register(func() { ran++ })
	for i := 0; i < 4*laneTicks; i++ {
		e.Schedule(Tick(i%laneTicks), inc)
	}
	for e.Step() {
	}
	if ran != 4*laneTicks || e.Pending() != 0 {
		t.Fatalf("ran %d events with %d pending, want %d and 0", ran, e.Pending(), 4*laneTicks)
	}
	for b := range e.lane {
		bucket := &e.lane[b]
		if bucket.head != 0 || len(bucket.evs) != 0 {
			t.Fatalf("bucket %d not rewound after drain: head=%d len=%d", b, bucket.head, len(bucket.evs))
		}
	}
	if typ := reflect.TypeOf(e.lane[0].evs).Elem(); hasPointers(typ) {
		t.Fatalf("lane word %v holds a pointer", typ)
	}
}

// TestRetiredEventsAreCollectable is the end-to-end GC check: state an
// event hands its callback must become collectable once the event has
// run, even though the engine (with its callback table and retained
// backing arrays) lives on. Per-event state lives in the owner's slot, as
// a core's pending operation does; the engine must keep no copy of it.
func TestRetiredEventsAreCollectable(t *testing.T) {
	e := NewEngine()
	collected := make(chan struct{})
	nop := e.Register(func() {})
	// Schedule enough sibling events that the payload's event sits among
	// others in the far list and, once filed, in its lane bucket.
	for i := 0; i < 32; i++ {
		e.Schedule(Tick(i), nop)
		e.Schedule(Tick(laneTicks+i), nop)
	}
	var slot *[1 << 16]byte
	take := e.Register(func() {
		if slot == nil {
			panic("payload vanished before the event ran")
		}
		slot = nil
	})
	payload := new([1 << 16]byte)
	runtime.SetFinalizer(payload, func(*[1 << 16]byte) { close(collected) })
	slot = payload
	payload = nil
	e.Schedule(laneTicks+5, take)
	for e.Step() {
	}
	// The engine is still alive (and referenced below); only the slot
	// kept the payload, and the event has cleared it.
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			if e.Pending() != 0 {
				t.Fatalf("queue not drained: %d pending", e.Pending())
			}
			return
		default:
		}
	}
	t.Fatal("retired event's payload still reachable: engine retains executed events")
}
