package htm

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/mem"
)

// FallbackLock is the global lock guarding non-speculative fallback
// execution. Its functional state lives in this struct; its *coherence*
// state is the simulated cacheline Line: speculative transactions read
// (subscribe to) the line at XBegin, so a writer's GetX aborts them through
// the ordinary invalidation path — the mechanism §2.1 describes.
//
// The lock is a readers-writer lock: NS-CL and S-CL executions take it in
// read mode (§4.3, "ensure that no other AR is in fallback mode by acquiring
// a read lock"); fallback execution takes it in write mode. A waiting writer
// blocks new readers so the fallback path cannot starve.
type FallbackLock struct {
	Line mem.LineAddr

	writer         int // core holding write mode, or -1
	readers        coherence.CoreSet
	writersWaiting coherence.CoreSet
}

// NewFallbackLock builds an unlocked fallback lock backed by line.
func NewFallbackLock(line mem.LineAddr) *FallbackLock {
	return &FallbackLock{Line: line, writer: -1}
}

// Free reports whether a speculative transaction may start: no writer holds
// the lock and none is waiting. CL-mode readers do not block speculation —
// the read lock exists only to exclude fallback execution (§4.3).
func (f *FallbackLock) Free() bool {
	return f.writer < 0 && f.writersWaiting.Empty()
}

// Idle reports whether a waiting writer may take the lock: no core holds it
// in either mode.
func (f *FallbackLock) Idle() bool {
	return f.writer < 0 && f.readers.Empty()
}

// WriterHeld reports whether some core holds write (fallback) mode.
func (f *FallbackLock) WriterHeld() bool { return f.writer >= 0 }

// Writer returns the core in write mode, or -1.
func (f *FallbackLock) Writer() int { return f.writer }

// Readers returns the set of cores in read mode.
func (f *FallbackLock) Readers() coherence.CoreSet { return f.readers }

// TryAcquireRead takes read mode for core if no writer holds or awaits the
// lock. NS-CL/S-CL spin on this.
func (f *FallbackLock) TryAcquireRead(core int) bool {
	if f.writer >= 0 || !f.writersWaiting.Empty() {
		return false
	}
	f.readers = f.readers.Add(core)
	return true
}

// ReleaseRead drops core's read mode.
func (f *FallbackLock) ReleaseRead(core int) {
	if !f.readers.Has(core) {
		panic(fmt.Sprintf("htm: core %d releasing fallback read lock it does not hold", core))
	}
	f.readers = f.readers.Remove(core)
}

// AnnounceWriter registers core as wanting write mode, blocking new readers.
func (f *FallbackLock) AnnounceWriter(core int) {
	f.writersWaiting = f.writersWaiting.Add(core)
}

// TryAcquireWrite claims write mode for core once all readers have drained
// and no other writer holds the lock. The core must have announced first.
func (f *FallbackLock) TryAcquireWrite(core int) bool {
	if !f.writersWaiting.Has(core) {
		panic(fmt.Sprintf("htm: core %d acquiring fallback write lock without announcing", core))
	}
	if !f.Idle() {
		return false
	}
	f.writer = core
	f.writersWaiting = f.writersWaiting.Remove(core)
	return true
}

// ReleaseWrite drops write mode.
func (f *FallbackLock) ReleaseWrite(core int) {
	if f.writer != core {
		panic(fmt.Sprintf("htm: core %d releasing fallback write lock held by %d", core, f.writer))
	}
	f.writer = -1
}
