package coherence

import "repro/internal/mem"

// Observer receives a read-only notification after every directory state
// transition. It exists for the runtime invariant oracle (internal/check):
// the directory calls it *after* the transition has been applied, so the
// observer sees the post-state, and it must not mutate directory state or
// schedule simulation work that changes observable statistics.
//
// All calls are synchronous, inside the directory transaction. A nil
// observer (the default) costs one pointer comparison per transaction.
type Observer interface {
	// OnAccess fires after a Read (isWrite=false) or Write/upgrade
	// (isWrite=true) request from core for line completed with res.
	OnAccess(core int, line mem.LineAddr, isWrite bool, attrs ReqAttrs, res AccessResult)
	// OnLock fires after a Lock request from core for line completed with
	// res. On success (res.Retry==false && res.Nacked==false) the core holds
	// the cacheline lock.
	OnLock(core int, line mem.LineAddr, res LockResult)
	// OnUnlock fires after core released its lock on line (including each
	// line released by UnlockAll).
	OnUnlock(core int, line mem.LineAddr)
	// OnEvict fires after core dropped line from its sharer/owner slots.
	OnEvict(core int, line mem.LineAddr)
}

// AddObserver attaches o alongside any observer already installed:
// notifications fan out to every attached observer in attachment order.
// With no observer the hot path keeps paying only the nil comparison; a
// solo observer is called directly with no tee indirection.
func (d *Directory) AddObserver(o Observer) {
	if o == nil {
		return
	}
	if d.obs == nil {
		d.obs = o
		return
	}
	d.obs = &teeObserver{a: d.obs, b: o}
}

// teeObserver fans observer notifications out to two observers.
type teeObserver struct{ a, b Observer }

func (t *teeObserver) OnAccess(core int, line mem.LineAddr, isWrite bool, attrs ReqAttrs, res AccessResult) {
	t.a.OnAccess(core, line, isWrite, attrs, res)
	t.b.OnAccess(core, line, isWrite, attrs, res)
}

func (t *teeObserver) OnLock(core int, line mem.LineAddr, res LockResult) {
	t.a.OnLock(core, line, res)
	t.b.OnLock(core, line, res)
}

func (t *teeObserver) OnUnlock(core int, line mem.LineAddr) {
	t.a.OnUnlock(core, line)
	t.b.OnUnlock(core, line)
}

func (t *teeObserver) OnEvict(core int, line mem.LineAddr) {
	t.a.OnEvict(core, line)
	t.b.OnEvict(core, line)
}

// LineState is a snapshot of one directory entry, exported for auditing.
type LineState struct {
	Line     mem.LineAddr
	Owner    int // core holding M/E, or -1
	Sharers  CoreSet
	LockedBy int // core holding the cacheline lock, or -1
}

// ForEachLine calls fn with a snapshot of every line the directory tracks.
// Iteration order is unspecified (slot order, a function of insertion
// history); callers that need a canonical order must sort. Intended for the
// invariant oracle's full-state audits, not for the simulation hot path.
func (d *Directory) ForEachLine(fn func(LineState)) {
	for si, k := range d.keys {
		if k == emptySlot {
			continue
		}
		fn(LineState{Line: k, Owner: int(d.owner[si]), Sharers: d.sharers[si], LockedBy: int(d.locked[si])})
	}
}
