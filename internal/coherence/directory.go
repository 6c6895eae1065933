// Package coherence implements the directory side of a MESI protocol with
// the extensions CLEAR needs: cacheline locking, NACKable requests, and
// retry-the-requester resolution of locked-line encounters (§4.4 of the
// paper, Figures 5 and 6).
//
// The simulator processes each coherence transaction atomically inside one
// directory call; latencies are returned to the requesting core, which
// schedules its own continuation. Invalidation side effects (transaction
// aborts at remote cores) are delivered synchronously through the CoreHook
// interface that the HTM layer implements.
package coherence

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
)

// Latencies gathers the timing constants of the memory hierarchy, matching
// Table 2 of the paper.
type Latencies struct {
	L1Hit sim.Tick // private L1 hit
	// Directory is the shared L3/directory access cost; the private L2 of
	// Table 2 is folded into this path (the simulator tracks residency at
	// L1 granularity only).
	Directory sim.Tick
	Memory    sim.Tick // DRAM access beyond the directory
	Crossbar  sim.Tick // one interconnect traversal (core<->directory)
	Backoff   sim.Tick // re-issue delay after a locked-line Retry signal
}

// DefaultLatencies mirrors Table 2: L1 1 cycle, L3/directory 45, memory 80.
func DefaultLatencies() Latencies {
	return Latencies{
		L1Hit:     1,
		Directory: 45,
		Memory:    80,
		Crossbar:  6,
		Backoff:   20,
	}
}

// HolderResponse is what a remote core answers when the directory asks it to
// give up (or share) a line.
type HolderResponse int

const (
	// HolderYields: the holder relinquishes the line; if it was reading or
	// writing it transactionally the holder aborts (requester-wins).
	HolderYields HolderResponse = iota
	// HolderNacks: the holder has priority (power mode, or S-CL with the
	// line locked); the requester is refused and must abort or retry.
	HolderNacks
)

// ReqAttrs qualifies a coherence request with the transactional context of
// the requesting core.
type ReqAttrs struct {
	// FailedMode marks a non-aborting request from failed-mode discovery:
	// it must not disturb remote transactional state (§5.1).
	FailedMode bool
	// Power marks the requester as the (single) PowerTM power-mode
	// transaction; holders yield to it even if they would otherwise win.
	Power bool
	// NackableLoad marks an S-CL load to a line the requester did not lock;
	// if the target line is locked by someone else, the requester receives
	// a Nack and aborts (Fig. 5 deadlock avoidance).
	NackableLoad bool
	// NonSpec marks a request from non-speculative fallback execution under
	// the global lock; speculative holders always yield to it (their
	// subscription to the fallback-lock line aborts them anyway).
	NonSpec bool
	// Locking marks the exclusive request of a cacheline-lock acquisition.
	// Victim S-CL holders must not record such invalidations in their CRT:
	// the locker is itself a transient CL re-execution, and defensively
	// locking the line next time would only propagate lock acquisitions
	// across the system (a chain reaction on read-hot lines).
	Locking bool
}

// AccessResult reports the outcome of a Read/Write request.
type AccessResult struct {
	// Latency until data is available at the requesting core.
	Latency sim.Tick
	// Nacked: the request was refused by a lock holder or power-mode
	// transaction; the requester must abort its AR.
	Nacked bool
	// Retry: the line is locked and the request is not NACKable; the
	// requester must re-issue after Latency (the directory stays unblocked —
	// this is the paper's fix to the three-core deadlock of Fig. 6).
	Retry bool
	// LockNack: the Nack came from a cacheline lock rather than from a
	// prioritised holder. S-CL requesters do not record lock-caused nacks
	// in the CRT — the lock is a transient re-execution artefact, and
	// locking the line in response would cascade lock acquisitions across
	// cores on read-hot lines.
	LockNack bool
}

// LockResult reports the outcome of a Lock request.
type LockResult struct {
	Latency sim.Tick
	// Retry: the line is locked by another core; re-issue after Latency
	// (the lexicographic total order keeps this wait acyclic).
	Retry bool
	// Nacked: a prioritised holder (power mode, another S-CL's speculative
	// set) refused the underlying invalidation; the locking AR must abort
	// rather than spin, or it could form a wait cycle with the holder
	// (§5.2).
	Nacked bool
	// Holder identifies the core responsible for a Retry/Nacked outcome —
	// exact for Retry (the lock holder), best-effort for Nacked (the
	// exclusive owner when one exists). Meaningful only when HolderKnown;
	// the zero value deliberately reads as "unknown" so fabricated results
	// (tests, injected denials with no real holder) stay unattributed.
	Holder      int
	HolderKnown bool
}

// CoreHook is implemented by the per-core transactional layer. The directory
// invokes it synchronously while processing a transaction.
type CoreHook interface {
	// OnRemoteRequest tells the core that another core requests line with
	// (isWrite) intent, carrying the requester's attributes. The core
	// answers whether it yields (dropping the line from its cache, aborting
	// its transaction if the line is in its read/write set) or NACKs.
	OnRemoteRequest(line mem.LineAddr, isWrite bool, requester int, attrs ReqAttrs) HolderResponse
}

type heldReq struct {
	core    int
	isWrite bool
}

// Config controls directory behaviour.
type Config struct {
	NumCores int
	// Sets is the number of directory sets; it defines CLEAR's
	// lexicographic lock order and its conflict groups. Power of two.
	Sets int
	// HoldOnLocked, when true, queues non-NACKable requests at a locked
	// line instead of signalling Retry. This reproduces the deadlock of
	// Fig. 6 and exists only for tests; production configs leave it false.
	HoldOnLocked bool
	Lat          Latencies
	// Topo prices interconnect traversals; nil selects the Table 2
	// crossbar with Lat.Crossbar per link.
	Topo noc.Topology
}

// DefaultConfig returns a 32-core directory with 4096 sets.
func DefaultConfig() Config {
	return Config{NumCores: 32, Sets: 4096, Lat: DefaultLatencies()}
}

// Stats counts directory-observable events; the energy model consumes them.
type Stats struct {
	Reads         uint64
	Writes        uint64
	Invalidations uint64
	Downgrades    uint64
	Nacks         uint64
	Retries       uint64
	Locks         uint64
	Unlocks       uint64
	MemoryFetches uint64
	Forwards      uint64
	// Hops counts interconnect link traversals (the NoC energy input).
	Hops uint64
}

// emptySlot is the open-addressed table's vacancy sentinel. Line addresses
// are word addresses shifted right by the 6 line-offset bits, so the top
// bits of a real line are always zero and all-ones can never collide.
const emptySlot = ^mem.LineAddr(0)

// dirMinSlots is the initial table capacity; it doubles on demand.
const dirMinSlots = 1 << 10

// dirHashMul is the 64-bit golden-ratio multiplier (Fibonacci hashing).
const dirHashMul = 0x9e3779b97f4a7c15

// Directory is the shared coherence point: it tracks the owner, sharers, and
// lock state of every line touched so far.
//
// Line state lives in an open-addressed, power-of-two table of parallel
// arrays indexed by slot — no per-line heap nodes. Entries are created on
// first touch and never deleted (Evict only clears owner/sharer bits), so
// probing needs no tombstones and slot indices stay valid until the next
// insertion-triggered growth (which cannot happen inside one directory
// transaction: insertion occurs only at the top of Read/Write/Lock).
type Directory struct {
	cfg Config

	// The slot-indexed state arrays. keys[i] == emptySlot marks a free
	// slot; owner/locked use -1 for "none"; heldq is allocated only in
	// HoldOnLocked mode (the deadlock-injection tests).
	keys    []mem.LineAddr
	owner   []int32
	sharers []CoreSet
	locked  []int32
	heldq   [][]heldReq
	live    int  // occupied slots
	shift   uint // 64 - log2(len(keys))

	hooks []CoreHook
	topo  noc.Topology

	// held[core] lists the lines core currently holds cacheline locks on,
	// in acquisition order. It makes the XEnd bulk unlock (§5.1) and the
	// locked-line census O(locks held) instead of O(all lines ever
	// touched); lockedLines is the global count.
	held        [][]mem.LineAddr
	lockedLines int

	// obs, when non-nil, is notified after every state transition (see
	// Observer in observer.go). Nil by default: the hot path pays one
	// pointer comparison.
	obs Observer

	// fault, when non-nil, filters requests before they reach the protocol
	// (see FaultHook in fault.go). Nil by default, same cost discipline as
	// obs.
	fault FaultHook

	Stats Stats
}

// NewDirectory builds an empty directory for cfg.NumCores cores.
func NewDirectory(cfg Config) *Directory {
	if cfg.NumCores <= 0 || cfg.NumCores > 64 {
		panic(fmt.Sprintf("coherence: unsupported core count %d", cfg.NumCores))
	}
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("coherence: directory sets %d not a power of two", cfg.Sets))
	}
	topo := cfg.Topo
	if topo == nil {
		topo = noc.NewCrossbar(cfg.Lat.Crossbar)
	}
	d := &Directory{
		cfg:   cfg,
		hooks: make([]CoreHook, cfg.NumCores),
		topo:  topo,
		held:  make([][]mem.LineAddr, cfg.NumCores),
	}
	d.initTable(dirMinSlots)
	return d
}

func (d *Directory) initTable(n int) {
	d.keys = make([]mem.LineAddr, n)
	for i := range d.keys {
		d.keys[i] = emptySlot
	}
	d.owner = make([]int32, n)
	d.sharers = make([]CoreSet, n)
	d.locked = make([]int32, n)
	if d.cfg.HoldOnLocked {
		d.heldq = make([][]heldReq, n)
	}
	d.shift = uint(64 - bits.Len(uint(n-1)))
}

// lookup probes for line. It returns the slot holding line (found=true) or
// the free slot where line would be inserted (found=false).
func (d *Directory) lookup(line mem.LineAddr) (slot int, found bool) {
	mask := uint64(len(d.keys) - 1)
	for i := (uint64(line) * dirHashMul) >> d.shift; ; i = (i + 1) & mask {
		k := d.keys[i]
		if k == line {
			return int(i), true
		}
		if k == emptySlot {
			return int(i), false
		}
	}
}

// slotFor returns line's slot, creating the entry on first touch.
func (d *Directory) slotFor(line mem.LineAddr) int {
	i, ok := d.lookup(line)
	if ok {
		return i
	}
	if (d.live+1)*4 >= len(d.keys)*3 {
		d.grow()
		i, _ = d.lookup(line)
	}
	d.keys[i] = line
	d.owner[i] = -1
	d.sharers[i] = 0
	d.locked[i] = -1
	d.live++
	return i
}

// grow doubles the table and re-probes every occupied slot. Lock state
// survives: the per-core held lists store lines, not slot indices.
func (d *Directory) grow() {
	oldKeys, oldOwner, oldSharers, oldLocked, oldHeldq := d.keys, d.owner, d.sharers, d.locked, d.heldq
	d.initTable(len(oldKeys) * 2)
	mask := uint64(len(d.keys) - 1)
	for j, k := range oldKeys {
		if k == emptySlot {
			continue
		}
		i := (uint64(k) * dirHashMul) >> d.shift
		for d.keys[i] != emptySlot {
			i = (i + 1) & mask
		}
		d.keys[i] = k
		d.owner[i] = oldOwner[j]
		d.sharers[i] = oldSharers[j]
		d.locked[i] = oldLocked[j]
		if oldHeldq != nil {
			d.heldq[i] = oldHeldq[j]
		}
	}
}

// link prices one interconnect traversal between core and line's home bank
// and counts its hops.
func (d *Directory) link(core int, line mem.LineAddr) sim.Tick {
	bank := d.SetOf(line)
	d.Stats.Hops += uint64(d.topo.Hops(core, bank))
	return d.topo.Latency(core, bank)
}

// RegisterHook installs the transactional layer callback for a core.
func (d *Directory) RegisterHook(core int, h CoreHook) { d.hooks[core] = h }

// Config returns the directory configuration.
func (d *Directory) Config() Config { return d.cfg }

// SetOf returns the directory set index of line: CLEAR's lexicographic lock
// order (§5, "the set index of the smallest shared structure").
func (d *Directory) SetOf(line mem.LineAddr) int { return line.SetIndex(d.cfg.Sets) }

// LockedBy returns the core holding the cacheline lock on line, or -1.
func (d *Directory) LockedBy(line mem.LineAddr) int {
	if si, ok := d.lookup(line); ok {
		return int(d.locked[si])
	}
	return -1
}

// Owner returns the exclusive owner of line, or -1.
func (d *Directory) Owner(line mem.LineAddr) int {
	if si, ok := d.lookup(line); ok {
		return int(d.owner[si])
	}
	return -1
}

// Sharers returns the sharer set of line.
func (d *Directory) Sharers(line mem.LineAddr) CoreSet {
	if si, ok := d.lookup(line); ok {
		return d.sharers[si]
	}
	return 0
}

// roundTrip is the base cost of core consulting line's directory bank:
// request + response traversals plus the directory access.
func (d *Directory) roundTrip(core int, line mem.LineAddr) sim.Tick {
	return d.link(core, line) + d.link(core, line) + d.cfg.Lat.Directory
}

// Read processes a GetS from core. On success the core becomes a sharer
// (or keeps ownership). Failed-mode reads do not register as sharers and
// never abort remote holders.
func (d *Directory) Read(core int, line mem.LineAddr, attrs ReqAttrs) AccessResult {
	var res AccessResult
	if d.fault != nil {
		res = d.faultedAccess(core, line, false, attrs)
	} else {
		res = d.read(core, line, attrs)
	}
	if d.obs != nil {
		d.obs.OnAccess(core, line, false, attrs, res)
	}
	return res
}

func (d *Directory) read(core int, line mem.LineAddr, attrs ReqAttrs) AccessResult {
	d.Stats.Reads++
	si := d.slotFor(line)
	lat := d.roundTrip(core, line)

	if attrs.FailedMode {
		// Failed-mode discovery loads are non-aborting (§5.1): they read
		// committed data without registering as sharers, disturbing owners,
		// or honouring cacheline locks — the AR is already doomed and its
		// requests must not damage other ARs.
		d.Stats.MemoryFetches++
		return AccessResult{Latency: lat + d.cfg.Lat.Memory}
	}

	if d.locked[si] >= 0 && int(d.locked[si]) != core {
		return d.refuse(si, line, core, false, attrs, lat)
	}

	if owner := int(d.owner[si]); d.owner[si] >= 0 && owner != core {
		// Owned elsewhere: ask the owner to downgrade (share) the line.
		resp := d.askHolder(owner, line, false, core, attrs)
		if resp == HolderNacks {
			d.Stats.Nacks++
			return AccessResult{Latency: lat + d.cfg.Lat.Crossbar, Nacked: true}
		}
		d.Stats.Downgrades++
		d.Stats.Forwards++
		// Forward to the owner and data back: two more traversals.
		lat += d.link(owner, line) + d.link(core, line)
		// Owner keeps a shared copy.
		d.sharers[si] = d.sharers[si].Add(owner)
		d.owner[si] = -1
	} else if owner == core {
		// Already owned by the requester (e.g. read after transactional
		// write): nothing to do at the directory.
	} else if d.sharers[si].Empty() && d.owner[si] < 0 {
		// Cold miss: fetch from memory.
		d.Stats.MemoryFetches++
		lat += d.cfg.Lat.Memory
	}

	if int(d.owner[si]) != core {
		d.sharers[si] = d.sharers[si].Add(core)
	}
	return AccessResult{Latency: lat}
}

// Write processes a GetX/Upgrade from core. On success the core becomes the
// exclusive owner; all other sharers and any previous owner are invalidated
// (which may abort their transactions, per the holder's policy).
func (d *Directory) Write(core int, line mem.LineAddr, attrs ReqAttrs) AccessResult {
	var res AccessResult
	if d.fault != nil {
		res = d.faultedAccess(core, line, true, attrs)
	} else {
		res = d.write(core, line, attrs)
	}
	if d.obs != nil {
		d.obs.OnAccess(core, line, true, attrs, res)
	}
	return res
}

func (d *Directory) write(core int, line mem.LineAddr, attrs ReqAttrs) AccessResult {
	d.Stats.Writes++
	si := d.slotFor(line)
	lat := d.roundTrip(core, line)

	if d.locked[si] >= 0 && int(d.locked[si]) != core {
		return d.refuse(si, line, core, true, attrs, lat)
	}

	if int(d.owner[si]) == core {
		return AccessResult{Latency: lat}
	}

	// Collect every remote holder that must be invalidated.
	nacked := false
	invalidated := 0
	if owner := int(d.owner[si]); d.owner[si] >= 0 {
		resp := d.askHolder(owner, line, true, core, attrs)
		if resp == HolderNacks {
			nacked = true
		} else {
			d.Stats.Invalidations++
			invalidated++
			d.owner[si] = -1
		}
	}
	if !nacked {
		// Walk the sharer bits directly (ascending core order, like
		// CoreSet.ForEach) — no closure, no indirect calls on this hot path.
		var keep CoreSet
		for v := uint64(d.sharers[si]); v != 0; {
			c := bits.TrailingZeros64(v)
			v &^= 1 << uint(c)
			if c == core {
				// The requester's own shared copy stays valid if the
				// upgrade fails; dropping it here would let its cache and
				// the sharer vector diverge (lost conflict detection).
				keep = keep.Add(c)
				continue
			}
			resp := d.askHolder(c, line, true, core, attrs)
			if resp == HolderNacks {
				nacked = true
				keep = keep.Add(c)
				continue
			}
			d.Stats.Invalidations++
			invalidated++
		}
		if nacked {
			// Partial invalidation: holders that yielded are already gone;
			// refusing holders and the requester keep their copies and the
			// upgrade fails.
			d.sharers[si] = keep
		} else {
			d.sharers[si] = 0
		}
	}
	if nacked {
		d.Stats.Nacks++
		return AccessResult{Latency: lat + d.link(core, line), Nacked: true}
	}

	if invalidated > 0 {
		lat += 2 * d.link(core, line) // invalidation round trip (worst sharer)
	} else {
		d.Stats.MemoryFetches++
		lat += d.cfg.Lat.Memory
	}
	d.owner[si] = int32(core)
	d.sharers[si] = 0
	return AccessResult{Latency: lat}
}

// refuse handles a request that hit a line locked by another core.
func (d *Directory) refuse(si int, line mem.LineAddr, core int, isWrite bool, attrs ReqAttrs, lat sim.Tick) AccessResult {
	if attrs.NackableLoad && !isWrite {
		// Nackable loads are refused outright; the requester aborts. This
		// breaks the two-core cycle of Fig. 5.
		d.Stats.Nacks++
		return AccessResult{Latency: lat + d.link(core, line), Nacked: true, LockNack: true}
	}
	if attrs.Power {
		// §5.2: locked (S-CL/NS-CL) lines answer power-mode requests with a
		// nack so the power transaction aborts instead of spinning — a
		// power transaction waiting on a cacheline lock while the locker
		// waits on power-held lines would otherwise livelock.
		d.Stats.Nacks++
		return AccessResult{Latency: lat + d.link(core, line), Nacked: true, LockNack: true}
	}
	if d.cfg.HoldOnLocked {
		// Deadlock-prone design: park the request at the (blocked) entry.
		// Only reachable in tests.
		d.heldq[si] = append(d.heldq[si], heldReq{core: core, isWrite: isWrite})
		return AccessResult{Latency: 0, Retry: false, Nacked: false}
	}
	// Production design: tell the requester to try again later, leaving the
	// directory entry unblocked (Fig. 6 fix).
	d.Stats.Retries++
	return AccessResult{Latency: lat + d.cfg.Lat.Backoff, Retry: true}
}

// HeldCount reports how many requests are parked on line (HoldOnLocked mode
// only); tests use it to observe the deadlock.
func (d *Directory) HeldCount(line mem.LineAddr) int {
	if d.heldq == nil {
		return 0
	}
	if si, ok := d.lookup(line); ok {
		return len(d.heldq[si])
	}
	return 0
}

func (d *Directory) askHolder(holder int, line mem.LineAddr, isWrite bool, requester int, attrs ReqAttrs) HolderResponse {
	h := d.hooks[holder]
	if h == nil {
		return HolderYields
	}
	return h.OnRemoteRequest(line, isWrite, requester, attrs)
}

// Lock acquires the cacheline lock on line for core, first obtaining
// exclusive ownership (invalidating sharers). If another core already holds
// the lock, the result says to retry after the returned latency. The holder
// callbacks apply the same policies as Write, so locking a line that a
// power-mode transaction is using can be nacked — the caller converts that
// into a retry as well.
func (d *Directory) Lock(core int, line mem.LineAddr, attrs ReqAttrs) LockResult {
	var res LockResult
	if d.fault != nil {
		res = d.faultedLock(core, line, attrs)
	} else {
		res = d.lock(core, line, attrs)
	}
	if d.obs != nil {
		d.obs.OnLock(core, line, res)
	}
	return res
}

func (d *Directory) lock(core int, line mem.LineAddr, attrs ReqAttrs) LockResult {
	d.Stats.Locks++
	si := d.slotFor(line)
	if d.locked[si] >= 0 && int(d.locked[si]) != core {
		d.Stats.Retries++
		return LockResult{
			Latency: d.roundTrip(core, line) + d.cfg.Lat.Backoff, Retry: true,
			Holder: int(d.locked[si]), HolderKnown: true,
		}
	}
	if int(d.owner[si]) == core {
		// Already held exclusive (the ALT "Hit" fast path of §5): the lock
		// is taken without communicating with the rest of the hierarchy.
		d.acquireLock(core, line, si)
		return LockResult{Latency: d.cfg.Lat.L1Hit}
	}
	attrs.Locking = true
	res := d.Write(core, line, attrs)
	if res.Nacked {
		out := LockResult{Latency: res.Latency, Nacked: true}
		if owner := int(d.owner[si]); owner >= 0 && owner != core {
			out.Holder, out.HolderKnown = owner, true
		}
		return out
	}
	if res.Retry {
		d.Stats.Retries++
		return LockResult{Latency: res.Latency + d.cfg.Lat.Backoff, Retry: true}
	}
	d.acquireLock(core, line, si)
	return LockResult{Latency: res.Latency}
}

// acquireLock records core as the lock holder of line, keeping the per-core
// held-locks list and the global count exact. Re-locking an already-held
// line is a no-op.
func (d *Directory) acquireLock(core int, line mem.LineAddr, si int) {
	if int(d.locked[si]) == core {
		return
	}
	d.locked[si] = int32(core)
	d.held[core] = append(d.held[core], line)
	d.lockedLines++
}

// Unlock releases the cacheline lock held by core on line. Held requests
// (HoldOnLocked mode) are not replayed automatically; the simulator's retry
// scheme re-issues from the core side.
func (d *Directory) Unlock(core int, line mem.LineAddr) {
	d.Stats.Unlocks++
	si := d.slotFor(line)
	if int(d.locked[si]) != core {
		panic(fmt.Sprintf("coherence: core %d unlocking line %s locked by %d", core, line, d.locked[si]))
	}
	d.locked[si] = -1
	d.lockedLines--
	held := d.held[core]
	for i := range held {
		if held[i] == line {
			d.held[core] = append(held[:i], held[i+1:]...)
			if d.obs != nil {
				d.obs.OnUnlock(core, line)
			}
			return
		}
	}
	panic(fmt.Sprintf("coherence: core %d held-locks list missing line %s", core, line))
}

// UnlockAll releases every lock held by core (the bulk unlock at XEnd,
// §5.1) and returns how many were released. It walks the per-core
// held-locks list, re-probing each line (an O(1) hit), so the cost is
// O(locks held) — independent of how many lines the directory has ever
// tracked.
func (d *Directory) UnlockAll(core int) int {
	held := d.held[core]
	n := len(held)
	for _, line := range held {
		si, ok := d.lookup(line)
		if !ok {
			panic(fmt.Sprintf("coherence: core %d held lock on untracked line %s", core, line))
		}
		d.locked[si] = -1
		if d.obs != nil {
			d.obs.OnUnlock(core, line)
		}
	}
	d.held[core] = held[:0]
	d.lockedLines -= n
	d.Stats.Unlocks += uint64(n)
	return n
}

// Evict removes core from line's sharer/owner sets (L1 replacement or
// abort cleanup). Locked lines cannot be evicted.
func (d *Directory) Evict(core int, line mem.LineAddr) {
	si, ok := d.lookup(line)
	if !ok {
		return
	}
	if int(d.locked[si]) == core {
		panic(fmt.Sprintf("coherence: evicting locked line %s", line))
	}
	if int(d.owner[si]) == core {
		d.owner[si] = -1
	}
	d.sharers[si] = d.sharers[si].Remove(core)
	if d.obs != nil {
		d.obs.OnEvict(core, line)
	}
}

// LockedLines returns how many lines are currently cacheline-locked; tests
// use it to assert the bulk unlock is complete. O(1): the count is
// maintained by Lock/Unlock/UnlockAll.
func (d *Directory) LockedLines() int { return d.lockedLines }

// HeldLocks returns the lines core currently holds cacheline locks on, in
// acquisition order (a copy; the caller may retain it).
func (d *Directory) HeldLocks(core int) []mem.LineAddr {
	held := d.held[core]
	if len(held) == 0 {
		return nil
	}
	lines := make([]mem.LineAddr, len(held))
	copy(lines, held)
	return lines
}
