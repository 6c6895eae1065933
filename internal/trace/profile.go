package trace

import (
	"fmt"
	"sort"

	"repro/internal/cpu"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

// AbortEdge is one aggregated aborter → victim attribution: Count aborts of
// Victim with Reason, in Mode, traced back to Aborter through the
// mechanism named by Via, costing TicksLost of discarded attempt time.
// Aborter is -1 for unattributed aborts (self-inflicted capacity/explicit
// aborts, injected spurious aborts, or contention the stream cannot pin on
// a core).
type AbortEdge struct {
	Aborter int
	Victim  int
	Reason  htm.AbortReason
	// Mode is the victim's execution mode at the abort.
	Mode cpu.Mode
	// Via names the attribution mechanism: "conflict" (a holder-side
	// conflict event carried the requester), "lock-holder" (the victim was
	// waiting on a cacheline lock; wait-chain attribution through the
	// holder), "nack" (the victim's own request was refused by the
	// holder), "fallback" (a fallback-mode core took the global lock), or
	// "self"/"injected" for aborts no remote core caused.
	Via       string
	Count     int
	TicksLost sim.Tick
}

// LineProfile is the contention profile of one cacheline.
type LineProfile struct {
	Line      mem.LineAddr
	Acquires  int
	Retries   int
	Nacks     int
	Conflicts int
	// WaitTicks sums the lock-wait edges spent on this line; MaxWait is
	// the longest single edge; Waiters counts distinct waiting cores.
	WaitTicks sim.Tick
	MaxWait   sim.Tick
	Waiters   int
}

// ARProfile is the contention profile of one AR program.
type ARProfile struct {
	ProgID      int
	Name        string
	Invocations int
	Attempts    int
	Commits     int
	Aborts      int
	// CommittedTicks / AbortedTicks split attempt time by outcome;
	// AbortedTicks is this AR's contribution to the retry bill.
	CommittedTicks sim.Tick
	AbortedTicks   sim.Tick
	LockWaitTicks  sim.Tick
}

// Profile is the offline contention-attribution report over one trace: who
// aborted whom, through which mechanism, on which lines, at what cost in
// ticks — the measurement the paper's single-retry argument is about.
type Profile struct {
	Meta     Meta
	LastTick sim.Tick

	Invocations int
	Attempts    int
	Commits     int
	Aborts      int

	CommitsByMode  map[stats.CommitMode]int
	AbortsByReason map[htm.AbortReason]int
	// TicksLostByReason is the discarded attempt time per abort reason;
	// AbortedTicks is its total (ticks-lost-to-retry accounting).
	TicksLostByReason map[htm.AbortReason]sim.Tick
	AbortedTicks      sim.Tick
	LockWaitTicks     sim.Tick

	// Attributed counts aborts pinned on a specific remote core.
	Attributed   int
	Unattributed int

	// Edges is the abort-attribution table, heaviest TicksLost first.
	Edges []AbortEdge
	// Lines ranks cachelines by contention (wait ticks, then conflicts).
	Lines []LineProfile
	// ARs aggregates per AR program, by id.
	ARs []ARProfile

	// RetryLatency is the first-abort→commit latency distribution of
	// retried invocations (the single-retry bound's direct cost).
	RetryLatency metrics.HistSummary
}

// edgeKey aggregates attribution instances.
type edgeKey struct {
	aborter int
	victim  int
	reason  htm.AbortReason
	mode    cpu.Mode
	via     string
}

// profCore is the per-core reconstruction state of BuildProfile.
type profCore struct {
	// Active attempt.
	inAtt    bool
	attStart sim.Tick
	progID   int
	mode     cpu.Mode
	// Active invocation (for retry-to-commit latency).
	inInv      bool
	aborted    bool
	firstAbort sim.Tick
	// Last holder-side conflict received inside the current attempt.
	confValid bool
	confFrom  int
	// Last lock NACK holder inside the current attempt.
	nackValid bool
	nackFrom  int
	// Open lock waits: line -> (start, holder).
	waits map[mem.LineAddr]waitInfo
}

type waitInfo struct {
	start  sim.Tick
	holder int
}

// BuildProfile folds a stream of events into the contention-attribution
// profile. The stream needs only the always-on record kinds (attempts,
// commits, locks, conflicts); mem/dir streams are ignored.
func BuildProfile(meta Meta, evs []Event) *Profile {
	p := &Profile{
		Meta:              meta,
		CommitsByMode:     make(map[stats.CommitMode]int),
		AbortsByReason:    make(map[htm.AbortReason]int),
		TicksLostByReason: make(map[htm.AbortReason]sim.Tick),
	}
	cores := make([]profCore, meta.Cores)
	for i := range cores {
		cores[i].waits = make(map[mem.LineAddr]waitInfo)
	}
	lockHolder := make(map[mem.LineAddr]int)
	lines := make(map[mem.LineAddr]*LineProfile)
	waiters := make(map[mem.LineAddr]map[int]bool)
	ars := make(map[int]*ARProfile)
	var arOrder []int
	edges := make(map[edgeKey]*AbortEdge)
	retryLat := &metrics.Histogram{}

	lineOf := func(l mem.LineAddr) *LineProfile {
		lp, ok := lines[l]
		if !ok {
			lp = &LineProfile{Line: l}
			lines[l] = lp
		}
		return lp
	}
	arOf := func(id int) *ARProfile {
		a, ok := ars[id]
		if !ok {
			a = &ARProfile{ProgID: id, Name: meta.ARName(id)}
			ars[id] = a
			arOrder = append(arOrder, id)
		}
		return a
	}
	// closeWait ends the open wait of core c on line at tick, crediting the
	// line and AR profiles.
	closeWait := func(c int, line mem.LineAddr, tick sim.Tick) {
		s := &cores[c]
		w, ok := s.waits[line]
		if !ok {
			return
		}
		delete(s.waits, line)
		d := tick - w.start
		p.LockWaitTicks += d
		lp := lineOf(line)
		lp.WaitTicks += d
		if d > lp.MaxWait {
			lp.MaxWait = d
		}
		if s.inAtt {
			arOf(s.progID).LockWaitTicks += d
		}
	}
	// fallbackCore finds the core currently executing a fallback-mode
	// attempt (the global-lock holder), preferring the most recent start.
	fallbackCore := func(victim int) int {
		best, bestTick := -1, sim.Tick(0)
		for i := range cores {
			if i == victim || !cores[i].inAtt || cores[i].mode != cpu.ModeFallback {
				continue
			}
			if best < 0 || cores[i].attStart >= bestTick {
				best, bestTick = i, cores[i].attStart
			}
		}
		return best
	}

	for _, e := range evs {
		if e.Tick > p.LastTick {
			p.LastTick = e.Tick
		}
		c := int(e.Core)
		if c >= len(cores) {
			continue
		}
		s := &cores[c]
		switch e.Kind {
		case KindInvocationStart:
			p.Invocations++
			arOf(e.ProgID()).Invocations++
			s.inInv = true
			s.aborted = false
		case KindAttemptStart:
			p.Attempts++
			s.inAtt = true
			s.attStart = e.Tick
			s.progID = e.ProgID()
			s.mode = e.Mode()
			s.confValid = false
			s.nackValid = false
			arOf(s.progID).Attempts++
		case KindAttemptEnd:
			p.Aborts++
			reason := e.Reason()
			p.AbortsByReason[reason]++
			var dur sim.Tick
			if s.inAtt {
				dur = e.Tick - s.attStart
			}
			p.AbortedTicks += dur
			p.TicksLostByReason[reason] += dur
			ar := arOf(e.ProgID())
			ar.Aborts++
			ar.AbortedTicks += dur

			aborter, via := attributeAbort(s, reason, fallbackCore, c)
			if aborter >= 0 {
				p.Attributed++
			} else {
				p.Unattributed++
			}
			k := edgeKey{aborter: aborter, victim: c, reason: reason, mode: e.Mode(), via: via}
			ed, ok := edges[k]
			if !ok {
				ed = &AbortEdge{Aborter: aborter, Victim: c, Reason: reason, Mode: e.Mode(), Via: via}
				edges[k] = ed
			}
			ed.Count++
			ed.TicksLost += dur

			for line := range s.waits {
				closeWait(c, line, e.Tick)
			}
			s.inAtt = false
			if !s.aborted {
				s.aborted = true
				s.firstAbort = e.Tick
			}
		case KindCommit:
			p.Commits++
			if m, ok := e.Mode().CommitMode(); ok {
				p.CommitsByMode[m]++
			}
			ar := arOf(e.ProgID())
			ar.Commits++
			if s.inAtt {
				ar.CommittedTicks += e.Tick - s.attStart
			}
			for line := range s.waits {
				closeWait(c, line, e.Tick)
			}
			s.inAtt = false
			if s.inInv && s.aborted {
				retryLat.Observe(uint64(e.Tick - s.firstAbort))
			}
			s.inInv = false
			s.aborted = false
		case KindConflict:
			lineOf(e.Line()).Conflicts++
			if s.inAtt {
				s.confValid = true
				s.confFrom = e.Requester()
			}
		case KindLock:
			line := e.Line()
			lp := lineOf(line)
			switch e.LockOutcome() {
			case LockOK:
				lp.Acquires++
				closeWait(c, line, e.Tick)
				lockHolder[line] = c
			case LockRetry:
				lp.Retries++
				holder := e.LockHolder()
				if holder < 0 {
					if h, ok := lockHolder[line]; ok {
						holder = h
					}
				}
				if _, waiting := s.waits[line]; !waiting {
					s.waits[line] = waitInfo{start: e.Tick, holder: holder}
					if waiters[line] == nil {
						waiters[line] = make(map[int]bool)
					}
					waiters[line][c] = true
				} else if holder >= 0 {
					w := s.waits[line]
					w.holder = holder
					s.waits[line] = w
				}
			case LockNack:
				lp.Nacks++
				if holder := e.LockHolder(); holder >= 0 {
					s.nackValid = true
					s.nackFrom = holder
				}
				closeWait(c, line, e.Tick)
			}
		case KindUnlock:
			if lockHolder[e.Line()] == c {
				delete(lockHolder, e.Line())
			}
		}
	}
	// Close whatever the (possibly truncated) stream left open.
	for c := range cores {
		for line := range cores[c].waits {
			closeWait(c, line, p.LastTick)
		}
	}

	for l, lp := range lines {
		lp.Waiters = len(waiters[l])
	}
	p.Edges = sortEdges(edges)
	p.Lines = sortLines(lines)
	sort.Ints(arOrder)
	for _, id := range arOrder {
		p.ARs = append(p.ARs, *ars[id])
	}
	p.RetryLatency = metrics.Summarize("retry_to_commit_ticks", "", retryLat)
	return p
}

// attributeAbort pins one abort on a remote core where the stream allows:
// a direct conflict event beats wait-chain attribution beats a NACK holder;
// fallback-subscription aborts attribute to the fallback-mode core; the
// rest are self-inflicted or unknown.
func attributeAbort(s *profCore, reason htm.AbortReason, fallbackCore func(int) int, victim int) (int, string) {
	switch reason {
	case htm.AbortMemoryConflict:
		if s.confValid {
			return s.confFrom, "conflict"
		}
		// Wait-chain: the victim aborted while (or right after) waiting on
		// a cacheline lock — charge the holder it was stuck behind.
		best, bestTick := -1, sim.Tick(0)
		for _, w := range s.waits {
			if w.holder >= 0 && (best < 0 || w.start >= bestTick) {
				best, bestTick = w.holder, w.start
			}
		}
		if best >= 0 {
			return best, "lock-holder"
		}
		if s.nackValid {
			return s.nackFrom, "nack"
		}
		return -1, ""
	case htm.AbortExplicitFallback, htm.AbortOtherFallback:
		if h := fallbackCore(victim); h >= 0 {
			return h, "fallback"
		}
		return -1, "fallback"
	case htm.AbortSpurious:
		return -1, "injected"
	default: // capacity, explicit, deviation
		return -1, "self"
	}
}

func sortEdges(m map[edgeKey]*AbortEdge) []AbortEdge {
	out := make([]AbortEdge, 0, len(m))
	for _, e := range m {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.TicksLost != b.TicksLost {
			return a.TicksLost > b.TicksLost
		}
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.Victim != b.Victim {
			return a.Victim < b.Victim
		}
		if a.Aborter != b.Aborter {
			return a.Aborter < b.Aborter
		}
		if a.Reason != b.Reason {
			return a.Reason < b.Reason
		}
		return a.Via < b.Via
	})
	return out
}

func sortLines(m map[mem.LineAddr]*LineProfile) []LineProfile {
	out := make([]LineProfile, 0, len(m))
	for _, lp := range m {
		// Untouched-by-contention lines (pure acquires with no waits,
		// nacks, or conflicts) would swamp the report; keep the contended.
		if lp.WaitTicks == 0 && lp.Nacks == 0 && lp.Conflicts == 0 && lp.Retries == 0 {
			continue
		}
		out = append(out, *lp)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.WaitTicks != b.WaitTicks {
			return a.WaitTicks > b.WaitTicks
		}
		if a.Conflicts != b.Conflicts {
			return a.Conflicts > b.Conflicts
		}
		return a.Line < b.Line
	})
	return out
}

// CrossCheck verifies the profile's aggregate accounting against the
// simulator's own stats.Run for the same run: total commits and aborts,
// invocations (each commits exactly once), commits per mode, and the
// per-reason abort totals grouped into the Figure 11 buckets must match
// exactly. It is the acceptance gate proving the attribution table
// accounts for every abort the simulator counted.
func (p *Profile) CrossCheck(run *stats.Run) error {
	if uint64(p.Commits) != run.Commits {
		return fmt.Errorf("profile: %d commits, stats counted %d", p.Commits, run.Commits)
	}
	if uint64(p.Invocations) != run.Commits {
		return fmt.Errorf("profile: %d invocations, stats counted %d commits", p.Invocations, run.Commits)
	}
	if uint64(p.Aborts) != run.Aborts {
		return fmt.Errorf("profile: %d aborts, stats counted %d", p.Aborts, run.Aborts)
	}
	for m := stats.CommitMode(0); m < stats.NumCommitModes; m++ {
		if uint64(p.CommitsByMode[m]) != run.CommitsByMode[m] {
			return fmt.Errorf("profile: %d %s commits, stats counted %d",
				p.CommitsByMode[m], m, run.CommitsByMode[m])
		}
	}
	var byBucket [htm.NumBuckets]uint64
	for r, n := range p.AbortsByReason {
		byBucket[htm.BucketOf(r)] += uint64(n)
	}
	for b := htm.Bucket(0); b < htm.NumBuckets; b++ {
		if byBucket[b] != run.AbortsByBucket[b] {
			return fmt.Errorf("profile: %d %s aborts, stats counted %d",
				byBucket[b], b, run.AbortsByBucket[b])
		}
	}
	var edgeCount int
	for _, e := range p.Edges {
		edgeCount += e.Count
	}
	if edgeCount != p.Aborts {
		return fmt.Errorf("profile: attribution table covers %d aborts of %d", edgeCount, p.Aborts)
	}
	return nil
}
