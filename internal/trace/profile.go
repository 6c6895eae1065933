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

	// Spans are the attempts with their lock-wait edges, in the order they
	// ended. An attempt whose end the stream lacks ends, open, at its
	// core's next attempt start; attempts still running when the stream
	// ends come last, by core.
	Spans []Span
}

// edgeKey aggregates attribution instances.
type edgeKey struct {
	aborter int
	victim  int
	reason  htm.AbortReason
	mode    cpu.Mode
	via     string
}

// profCore is the per-core state of the fold.
type profCore struct {
	// inAtt marks an attempt in progress; span is its record so far.
	inAtt bool
	span  Span
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
	// Open lock waits by line.
	waits map[mem.LineAddr]waitInfo
}

// waitInfo is one open lock wait. holder is the latest core reported
// holding the line, the one abort attribution blames; edge indexes the
// wait's edge in the current span, or is -1 until a retry inside that span
// opens one.
type waitInfo struct {
	start  sim.Tick
	holder int
	edge   int
}

// fold is the one reconstruction of attempts and lock holders from a
// stream. BuildProfile runs it to the end of the stream; SampleIntervals
// reads its running totals between events.
type fold struct {
	p          *Profile
	cores      []profCore
	lockHolder map[mem.LineAddr]int
	// acquires, retries and nacks count lock outcomes.
	acquires, retries, nacks int

	lines    map[mem.LineAddr]*LineProfile
	waiters  map[mem.LineAddr]map[int]bool
	ars      map[int]*ARProfile
	arOrder  []int
	edges    map[edgeKey]*AbortEdge
	retryLat metrics.Histogram
}

// BuildProfile folds a stream of events into the contention-attribution
// profile and the attempt spans. The stream needs only the always-on record
// kinds (attempts, commits, locks, conflicts); mem/dir streams are ignored.
func BuildProfile(meta Meta, evs []Event) *Profile {
	f := newFold(meta)
	for _, e := range evs {
		f.add(e)
	}
	return f.finish()
}

func newFold(meta Meta) *fold {
	f := &fold{
		p: &Profile{
			Meta:              meta,
			CommitsByMode:     make(map[stats.CommitMode]int),
			AbortsByReason:    make(map[htm.AbortReason]int),
			TicksLostByReason: make(map[htm.AbortReason]sim.Tick),
		},
		cores:      make([]profCore, meta.Cores),
		lockHolder: make(map[mem.LineAddr]int),
		lines:      make(map[mem.LineAddr]*LineProfile),
		waiters:    make(map[mem.LineAddr]map[int]bool),
		ars:        make(map[int]*ARProfile),
		edges:      make(map[edgeKey]*AbortEdge),
	}
	for i := range f.cores {
		f.cores[i].waits = make(map[mem.LineAddr]waitInfo)
	}
	return f
}

func (f *fold) lineOf(l mem.LineAddr) *LineProfile {
	lp, ok := f.lines[l]
	if !ok {
		lp = &LineProfile{Line: l}
		f.lines[l] = lp
	}
	return lp
}

func (f *fold) arOf(id int) *ARProfile {
	a, ok := f.ars[id]
	if !ok {
		a = &ARProfile{ProgID: id, Name: f.p.Meta.ARName(id)}
		f.ars[id] = a
		f.arOrder = append(f.arOrder, id)
	}
	return a
}

// closeWait ends the open wait of core c on line at tick, crediting the
// line and AR profiles and ending the wait's edge in the span.
func (f *fold) closeWait(c int, line mem.LineAddr, tick sim.Tick, acquired bool) {
	s := &f.cores[c]
	w, ok := s.waits[line]
	if !ok {
		return
	}
	delete(s.waits, line)
	if w.edge >= 0 {
		s.span.Waits[w.edge].End = tick
		s.span.Waits[w.edge].Acquired = acquired
	}
	d := tick - w.start
	f.p.LockWaitTicks += d
	lp := f.lineOf(line)
	lp.WaitTicks += d
	if d > lp.MaxWait {
		lp.MaxWait = d
	}
	if s.inAtt {
		f.arOf(s.span.ProgID).LockWaitTicks += d
	}
}

// endAttempt ends core c's attempt at e, an abort or a commit: its open
// waits close un-acquired, and its span, if one is in progress, is emitted.
func (f *fold) endAttempt(c int, e Event) {
	s := &f.cores[c]
	for line := range s.waits {
		f.closeWait(c, line, e.Tick, false)
	}
	if !s.inAtt {
		return
	}
	s.inAtt = false
	sp := &s.span
	sp.End = e.Tick
	sp.EndMode = e.Mode()
	sp.Retries = e.Retries()
	if e.Kind == KindCommit {
		sp.Outcome = OutcomeCommit
		sp.StoreLines = e.StoreLines()
	} else {
		sp.Outcome = OutcomeAbort
		sp.Reason = e.Reason()
		sp.NextMode = e.NextMode()
		if pm, ok := e.ProposedMode(); ok {
			sp.Proposed = pm
			sp.Overridden = pm != e.NextMode()
		}
	}
	f.p.Spans = append(f.p.Spans, *sp)
}

// fallbackCore finds the core currently executing a fallback-mode attempt
// (the global-lock holder), preferring the most recent start.
func (f *fold) fallbackCore(victim int) int {
	best, bestTick := -1, sim.Tick(0)
	for i := range f.cores {
		s := &f.cores[i]
		if i == victim || !s.inAtt || s.span.StartMode != cpu.ModeFallback {
			continue
		}
		if best < 0 || s.span.Start >= bestTick {
			best, bestTick = i, s.span.Start
		}
	}
	return best
}

// add folds one event.
func (f *fold) add(e Event) {
	p := f.p
	if e.Tick > p.LastTick {
		p.LastTick = e.Tick
	}
	c := int(e.Core)
	if c >= len(f.cores) {
		return
	}
	s := &f.cores[c]
	switch e.Kind {
	case KindInvocationStart:
		p.Invocations++
		f.arOf(e.ProgID()).Invocations++
		s.inInv = true
		s.aborted = false
	case KindAttemptStart:
		p.Attempts++
		if s.inAtt {
			// The stream lost this attempt's end: its span stays open and
			// takes no later lock event.
			p.Spans = append(p.Spans, s.span)
			for line, w := range s.waits {
				w.edge = -1
				s.waits[line] = w
			}
		}
		s.inAtt = true
		s.span = Span{
			Core:      c,
			ProgID:    e.ProgID(),
			Attempt:   e.Attempt(),
			Start:     e.Tick,
			StartMode: e.Mode(),
			EndMode:   e.Mode(),
			Outcome:   OutcomeOpen,
			Retries:   e.Retries(),
			Footprint: e.FootprintLen(),
		}
		s.confValid = false
		s.nackValid = false
		f.arOf(s.span.ProgID).Attempts++
	case KindAttemptEnd:
		p.Aborts++
		reason := e.Reason()
		p.AbortsByReason[reason]++
		var dur sim.Tick
		if s.inAtt {
			dur = e.Tick - s.span.Start
		}
		p.AbortedTicks += dur
		p.TicksLostByReason[reason] += dur
		ar := f.arOf(e.ProgID())
		ar.Aborts++
		ar.AbortedTicks += dur

		aborter, via := f.attributeAbort(s, reason, c)
		if aborter >= 0 {
			p.Attributed++
		} else {
			p.Unattributed++
		}
		k := edgeKey{aborter: aborter, victim: c, reason: reason, mode: e.Mode(), via: via}
		ed, ok := f.edges[k]
		if !ok {
			ed = &AbortEdge{Aborter: aborter, Victim: c, Reason: reason, Mode: e.Mode(), Via: via}
			f.edges[k] = ed
		}
		ed.Count++
		ed.TicksLost += dur

		f.endAttempt(c, e)
		if !s.aborted {
			s.aborted = true
			s.firstAbort = e.Tick
		}
	case KindCommit:
		p.Commits++
		if m, ok := e.Mode().CommitMode(); ok {
			p.CommitsByMode[m]++
		}
		ar := f.arOf(e.ProgID())
		ar.Commits++
		if s.inAtt {
			ar.CommittedTicks += e.Tick - s.span.Start
		}
		f.endAttempt(c, e)
		if s.inInv && s.aborted {
			f.retryLat.Observe(uint64(e.Tick - s.firstAbort))
		}
		s.inInv = false
		s.aborted = false
	case KindConflict:
		f.lineOf(e.Line()).Conflicts++
		if s.inAtt {
			s.confValid = true
			s.confFrom = e.Requester()
		}
	case KindLock:
		line := e.Line()
		lp := f.lineOf(line)
		switch e.LockOutcome() {
		case LockOK:
			lp.Acquires++
			f.acquires++
			f.closeWait(c, line, e.Tick, true)
			f.lockHolder[line] = c
		case LockRetry:
			lp.Retries++
			f.retries++
			// Prefer the event-carried holder (exact, from the directory);
			// fall back to the reconstructed map for older traces.
			holder := e.LockHolder()
			if holder < 0 {
				if h, ok := f.lockHolder[line]; ok {
					holder = h
				}
			}
			w, waiting := s.waits[line]
			if !waiting {
				w = waitInfo{start: e.Tick, holder: holder, edge: -1}
				if f.waiters[line] == nil {
					f.waiters[line] = make(map[int]bool)
				}
				f.waiters[line][c] = true
			} else if holder >= 0 {
				w.holder = holder
			}
			if s.inAtt {
				if w.edge < 0 {
					// The edge keeps the holder seen when it opened.
					w.edge = len(s.span.Waits)
					s.span.Waits = append(s.span.Waits, Wait{Line: line, Holder: holder, Start: e.Tick, End: e.Tick})
				} else {
					// Extend the open edge to the latest retry tick.
					s.span.Waits[w.edge].End = e.Tick
				}
			}
			s.waits[line] = w
		case LockNack:
			lp.Nacks++
			f.nacks++
			if holder := e.LockHolder(); holder >= 0 {
				s.nackValid = true
				s.nackFrom = holder
			}
			f.closeWait(c, line, e.Tick, false)
		}
	case KindUnlock:
		if f.lockHolder[e.Line()] == c {
			delete(f.lockHolder, e.Line())
		}
	}
}

// finish closes whatever the (possibly truncated) stream left open, the
// waits at the last tick and the attempts as open spans, and sorts the
// tables.
func (f *fold) finish() *Profile {
	p := f.p
	for c := range f.cores {
		for line := range f.cores[c].waits {
			f.closeWait(c, line, p.LastTick, false)
		}
		if f.cores[c].inAtt {
			p.Spans = append(p.Spans, f.cores[c].span)
		}
	}
	for l, lp := range f.lines {
		lp.Waiters = len(f.waiters[l])
	}
	p.Edges = sortEdges(f.edges)
	p.Lines = sortLines(f.lines)
	sort.Ints(f.arOrder)
	for _, id := range f.arOrder {
		p.ARs = append(p.ARs, *f.ars[id])
	}
	p.RetryLatency = metrics.Summarize("retry_to_commit_ticks", "", &f.retryLat)
	return p
}

// attributeAbort pins one abort on a remote core where the stream allows:
// a direct conflict event beats wait-chain attribution beats a NACK holder;
// fallback-subscription aborts attribute to the fallback-mode core; the
// rest are self-inflicted or unknown.
func (f *fold) attributeAbort(s *profCore, reason htm.AbortReason, victim int) (int, string) {
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
		if h := f.fallbackCore(victim); h >= 0 {
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
