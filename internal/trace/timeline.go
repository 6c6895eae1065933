package trace

import (
	clear "repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Outcome classifies how an attempt span ended.
type Outcome uint8

const (
	// OutcomeOpen: the trace ended while the attempt was still running.
	OutcomeOpen Outcome = iota
	// OutcomeAbort: the attempt aborted (Span.Reason/NextMode valid).
	OutcomeAbort
	// OutcomeCommit: the attempt committed (Span.EndMode is the commit mode).
	OutcomeCommit
)

func (o Outcome) String() string {
	switch o {
	case OutcomeOpen:
		return "open"
	case OutcomeAbort:
		return "abort"
	case OutcomeCommit:
		return "commit"
	}
	return "?"
}

// Wait is one cacheline-lock wait edge inside a span: the core first failed
// to acquire line at Start (LockRetry) and either acquired it at End
// (Acquired=true) or gave up/aborted (Acquired=false, End = last retry).
// Holder is the core that held the lock at Start (-1 if unknown, e.g. the
// lock was taken before the filtered window).
type Wait struct {
	Line     mem.LineAddr
	Holder   int
	Start    sim.Tick
	End      sim.Tick
	Acquired bool
}

// Span is one reconstructed attempt of one AR invocation on one core.
type Span struct {
	Core    int
	ProgID  int
	Attempt int
	Start   sim.Tick
	End     sim.Tick // == Start for zero-length; valid unless OutcomeOpen
	// StartMode is the mode the attempt began in; EndMode the mode at its
	// end (speculative attempts that took a conflict end in
	// failed-discovery; commit events carry the committing mode).
	StartMode cpu.Mode
	EndMode   cpu.Mode
	Outcome   Outcome
	// Reason and NextMode are valid for OutcomeAbort.
	Reason   htm.AbortReason
	NextMode clear.RetryMode
	// Proposed is the §4.3 mechanism proposal behind NextMode; Overridden
	// marks a policy override (always a serialization to fallback). Both
	// are zero for pre-policy traces, which did not record the proposal.
	Proposed   clear.RetryMode
	Overridden bool
	// Retries is the conflict-counted retry total at the span's end event.
	Retries int
	// Footprint is the CL footprint length announced at attempt start
	// (CL modes only).
	Footprint int
	// StoreLines is the distinct committing store-line count
	// (OutcomeCommit only).
	StoreLines int
	// Waits are the cacheline-lock wait edges observed inside the span.
	Waits []Wait
}

// Duration returns the span length in ticks (0 for open spans).
func (s Span) Duration() sim.Tick {
	if s.Outcome == OutcomeOpen || s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// Timeline is the reconstructed per-core attempt history of a trace.
type Timeline struct {
	Meta  Meta
	Spans []Span // stream order (by span end / trace end)
	// LastTick is the largest tick observed in the stream.
	LastTick sim.Tick
}

// openSpan tracks one in-progress attempt during reconstruction.
type openSpan struct {
	span    Span
	active  bool
	pending map[mem.LineAddr]int // line -> index into span.Waits of open wait
}

// BuildTimeline folds a stream of events (in stream order) into per-core
// attempt spans with lock-wait edges. cores must match the stream's core
// count (use Meta.Cores).
func BuildTimeline(meta Meta, evs []Event) *Timeline {
	cores := meta.Cores
	tl := &Timeline{Meta: meta}
	open := make([]openSpan, cores)
	lockHolder := make(map[mem.LineAddr]int) // line -> core holding the cacheline lock

	closeWaits := func(o *openSpan, tick sim.Tick, line mem.LineAddr, acquired bool) {
		if o.pending == nil {
			return
		}
		if i, ok := o.pending[line]; ok {
			o.span.Waits[i].End = tick
			o.span.Waits[i].Acquired = acquired
			delete(o.pending, line)
		}
	}

	abandonWaits := func(o *openSpan, tick sim.Tick) {
		for line, i := range o.pending {
			o.span.Waits[i].End = tick
			delete(o.pending, line)
		}
	}

	for _, e := range evs {
		if e.Tick > tl.LastTick {
			tl.LastTick = e.Tick
		}
		c := int(e.Core)
		if c >= cores {
			continue
		}
		o := &open[c]
		switch e.Kind {
		case KindAttemptStart:
			if o.active {
				// Stream was filtered past the previous end; close as open.
				tl.Spans = append(tl.Spans, o.span)
			}
			*o = openSpan{
				active: true,
				span: Span{
					Core:      c,
					ProgID:    e.ProgID(),
					Attempt:   e.Attempt(),
					Start:     e.Tick,
					StartMode: e.Mode(),
					EndMode:   e.Mode(),
					Outcome:   OutcomeOpen,
					Retries:   e.Retries(),
					Footprint: e.FootprintLen(),
				},
			}
		case KindAttemptEnd:
			if !o.active {
				continue
			}
			abandonWaits(o, e.Tick)
			o.span.End = e.Tick
			o.span.EndMode = e.Mode()
			o.span.Outcome = OutcomeAbort
			o.span.Reason = e.Reason()
			o.span.NextMode = e.NextMode()
			if p, ok := e.ProposedMode(); ok {
				o.span.Proposed = p
				o.span.Overridden = p != e.NextMode()
			}
			o.span.Retries = e.Retries()
			tl.Spans = append(tl.Spans, o.span)
			o.active = false
		case KindCommit:
			if !o.active {
				continue
			}
			abandonWaits(o, e.Tick)
			o.span.End = e.Tick
			o.span.EndMode = e.Mode()
			o.span.Outcome = OutcomeCommit
			o.span.Retries = e.Retries()
			o.span.StoreLines = e.StoreLines()
			tl.Spans = append(tl.Spans, o.span)
			o.active = false
		case KindLock:
			line := e.Line()
			switch e.LockOutcome() {
			case LockOK:
				if o.active {
					closeWaits(o, e.Tick, line, true)
				}
				lockHolder[line] = c
			case LockRetry:
				if !o.active {
					break
				}
				if o.pending == nil {
					o.pending = make(map[mem.LineAddr]int)
				}
				if _, waiting := o.pending[line]; !waiting {
					// Prefer the event-carried holder (exact, from the
					// directory); fall back to the reconstructed map for
					// older traces.
					holder := e.LockHolder()
					if holder < 0 {
						if h, ok := lockHolder[line]; ok {
							holder = h
						}
					}
					o.pending[line] = len(o.span.Waits)
					o.span.Waits = append(o.span.Waits, Wait{
						Line:   line,
						Holder: holder,
						Start:  e.Tick,
						End:    e.Tick,
					})
				} else {
					// Extend the open wait to the latest retry tick.
					o.span.Waits[o.pending[line]].End = e.Tick
				}
			case LockNack:
				if o.active {
					closeWaits(o, e.Tick, line, false)
				}
			}
		case KindUnlock:
			line := e.Line()
			if lockHolder[line] == c {
				delete(lockHolder, line)
			}
		}
	}
	// Flush still-open spans (truncated trace or filtered window).
	for c := range open {
		if open[c].active {
			abandonWaits(&open[c], tl.LastTick)
			tl.Spans = append(tl.Spans, open[c].span)
		}
	}
	return tl
}
