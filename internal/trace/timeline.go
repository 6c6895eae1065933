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
