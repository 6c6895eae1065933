package trace

import (
	"encoding/csv"
	"fmt"
	"io"
)

// WriteSpanCSV renders the attempt spans of p as compact CSV on w: one row
// per span, lock-wait totals folded into wait_ticks/wait_edges.
func WriteSpanCSV(w io.Writer, p *Profile) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"core", "ar", "prog_id", "attempt", "start", "end",
		"start_mode", "end_mode", "outcome", "reason", "next_mode",
		"retries", "footprint", "store_lines", "wait_edges", "wait_ticks",
	}); err != nil {
		return err
	}
	for _, s := range p.Spans {
		reason, next := "", ""
		if s.Outcome == OutcomeAbort {
			reason = s.Reason.String()
			next = s.NextMode.String()
		}
		var waitTicks uint64
		for _, wt := range s.Waits {
			if wt.End > wt.Start {
				waitTicks += uint64(wt.End - wt.Start)
			}
		}
		rec := []string{
			fmt.Sprint(s.Core),
			p.Meta.ARName(s.ProgID),
			fmt.Sprint(s.ProgID),
			fmt.Sprint(s.Attempt),
			fmt.Sprint(uint64(s.Start)),
			fmt.Sprint(uint64(s.End)),
			s.StartMode.String(),
			s.EndMode.String(),
			s.Outcome.String(),
			reason,
			next,
			fmt.Sprint(s.Retries),
			fmt.Sprint(s.Footprint),
			fmt.Sprint(s.StoreLines),
			fmt.Sprint(len(s.Waits)),
			fmt.Sprint(waitTicks),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteEventCSV renders raw events as CSV on w (one row per record).
func WriteEventCSV(w io.Writer, meta Meta, evs []Event) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"tick", "core", "kind", "detail", "addr",
	}); err != nil {
		return err
	}
	for _, e := range evs {
		rec := []string{
			fmt.Sprint(uint64(e.Tick)),
			fmt.Sprint(e.Core),
			e.Kind.String(),
			eventDetail(meta, e),
			fmt.Sprintf("%#x", e.Addr),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// eventDetail renders the kind-specific fields of e as a compact
// key=value string: the detail column of WriteEventCSV.
func eventDetail(meta Meta, e Event) string {
	switch e.Kind {
	case KindInvocationStart:
		return fmt.Sprintf("ar=%s", meta.ARName(e.ProgID()))
	case KindAttemptStart:
		s := fmt.Sprintf("ar=%s attempt=%d mode=%s retries=%d",
			meta.ARName(e.ProgID()), e.Attempt(), e.Mode(), e.Retries())
		if fp := e.FootprintLen(); fp > 0 {
			s += fmt.Sprintf(" footprint=%d", fp)
		}
		return s
	case KindAttemptEnd:
		s := fmt.Sprintf("ar=%s attempt=%d mode=%s reason=%s next=%s pc=%d retries=%d",
			meta.ARName(e.ProgID()), e.Attempt(), e.Mode(), e.Reason(),
			e.NextMode(), e.PC(), e.Retries())
		if ok, a := e.Assessed(); ok {
			s += fmt.Sprintf(" assessed=%s", a)
		}
		if p, ok := e.ProposedMode(); ok && p != e.NextMode() {
			s += fmt.Sprintf(" proposed=%s", p)
		}
		return s
	case KindCommit:
		return fmt.Sprintf("ar=%s attempt=%d mode=%s retries=%d store-lines=%d",
			meta.ARName(e.ProgID()), e.Attempt(), e.Mode(), e.Retries(), e.StoreLines())
	case KindMemAccess:
		op := "load"
		if e.IsWrite() {
			op = "store"
		}
		return fmt.Sprintf("%s mode=%s value=%d", op, e.Mode(), e.Value())
	case KindConflict:
		op := "read"
		if e.IsWrite() {
			op = "write"
		}
		return fmt.Sprintf("%s requester=%d", op, e.Requester())
	case KindLock:
		return fmt.Sprintf("outcome=%s", LockOutcomeString(e.LockOutcome()))
	case KindUnlock, KindEvict:
		return ""
	case KindDirAccess:
		op := "read"
		if e.IsWrite() {
			op = "write"
		}
		return fmt.Sprintf("%s flags=%s", op, dirFlagString(e.DirFlags()))
	case KindFault:
		return fmt.Sprintf("fault=%s ticks=%d", e.FaultKind(), e.FaultTicks())
	}
	return ""
}

// dirFlagString names the flag bits of a KindDirAccess event.
func dirFlagString(f uint8) string {
	if f == 0 {
		return "-"
	}
	s := ""
	add := func(bit uint8, name string) {
		if f&bit != 0 {
			if s != "" {
				s += "+"
			}
			s += name
		}
	}
	add(DirNacked, "nacked")
	add(DirRetry, "retry")
	add(DirLocking, "locking")
	add(DirNonSpec, "nonspec")
	add(DirFailedMode, "failed-mode")
	add(DirPower, "power")
	return s
}
