package trace

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/cpu"
)

// WriteText renders evs in the line-per-event text format (cleartrace
// dump):
//
//	[    tick] core  N mode       message
//
// The per-line mode column is reconstructed from the event stream (attempt
// starts/ends and per-event mode fields), so the output matches what the
// removed fmt-based in-simulator tracer printed, but is now derived from
// the structured binary stream.
func WriteText(w io.Writer, meta Meta, evs []Event) error {
	bw := bufio.NewWriter(w)
	mode := make([]cpu.Mode, meta.Cores)
	modeOf := func(e Event) cpu.Mode {
		switch e.Kind {
		case KindAttemptStart, KindAttemptEnd, KindCommit, KindMemAccess:
			return e.Mode()
		}
		if int(e.Core) < len(mode) {
			return mode[e.Core]
		}
		return cpu.ModeIdle
	}
	for _, e := range evs {
		m := modeOf(e)
		msg := textMessage(meta, e)
		if msg == "" {
			continue
		}
		fmt.Fprintf(bw, "[%8d] core %2d %-10s %s\n", uint64(e.Tick), e.Core, m, msg)
		if int(e.Core) < len(mode) {
			switch e.Kind {
			case KindAttemptStart:
				mode[e.Core] = e.Mode()
			case KindAttemptEnd, KindCommit:
				mode[e.Core] = cpu.ModeIdle
			}
		}
	}
	return bw.Flush()
}

// textMessage renders the message column of one event in the old tracef
// vocabulary (begin/load/store/hook/lock/commit/abort lines).
func textMessage(meta Meta, e Event) string {
	switch e.Kind {
	case KindInvocationStart:
		return fmt.Sprintf("invoke prog=%s", meta.ARName(e.ProgID()))
	case KindAttemptStart:
		return fmt.Sprintf("begin %s attempt=%d retries=%d prog=%s",
			attemptNoun(e.Mode()), e.Attempt(), e.Retries(), meta.ARName(e.ProgID()))
	case KindAttemptEnd:
		s := fmt.Sprintf("abort reason=%s pc=%d next=%s", e.Reason(), e.PC(), e.NextMode())
		if p, ok := e.ProposedMode(); ok && p != e.NextMode() {
			s += fmt.Sprintf(" (policy override, proposed %s)", p)
		}
		return s
	case KindCommit:
		return fmt.Sprintf("commit %s retries=%d store-lines=%d",
			attemptNoun(e.Mode()), e.Retries(), e.StoreLines())
	case KindMemAccess:
		if e.IsWrite() {
			return fmt.Sprintf("store %s = %d", e.MemAddr(), e.Value())
		}
		return fmt.Sprintf("load %s -> %d", e.MemAddr(), e.Value())
	case KindConflict:
		return fmt.Sprintf("hook line=%s isWrite=%v req=%d conflict=true",
			e.Line(), e.IsWrite(), e.Requester())
	case KindLock:
		return fmt.Sprintf("lock %s %s", e.Line(), LockOutcomeString(e.LockOutcome()))
	case KindUnlock:
		return fmt.Sprintf("unlock %s", e.Line())
	case KindDirAccess:
		op := "read"
		if e.IsWrite() {
			op = "write"
		}
		return fmt.Sprintf("dir %s %s flags=%s", op, e.Line(), dirFlagString(e.DirFlags()))
	case KindEvict:
		return fmt.Sprintf("evict %s", e.Line())
	case KindFault:
		return fmt.Sprintf("fault %s line=%s ticks=%d", e.FaultKind(), e.Line(), e.FaultTicks())
	}
	return ""
}

// attemptNoun names an execution mode in the old tracer's vocabulary.
func attemptNoun(m cpu.Mode) string {
	switch m {
	case cpu.ModeSpeculative, cpu.ModeFailedDiscovery:
		return "spec"
	case cpu.ModeSCL:
		return "s-cl"
	case cpu.ModeNSCL:
		return "ns-cl"
	case cpu.ModeFallback:
		return "fallback"
	}
	return m.String()
}
