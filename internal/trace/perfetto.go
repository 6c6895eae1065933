package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome/Perfetto trace-event JSON. The exporter emits the JSON Object
// Format ({"traceEvents": [...]}) with:
//
//   - "M" metadata events naming the process (the run) and one thread per
//     core;
//   - one "X" complete event per closed attempt span (tid = core), with
//     the AR name as event name and mode/outcome details in args;
//   - nested "X" events for lock-wait edges inside a span;
//   - "C" counter events from interval metrics samples (commits, aborts,
//     locked lines) when samples are provided.
//
// Ticks map 1:1 to microseconds (ts/dur fields), so one simulated tick
// renders as 1us in the Perfetto UI.

// perfettoEvent is one trace-event record. Fields follow the Chrome
// trace-event format spec; omitempty keeps metadata records minimal.
type perfettoEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    uint64         `json:"ts"`
	Dur   uint64         `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type perfettoFile struct {
	TraceEvents     []perfettoEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

// WritePerfetto renders the spans of p (plus optional interval samples) as
// Chrome/Perfetto trace-event JSON on w.
func WritePerfetto(w io.Writer, p *Profile, samples []IntervalSample) error {
	f := perfettoFile{DisplayTimeUnit: "ms"}
	procName := fmt.Sprintf("clearsim %s/%s seed=%d", p.Meta.Benchmark, p.Meta.Config, p.Meta.Seed)
	f.TraceEvents = append(f.TraceEvents, perfettoEvent{
		Name: "process_name", Phase: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": procName},
	})
	for c := 0; c < p.Meta.Cores; c++ {
		f.TraceEvents = append(f.TraceEvents, perfettoEvent{
			Name: "thread_name", Phase: "M", Pid: 0, Tid: c,
			Args: map[string]any{"name": fmt.Sprintf("core %d", c)},
		})
	}
	for _, s := range p.Spans {
		end := s.End
		if s.Outcome == OutcomeOpen {
			end = p.LastTick
		}
		dur := uint64(0)
		if end > s.Start {
			dur = uint64(end - s.Start)
		}
		args := map[string]any{
			"ar":      p.Meta.ARName(s.ProgID),
			"attempt": s.Attempt,
			"mode":    s.StartMode.String(),
			"outcome": s.Outcome.String(),
			"retries": s.Retries,
		}
		if s.EndMode != s.StartMode {
			args["end_mode"] = s.EndMode.String()
		}
		if s.Outcome == OutcomeAbort {
			args["reason"] = s.Reason.String()
			args["next_mode"] = s.NextMode.String()
		}
		if s.Outcome == OutcomeCommit && s.StoreLines > 0 {
			args["store_lines"] = s.StoreLines
		}
		if s.Footprint > 0 {
			args["footprint"] = s.Footprint
		}
		f.TraceEvents = append(f.TraceEvents, perfettoEvent{
			Name:  fmt.Sprintf("%s [%s]", p.Meta.ARName(s.ProgID), s.Outcome),
			Phase: "X",
			Ts:    uint64(s.Start),
			Dur:   dur,
			Pid:   0,
			Tid:   s.Core,
			Cat:   s.StartMode.String(),
			Args:  args,
		})
		for _, wt := range s.Waits {
			wdur := uint64(0)
			if wt.End > wt.Start {
				wdur = uint64(wt.End - wt.Start)
			}
			wargs := map[string]any{
				"line":     fmt.Sprintf("%#x", uint64(wt.Line)),
				"acquired": wt.Acquired,
			}
			if wt.Holder >= 0 {
				wargs["holder"] = wt.Holder
			}
			f.TraceEvents = append(f.TraceEvents, perfettoEvent{
				Name:  fmt.Sprintf("lock-wait %#x", uint64(wt.Line)),
				Phase: "X",
				Ts:    uint64(wt.Start),
				Dur:   wdur,
				Pid:   0,
				Tid:   s.Core,
				Cat:   "lock-wait",
				Args:  wargs,
			})
		}
	}
	for _, s := range samples {
		f.TraceEvents = append(f.TraceEvents,
			perfettoEvent{Name: "commits", Phase: "C", Ts: uint64(s.Start), Pid: 0,
				Args: map[string]any{"commits": s.Commits}},
			perfettoEvent{Name: "aborts", Phase: "C", Ts: uint64(s.Start), Pid: 0,
				Args: map[string]any{"aborts": s.Aborts}},
			perfettoEvent{Name: "locked-lines", Phase: "C", Ts: uint64(s.Start), Pid: 0,
				Args: map[string]any{"locked": s.LockedLines}},
			perfettoEvent{Name: "occupancy", Phase: "C", Ts: uint64(s.Start), Pid: 0,
				Args: map[string]any{"active-cores": s.ActiveCores}},
		)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}
