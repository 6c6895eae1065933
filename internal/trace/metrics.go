package trace

import (
	"encoding/csv"
	"fmt"
	"io"

	"repro/internal/sim"
)

// IntervalSample aggregates the activity of one tick interval
// [Start, Start+Width).
type IntervalSample struct {
	Start sim.Tick
	Width sim.Tick
	// Commits and Aborts count attempt ends inside the interval.
	Commits int
	Aborts  int
	// LockAcquires / LockRetries / LockNacks count cacheline-lock events.
	LockAcquires int
	LockRetries  int
	LockNacks    int
	// LockedLines is the number of cachelines locked at the interval end.
	LockedLines int
	// ActiveCores is the number of cores inside an attempt at the interval
	// end (occupancy).
	ActiveCores int
}

// maxSamples caps the interval samples SampleIntervals produces: 2²⁰
// samples cover 10¹⁰ ticks at the default 10,000-tick width, far beyond
// any sweep's tick budget.
const maxSamples = 1 << 20

// SampleIntervals folds a stream of events into per-interval activity
// samples of the given width (ticks). Width must be > 0. The sample count
// follows from the last tick, not the event count, so a stream whose ticks
// would need more than maxSamples samples is an error, reported before
// anything is allocated.
func SampleIntervals(meta Meta, evs []Event, width sim.Tick) ([]IntervalSample, error) {
	if width == 0 || len(evs) == 0 {
		return nil, nil
	}
	var last sim.Tick
	for _, e := range evs {
		last = max(last, e.Tick)
	}
	if last/width >= maxSamples {
		return nil, fmt.Errorf("trace: tick %d at interval width %d needs more than %d samples", last, width, maxSamples)
	}
	var out []IntervalSample
	locked := make(map[uint64]bool)
	active := make([]bool, meta.Cores)
	cur := IntervalSample{Start: 0, Width: width}

	countActive := func() int {
		n := 0
		for _, a := range active {
			if a {
				n++
			}
		}
		return n
	}
	flushTo := func(tick sim.Tick) {
		for tick >= cur.Start && tick-cur.Start >= width {
			cur.LockedLines = len(locked)
			cur.ActiveCores = countActive()
			out = append(out, cur)
			cur = IntervalSample{Start: cur.Start + width, Width: width}
		}
	}

	for _, e := range evs {
		flushTo(e.Tick)
		switch e.Kind {
		case KindAttemptStart:
			if int(e.Core) < len(active) {
				active[e.Core] = true
			}
		case KindAttemptEnd:
			cur.Aborts++
			if int(e.Core) < len(active) {
				active[e.Core] = false
			}
		case KindCommit:
			cur.Commits++
			if int(e.Core) < len(active) {
				active[e.Core] = false
			}
		case KindLock:
			switch e.LockOutcome() {
			case LockOK:
				cur.LockAcquires++
				locked[e.Addr] = true
			case LockRetry:
				cur.LockRetries++
			case LockNack:
				cur.LockNacks++
			}
		case KindUnlock:
			delete(locked, e.Addr)
		}
	}
	cur.LockedLines = len(locked)
	cur.ActiveCores = countActive()
	out = append(out, cur)
	return out, nil
}

// WriteIntervalCSV renders samples as CSV on w.
func WriteIntervalCSV(w io.Writer, samples []IntervalSample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"start", "width", "commits", "aborts",
		"lock_acquires", "lock_retries", "lock_nacks",
		"locked_lines", "active_cores",
	}); err != nil {
		return err
	}
	for _, s := range samples {
		rec := []string{
			fmt.Sprint(uint64(s.Start)), fmt.Sprint(uint64(s.Width)),
			fmt.Sprint(s.Commits), fmt.Sprint(s.Aborts),
			fmt.Sprint(s.LockAcquires), fmt.Sprint(s.LockRetries), fmt.Sprint(s.LockNacks),
			fmt.Sprint(s.LockedLines), fmt.Sprint(s.ActiveCores),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
