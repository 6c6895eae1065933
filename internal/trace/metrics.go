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

// SampleIntervals runs the BuildProfile fold over a stream of events and
// samples it every width ticks (width must be > 0): each interval counts
// the commits, aborts and lock outcomes folded inside it, and reads the
// locked lines and open attempts at its end. The sample count follows
// from the last tick, not the event count, so a stream whose ticks would
// need more than maxSamples samples is an error, reported before the fold
// runs.
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
	f := newFold(meta)
	var out []IntervalSample
	// cut records the fold's state at an interval's end; its running totals
	// become per-interval counts once the fold is done.
	cut := func(start sim.Tick) {
		s := IntervalSample{
			Start: start, Width: width,
			Commits: f.p.Commits, Aborts: f.p.Aborts,
			LockAcquires: f.acquires, LockRetries: f.retries, LockNacks: f.nacks,
			LockedLines: len(f.lockHolder),
		}
		for i := range f.cores {
			if f.cores[i].inAtt {
				s.ActiveCores++
			}
		}
		out = append(out, s)
	}
	var start sim.Tick
	for _, e := range evs {
		for e.Tick >= start && e.Tick-start >= width {
			cut(start)
			start += width
		}
		f.add(e)
	}
	cut(start)
	for i := len(out) - 1; i > 0; i-- {
		out[i].Commits -= out[i-1].Commits
		out[i].Aborts -= out[i-1].Aborts
		out[i].LockAcquires -= out[i-1].LockAcquires
		out[i].LockRetries -= out[i-1].LockRetries
		out[i].LockNacks -= out[i-1].LockNacks
	}
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
