package harness

import (
	"fmt"
	"io"
)

// RetrySweep is the paper's design-space exploration made visible: for each
// benchmark and configuration it reports mean cycles at every retry limit,
// instead of silently folding the best one into the matrix.
type RetrySweep struct {
	Opts MatrixOptions
	// Cycles[bench][config][retryLimit] = trimmed-mean cycles.
	Cycles map[string]map[ConfigID]map[int]float64
}

// RunRetrySweep executes the sweep serially per cell (the cells themselves
// run in the caller's goroutine; use RunMatrix for the parallel best-of
// version).
func RunRetrySweep(opts MatrixOptions) (*RetrySweep, error) {
	s := &RetrySweep{
		Opts:   opts,
		Cycles: make(map[string]map[ConfigID]map[int]float64),
	}
	for _, bench := range opts.Benchmarks {
		s.Cycles[bench] = make(map[ConfigID]map[int]float64)
		for _, cfg := range opts.Configs {
			s.Cycles[bench][cfg] = make(map[int]float64)
			for _, retry := range opts.RetryLimits {
				agg, fails, _, _ := runCell(opts, cellKey{bench, cfg, retry})
				if agg == nil {
					reason := "no surviving seeds"
					if len(fails) > 0 {
						reason = fails[0].Reason
					}
					return nil, fmt.Errorf("harness: cell %s/%s retry=%d: %s", bench, cfg, retry, reason)
				}
				s.Cycles[bench][cfg][retry] = agg.Cycles
			}
		}
	}
	return s, nil
}

// Best returns the retry limit minimising cycles for (bench, config).
func (s *RetrySweep) Best(bench string, cfg ConfigID) (retry int, cycles float64) {
	cycles = -1
	for _, r := range s.Opts.RetryLimits {
		c := s.Cycles[bench][cfg][r]
		if cycles < 0 || c < cycles {
			retry, cycles = r, c
		}
	}
	return retry, cycles
}

// Print renders the sweep as one row per (benchmark, config) with a column
// per retry limit; the best cell is starred.
func (s *RetrySweep) Print(w io.Writer) {
	fmt.Fprintln(w, "Retry-limit design-space exploration (mean cycles; * = selected)")
	tw := newTab(w)
	fmt.Fprint(tw, "Benchmark\tcfg")
	for _, r := range s.Opts.RetryLimits {
		fmt.Fprintf(tw, "\tretry %d", r)
	}
	fmt.Fprintln(tw)
	for _, bench := range s.Opts.Benchmarks {
		for _, cfg := range s.Opts.Configs {
			best, _ := s.Best(bench, cfg)
			fmt.Fprintf(tw, "%s\t%s", bench, cfg)
			for _, r := range s.Opts.RetryLimits {
				star := ""
				if r == best {
					star = "*"
				}
				fmt.Fprintf(tw, "\t%.0f%s", s.Cycles[bench][cfg][r], star)
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
}
