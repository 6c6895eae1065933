package harness

import (
	"encoding/csv"
	"fmt"
	"io"

	"repro/internal/htm"
	"repro/internal/stats"
)

// WriteCSV emits the full matrix as machine-readable CSV, one row per
// (benchmark, configuration) cell — the raw material for external plotting
// of every figure.
func (m *Matrix) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"benchmark", "config", "best_retry_limit", "seeds",
		"cycles", "norm_time", "energy", "norm_energy", "aborts_per_commit",
		"commits", "aborts",
		"share_speculative", "share_scl", "share_nscl", "share_fallback",
		"abort_mem_conflict", "abort_explicit_fb", "abort_other_fb", "abort_others",
		"first_retry_share", "fallback_share", "discovery_overhead", "fig1_ratio",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return fmt.Sprintf("%.6g", v) }
	for _, bench := range m.Opts.Benchmarks {
		for _, cfg := range m.Opts.Configs {
			cell := m.Cell(bench, cfg)
			if cell == nil {
				continue
			}
			row := []string{
				bench, cfg.String(),
				fmt.Sprintf("%d", cell.BestRetryLimit),
				fmt.Sprintf("%d", cell.Seeds),
				f(cell.Cycles),
				f(m.Normalized(bench, cfg, func(a *Aggregate) float64 { return a.Cycles })),
				f(cell.Energy),
				f(m.Normalized(bench, cfg, func(a *Aggregate) float64 { return a.Energy })),
				f(cell.AbortsPerCommit),
				f(cell.Commits),
				f(cell.Aborts),
				f(cell.ModeShares[stats.CommitSpeculative]),
				f(cell.ModeShares[stats.CommitSCL]),
				f(cell.ModeShares[stats.CommitNSCL]),
				f(cell.ModeShares[stats.CommitFallback]),
				f(cell.AbortShares[htm.BucketMemoryConflict]),
				f(cell.AbortShares[htm.BucketExplicitFallback]),
				f(cell.AbortShares[htm.BucketOtherFallback]),
				f(cell.AbortShares[htm.BucketOthers]),
				f(cell.FirstRetryShare),
				f(cell.FallbackShare),
				f(cell.DiscoveryOverhead),
				f(cell.Fig1Ratio),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFailuresCSV emits the sweep's isolated run failures, one row per
// failed (benchmark, config, retry, seed) run with its canonical policy
// last, so a hardened matrix leaves an auditable record instead of a
// crashed process.
func (m *Matrix) WriteFailuresCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"benchmark", "config", "retry_limit", "seed", "reason", "policy",
	}); err != nil {
		return err
	}
	for _, fl := range m.Failures {
		if err := cw.Write([]string{
			fl.Benchmark,
			fl.Config.String(),
			fmt.Sprintf("%d", fl.RetryLimit),
			fmt.Sprintf("%d", fl.Seed),
			fl.Reason,
			fl.Policy.Canonical(),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
