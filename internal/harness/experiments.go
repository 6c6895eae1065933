package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/htm"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/workload"
)

// PaperAverages carries the headline numbers of the paper's evaluation, so
// every figure printer can show paper-vs-measured side by side (the
// EXPERIMENTS.md protocol).
var PaperAverages = struct {
	Fig1Ratio       float64
	Fig8NormTime    map[ConfigID]float64
	Fig9AbortsPerTx map[ConfigID]float64
	Fig10NormEnergy map[ConfigID]float64
	Fig13FirstRetry map[ConfigID]float64
	Fig13Fallback   map[ConfigID]float64
}{
	Fig1Ratio:       0.602,
	Fig8NormTime:    map[ConfigID]float64{ConfigB: 1.0, ConfigP: 0.873, ConfigC: 0.726, ConfigW: 0.650},
	Fig9AbortsPerTx: map[ConfigID]float64{ConfigB: 7.9, ConfigP: 6.6, ConfigC: 1.6, ConfigW: 2.3},
	Fig10NormEnergy: map[ConfigID]float64{ConfigB: 1.0, ConfigC: 0.736, ConfigW: 0.694},
	Fig13FirstRetry: map[ConfigID]float64{ConfigB: 0.354, ConfigP: 0.464, ConfigC: 0.642, ConfigW: 0.644},
	Fig13Fallback:   map[ConfigID]float64{ConfigB: 0.372, ConfigP: 0.274, ConfigC: 0.155, ConfigW: 0.154},
}

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// PrintTable1 reproduces Table 1: the static characterization of every
// benchmark's atomic regions by the isa analyzer.
func PrintTable1(w io.Writer) error {
	fmt.Fprintln(w, "Table 1: Characterization of ARs (static analysis)")
	tw := newTab(w)
	fmt.Fprintln(tw, "Benchmark\t#ARs\tImmutable\tLikely immutable\tMutable")
	for _, name := range workload.Names() {
		imm, likely, mut, err := Table1Counts(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\n", name, imm+likely+mut, imm, likely, mut)
	}
	return tw.Flush()
}

// Table1Counts returns the (immutable, likely, mutable) classification for
// one benchmark: PrintTable1's rows, which tests compare against the
// paper's Table 1.
func Table1Counts(name string) (imm, likely, mut int, err error) {
	bench, err := workload.New(name)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, p := range bench.ARs() {
		switch isa.Analyze(p).Mutability {
		case isa.Immutable:
			imm++
		case isa.LikelyImmutable:
			likely++
		default:
			mut++
		}
	}
	return imm, likely, mut, nil
}

// PrintTable2 prints the simulated system configuration (Table 2).
func PrintTable2(w io.Writer, cores int) {
	fmt.Fprintln(w, "Table 2: Baseline system configuration")
	tw := newTab(w)
	fmt.Fprintf(tw, "Cores\t%d in-order-issue interpreters (1 IPC + memory latency)\n", cores)
	fmt.Fprintln(tw, "L1 data\t48KiB, 12-way, 1-cycle; read/write sets tracked at line granularity")
	fmt.Fprintln(tw, "L2\t10-cycle (folded into directory path)")
	fmt.Fprintln(tw, "L3/directory\t45-cycle shared directory, 4096 sets (lexicographic lock order)")
	fmt.Fprintln(tw, "Memory\t80-cycle")
	fmt.Fprintln(tw, "Store queue\t72 entries")
	fmt.Fprintln(tw, "HTM\trequester-wins / PowerTM; fallback lock subscribed at XBegin")
	fmt.Fprintln(tw, "CLEAR\tERT 16 entries, ALT 32 entries, CRT 64 entries 8-way; <1KiB/core")
	fmt.Fprintln(tw, "Retries\tbest of swept limits per application")
	tw.Flush()
}

// PrintFigure1 reports, per benchmark, the fraction of first-retry pairs
// with a small unchanged footprint, measured on the baseline configuration.
func (m *Matrix) PrintFigure1(w io.Writer) {
	fmt.Fprintln(w, "Figure 1: ARs that do not change their accessed cachelines on the first retry")
	tw := newTab(w)
	fmt.Fprintln(tw, "Benchmark\tratio")
	var vals []float64
	for _, b := range m.Opts.Benchmarks {
		cell := m.Cell(b, ConfigB)
		if cell == nil {
			continue
		}
		fmt.Fprintf(tw, "%s\t%.2f\n", b, cell.Fig1Ratio)
		vals = append(vals, cell.Fig1Ratio)
	}
	fmt.Fprintf(tw, "average\t%.3f\t(paper: %.3f)\n", mean(vals), PaperAverages.Fig1Ratio)
	tw.Flush()
}

// PrintFigure8 reports execution time normalized to requester-wins, plus the
// discovery-overhead share, per benchmark and as the geometric mean.
func (m *Matrix) PrintFigure8(w io.Writer) {
	fmt.Fprintln(w, "Figure 8: Normalized execution time (B=requester-wins, P=PowerTM, C=CLEAR/B, W=CLEAR/P)")
	tw := newTab(w)
	fmt.Fprintln(tw, "Benchmark\tB\tP\tC\tW\tdiscovery C\tdiscovery W")
	norm := make(map[ConfigID][]float64)
	for _, b := range m.Opts.Benchmarks {
		if m.Cell(b, ConfigB) == nil {
			continue
		}
		row := make(map[ConfigID]float64)
		for _, c := range m.Opts.Configs {
			row[c] = m.Normalized(b, c, func(a *Aggregate) float64 { return a.Cycles })
			norm[c] = append(norm[c], row[c])
		}
		dC, dW := 0.0, 0.0
		if cell := m.Cell(b, ConfigC); cell != nil {
			dC = cell.DiscoveryOverhead
		}
		if cell := m.Cell(b, ConfigW); cell != nil {
			dW = cell.DiscoveryOverhead
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.2f%%\t%.2f%%\n",
			b, row[ConfigB], row[ConfigP], row[ConfigC], row[ConfigW], 100*dC, 100*dW)
	}
	fmt.Fprintf(tw, "geomean\t%.3f\t%.3f\t%.3f\t%.3f\t\t\n",
		geomean(norm[ConfigB]), geomean(norm[ConfigP]), geomean(norm[ConfigC]), geomean(norm[ConfigW]))
	fmt.Fprintf(tw, "paper\t%.3f\t%.3f\t%.3f\t%.3f\t\t\n",
		PaperAverages.Fig8NormTime[ConfigB], PaperAverages.Fig8NormTime[ConfigP],
		PaperAverages.Fig8NormTime[ConfigC], PaperAverages.Fig8NormTime[ConfigW])
	tw.Flush()
}

// PrintFigure9 reports aborts per committed transaction.
func (m *Matrix) PrintFigure9(w io.Writer) {
	fmt.Fprintln(w, "Figure 9: Aborts per committed transaction")
	tw := newTab(w)
	fmt.Fprintln(tw, "Benchmark\tB\tP\tC\tW")
	acc := make(map[ConfigID][]float64)
	for _, b := range m.Opts.Benchmarks {
		if m.Cell(b, ConfigB) == nil {
			continue
		}
		fmt.Fprintf(tw, "%s", b)
		for _, c := range m.Opts.Configs {
			v := 0.0
			if cell := m.Cell(b, c); cell != nil {
				v = cell.AbortsPerCommit
			}
			acc[c] = append(acc[c], v)
			fmt.Fprintf(tw, "\t%.2f", v)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintf(tw, "average\t%.2f\t%.2f\t%.2f\t%.2f\n",
		mean(acc[ConfigB]), mean(acc[ConfigP]), mean(acc[ConfigC]), mean(acc[ConfigW]))
	fmt.Fprintf(tw, "paper\t%.1f\t%.1f\t%.1f\t%.1f\n",
		PaperAverages.Fig9AbortsPerTx[ConfigB], PaperAverages.Fig9AbortsPerTx[ConfigP],
		PaperAverages.Fig9AbortsPerTx[ConfigC], PaperAverages.Fig9AbortsPerTx[ConfigW])
	tw.Flush()
}

// PrintFigure10 reports energy normalized to requester-wins.
func (m *Matrix) PrintFigure10(w io.Writer) {
	fmt.Fprintln(w, "Figure 10: Normalized energy consumption")
	tw := newTab(w)
	fmt.Fprintln(tw, "Benchmark\tB\tP\tC\tW")
	norm := make(map[ConfigID][]float64)
	for _, b := range m.Opts.Benchmarks {
		if m.Cell(b, ConfigB) == nil {
			continue
		}
		fmt.Fprintf(tw, "%s", b)
		for _, c := range m.Opts.Configs {
			v := m.Normalized(b, c, func(a *Aggregate) float64 { return a.Energy })
			norm[c] = append(norm[c], v)
			fmt.Fprintf(tw, "\t%.3f", v)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintf(tw, "geomean\t%.3f\t%.3f\t%.3f\t%.3f\n",
		geomean(norm[ConfigB]), geomean(norm[ConfigP]), geomean(norm[ConfigC]), geomean(norm[ConfigW]))
	fmt.Fprintf(tw, "paper\t%.3f\t—\t%.3f\t%.3f\n",
		PaperAverages.Fig10NormEnergy[ConfigB],
		PaperAverages.Fig10NormEnergy[ConfigC], PaperAverages.Fig10NormEnergy[ConfigW])
	tw.Flush()
}

// PrintFigure11 reports the abort breakdown by type for each configuration.
func (m *Matrix) PrintFigure11(w io.Writer) {
	fmt.Fprintln(w, "Figure 11: Abort breakdown per type (share of each configuration's aborts)")
	tw := newTab(w)
	fmt.Fprintln(tw, "Benchmark\tcfg\tmem-conflict\texplicit-fb\tother-fb\tothers")
	for _, b := range m.Opts.Benchmarks {
		for _, c := range m.Opts.Configs {
			cell := m.Cell(b, c)
			if cell == nil {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s", b, c)
			for bk := htm.Bucket(0); bk < htm.NumBuckets; bk++ {
				fmt.Fprintf(tw, "\t%.1f%%", 100*cell.AbortShares[bk])
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
}

// PrintFigure12 reports the commit breakdown per execution mode.
func (m *Matrix) PrintFigure12(w io.Writer) {
	fmt.Fprintln(w, "Figure 12: Commit breakdown per mode")
	tw := newTab(w)
	fmt.Fprintln(tw, "Benchmark\tcfg\tspeculative\tS-CL\tNS-CL\tfallback")
	avg := make(map[ConfigID][]float64) // fallback share accumulator
	for _, b := range m.Opts.Benchmarks {
		for _, c := range m.Opts.Configs {
			cell := m.Cell(b, c)
			if cell == nil {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s", b, c)
			for mo := stats.CommitMode(0); mo < stats.NumCommitModes; mo++ {
				fmt.Fprintf(tw, "\t%.1f%%", 100*cell.ModeShares[mo])
			}
			fmt.Fprintln(tw)
			avg[c] = append(avg[c], cell.ModeShares[stats.CommitFallback])
		}
	}
	fmt.Fprintf(tw, "avg fallback share\t\tB %.1f%%\tP %.1f%%\tC %.1f%%\tW %.1f%%\n",
		100*mean(avg[ConfigB]), 100*mean(avg[ConfigP]), 100*mean(avg[ConfigC]), 100*mean(avg[ConfigW]))
	tw.Flush()
}

// PrintFigure13 reports the commit breakdown by retry count (excluding
// 0-retry commits): the share committed on the first retry and the share
// that ended in the fallback path.
func (m *Matrix) PrintFigure13(w io.Writer) {
	fmt.Fprintln(w, "Figure 13: Commit breakdown per number of retries (excluding 0-retry commits)")
	tw := newTab(w)
	fmt.Fprintln(tw, "Benchmark\tcfg\t1-retry share\tfallback share")
	fr := make(map[ConfigID][]float64)
	fb := make(map[ConfigID][]float64)
	for _, b := range m.Opts.Benchmarks {
		for _, c := range m.Opts.Configs {
			cell := m.Cell(b, c)
			if cell == nil {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%.1f%%\t%.1f%%\n", b, c,
				100*cell.FirstRetryShare, 100*cell.FallbackShare)
			fr[c] = append(fr[c], cell.FirstRetryShare)
			fb[c] = append(fb[c], cell.FallbackShare)
		}
	}
	for _, c := range m.Opts.Configs {
		fmt.Fprintf(tw, "average\t%s\t%.1f%%\t%.1f%%\t(paper: %.1f%% / %.1f%%)\n", c,
			100*mean(fr[c]), 100*mean(fb[c]),
			100*PaperAverages.Fig13FirstRetry[c], 100*PaperAverages.Fig13Fallback[c])
	}
	tw.Flush()
}

// PrintRetrySweep renders the retry-limit design-space exploration the
// matrix ran to pick each cell's limit: one row per (benchmark, config), the
// mean cycles of every retry limit, and a star on the limit Cells kept
// (betterAggregate breaks ties towards the lowest). A limit whose every seed
// failed shows "-"; a row with no surviving limit is left out.
func (m *Matrix) PrintRetrySweep(w io.Writer) {
	fmt.Fprintln(w, "Retry-limit design-space exploration (mean cycles; * = selected)")
	tw := newTab(w)
	fmt.Fprint(tw, "Benchmark\tcfg")
	for _, r := range m.Opts.RetryLimits {
		fmt.Fprintf(tw, "\tretry %d", r)
	}
	fmt.Fprintln(tw)
	for _, b := range m.Opts.Benchmarks {
		for _, c := range m.Opts.Configs {
			best := m.Cell(b, c)
			if best == nil {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s", b, c)
			for _, r := range m.Opts.RetryLimits {
				cell := m.ran[cellKey{b, c, r}]
				switch {
				case cell == nil:
					fmt.Fprint(tw, "\t-")
				case r == best.BestRetryLimit:
					fmt.Fprintf(tw, "\t%.0f*", cell.Cycles)
				default:
					fmt.Fprintf(tw, "\t%.0f", cell.Cycles)
				}
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
}
