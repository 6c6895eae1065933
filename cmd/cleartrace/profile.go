package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/htm"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
)

// jsonProfile is the machine-readable rendering of a profile.
type jsonProfile struct {
	Benchmark    string              `json:"benchmark"`
	Config       string              `json:"config"`
	Cores        int                 `json:"cores"`
	Seed         uint64              `json:"seed"`
	LastTick     uint64              `json:"last_tick"`
	Invocations  int                 `json:"invocations"`
	Attempts     int                 `json:"attempts"`
	Commits      int                 `json:"commits"`
	Aborts       int                 `json:"aborts"`
	CommitsBy    map[string]int      `json:"commits_by_mode"`
	AbortsBy     map[string]int      `json:"aborts_by_reason"`
	TicksLostBy  map[string]uint64   `json:"ticks_lost_by_reason"`
	AbortedTicks uint64              `json:"aborted_ticks"`
	LockWait     uint64              `json:"lock_wait_ticks"`
	Attributed   int                 `json:"attributed"`
	Unattributed int                 `json:"unattributed"`
	Edges        []jsonEdge          `json:"edges"`
	Lines        []jsonLine          `json:"lines"`
	ARs          []trace.ARProfile   `json:"ars"`
	RetryLatency metrics.HistSummary `json:"retry_latency"`
}

type jsonEdge struct {
	Aborter   int    `json:"aborter"`
	Victim    int    `json:"victim"`
	Reason    string `json:"reason"`
	Mode      string `json:"mode"`
	Via       string `json:"via"`
	Count     int    `json:"count"`
	TicksLost uint64 `json:"ticks_lost"`
}

type jsonLine struct {
	Line      string `json:"line"`
	Acquires  int    `json:"acquires"`
	Retries   int    `json:"retries"`
	Nacks     int    `json:"nacks"`
	Conflicts int    `json:"conflicts"`
	WaitTicks uint64 `json:"wait_ticks"`
	MaxWait   uint64 `json:"max_wait"`
	Waiters   int    `json:"waiters"`
}

func toJSONProfile(p *trace.Profile) jsonProfile {
	jp := jsonProfile{
		Benchmark:    p.Meta.Benchmark,
		Config:       p.Meta.Config,
		Cores:        p.Meta.Cores,
		Seed:         p.Meta.Seed,
		LastTick:     uint64(p.LastTick),
		Invocations:  p.Invocations,
		Attempts:     p.Attempts,
		Commits:      p.Commits,
		Aborts:       p.Aborts,
		CommitsBy:    map[string]int{},
		AbortsBy:     map[string]int{},
		TicksLostBy:  map[string]uint64{},
		AbortedTicks: uint64(p.AbortedTicks),
		LockWait:     uint64(p.LockWaitTicks),
		Attributed:   p.Attributed,
		Unattributed: p.Unattributed,
		ARs:          p.ARs,
		RetryLatency: p.RetryLatency,
	}
	for m, n := range p.CommitsByMode {
		jp.CommitsBy[m.String()] = n
	}
	for r, n := range p.AbortsByReason {
		jp.AbortsBy[r.String()] = n
	}
	for r, t := range p.TicksLostByReason {
		jp.TicksLostBy[r.String()] = uint64(t)
	}
	for _, e := range p.Edges {
		jp.Edges = append(jp.Edges, jsonEdge{
			Aborter: e.Aborter, Victim: e.Victim,
			Reason: e.Reason.String(), Mode: e.Mode.String(), Via: e.Via,
			Count: e.Count, TicksLost: uint64(e.TicksLost),
		})
	}
	for _, l := range p.Lines {
		jp.Lines = append(jp.Lines, jsonLine{
			Line: l.Line.String(), Acquires: l.Acquires, Retries: l.Retries,
			Nacks: l.Nacks, Conflicts: l.Conflicts,
			WaitTicks: uint64(l.WaitTicks), MaxWait: uint64(l.MaxWait), Waiters: l.Waiters,
		})
	}
	return jp
}

// cmdProfile prints the full contention report of a trace.
func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("cleartrace profile", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the machine-readable report")
	topN := fs.Int("n", 20, "rows per ranked table (text output)")
	fs.Parse(args)
	meta, evs, err := loadTrace(traceArg(fs))
	if err != nil {
		return err
	}
	p := trace.BuildProfile(meta, evs)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(toJSONProfile(p))
	}
	printHeadline(p)
	printEdges(p, *topN)
	printLines(p, *topN)
	printARs(p, *topN)
	return nil
}

// cmdTop prints only the ranked tables of the report.
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("cleartrace top", flag.ExitOnError)
	topN := fs.Int("n", 10, "rows per ranked table")
	fs.Parse(args)
	meta, evs, err := loadTrace(traceArg(fs))
	if err != nil {
		return err
	}
	p := trace.BuildProfile(meta, evs)
	printEdges(p, *topN)
	printLines(p, *topN)
	printARs(p, *topN)
	return nil
}

func printHeadline(p *trace.Profile) {
	fmt.Printf("trace: %s/%s cores=%d seed=%d, %d ticks\n",
		p.Meta.Benchmark, p.Meta.Config, p.Meta.Cores, p.Meta.Seed, uint64(p.LastTick))
	fmt.Printf("invocations %d, attempts %d, commits %d, aborts %d (%d attributed, %d unattributed)\n",
		p.Invocations, p.Attempts, p.Commits, p.Aborts, p.Attributed, p.Unattributed)
	if len(p.CommitsByMode) > 0 {
		fmt.Printf("commits by mode:")
		for m := stats.CommitMode(0); m < stats.NumCommitModes; m++ {
			if n := p.CommitsByMode[m]; n > 0 {
				fmt.Printf(" %s=%d", m, n)
			}
		}
		fmt.Println()
	}
	if len(p.AbortsByReason) > 0 {
		fmt.Printf("aborts by reason:")
		for _, r := range sortedReasons(p.AbortsByReason) {
			fmt.Printf(" %s=%d(%d ticks)", r, p.AbortsByReason[r], uint64(p.TicksLostByReason[r]))
		}
		fmt.Println()
	}
	coreTicks := uint64(p.LastTick) * uint64(p.Meta.Cores)
	pct := 0.0
	if coreTicks > 0 {
		pct = 100 * float64(p.AbortedTicks) / float64(coreTicks)
	}
	fmt.Printf("ticks lost to aborted attempts: %d (%.2f%% of core-ticks), lock-wait ticks: %d\n",
		uint64(p.AbortedTicks), pct, uint64(p.LockWaitTicks))
	rl := p.RetryLatency
	if rl.Count > 0 {
		fmt.Printf("retry-to-commit latency (ticks): count=%d p50<=%d p90<=%d p99<=%d max=%d\n",
			rl.Count, rl.P50, rl.P90, rl.P99, rl.Max)
	}
}

// sortedReasons lists the abort reasons present in m in enum order.
func sortedReasons(m map[htm.AbortReason]int) []htm.AbortReason {
	out := make([]htm.AbortReason, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func printEdges(p *trace.Profile, n int) {
	if len(p.Edges) == 0 {
		return
	}
	fmt.Printf("\nabort attribution (aborter -> victim, top %d by ticks lost):\n", n)
	fmt.Printf("  %-8s %-7s %-18s %-16s %-11s %8s %12s\n",
		"aborter", "victim", "reason", "mode", "via", "count", "ticks-lost")
	for i, e := range p.Edges {
		if i >= n {
			fmt.Printf("  ... %d more edges\n", len(p.Edges)-n)
			break
		}
		ab := "?"
		if e.Aborter >= 0 {
			ab = fmt.Sprintf("core %d", e.Aborter)
		}
		fmt.Printf("  %-8s core %-2d %-18s %-16s %-11s %8d %12d\n",
			ab, e.Victim, e.Reason, e.Mode, e.Via, e.Count, uint64(e.TicksLost))
	}
}

func printLines(p *trace.Profile, n int) {
	if len(p.Lines) == 0 {
		return
	}
	fmt.Printf("\nhot cachelines (top %d by wait ticks):\n", n)
	fmt.Printf("  %-14s %8s %8s %6s %9s %11s %9s %7s\n",
		"line", "acquires", "retries", "nacks", "conflicts", "wait-ticks", "max-wait", "waiters")
	for i, l := range p.Lines {
		if i >= n {
			fmt.Printf("  ... %d more lines\n", len(p.Lines)-n)
			break
		}
		fmt.Printf("  %-14s %8d %8d %6d %9d %11d %9d %7d\n",
			l.Line, l.Acquires, l.Retries, l.Nacks, l.Conflicts,
			uint64(l.WaitTicks), uint64(l.MaxWait), l.Waiters)
	}
}

func printARs(p *trace.Profile, n int) {
	if len(p.ARs) == 0 {
		return
	}
	ars := append([]trace.ARProfile(nil), p.ARs...)
	sort.Slice(ars, func(i, j int) bool {
		if ars[i].AbortedTicks != ars[j].AbortedTicks {
			return ars[i].AbortedTicks > ars[j].AbortedTicks
		}
		return ars[i].ProgID < ars[j].ProgID
	})
	fmt.Printf("\natomic regions (top %d by aborted ticks):\n", n)
	fmt.Printf("  %-4s %-20s %6s %6s %7s %7s %12s %12s %11s\n",
		"id", "name", "inv", "att", "commit", "abort", "commit-tick", "abort-tick", "wait-tick")
	for i, a := range ars {
		if i >= n {
			fmt.Printf("  ... %d more ARs\n", len(ars)-n)
			break
		}
		fmt.Printf("  %-4d %-20s %6d %6d %7d %7d %12d %12d %11d\n",
			a.ProgID, a.Name, a.Invocations, a.Attempts, a.Commits, a.Aborts,
			uint64(a.CommittedTicks), uint64(a.AbortedTicks), uint64(a.LockWaitTicks))
	}
}
