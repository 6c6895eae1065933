// Command clearsim runs one benchmark under one configuration and dumps the
// full metric set: execution time, commit breakdowns by mode and by retry
// count, abort taxonomy, discovery overhead, lock activity, directory
// traffic, and modelled energy.
//
// Usage:
//
//	clearsim -bench hashmap -config W -cores 32 -ops 200 -retries 4 -seed 1
//
// Exit status follows the uniform policy: 1 = the run failed, 2 = usage
// error (unknown benchmark/config, bad flags).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/cliutil"
	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/prof"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	cliutil.SetTool("clearsim")
	run := cliutil.AddRunFlags(flag.CommandLine, cliutil.RunDefaults{
		Bench: "hashmap", Config: "B", Cores: 32, Ops: 120, Retries: 4, Seed: 1,
	})
	tr := cliutil.AddTraceFlags(flag.CommandLine)
	pol := cliutil.AddPolicyFlags(flag.CommandLine)
	var (
		list    = flag.Bool("list", false, "list benchmarks and exit")
		sle     = flag.Bool("sle", false, "in-core speculation (SLE) instead of HTM")
		meshNet = flag.Bool("mesh", false, "2D mesh interconnect instead of the crossbar")
		altSize = flag.Int("alt", 0, "ALT entries (0 = paper's 32)")
		ertSize = flag.Int("ert", 0, "ERT entries (0 = paper's 16)")
		noDisc  = flag.Bool("no-discovery-continuation", false, "ablation: abort at first conflict instead of continuing discovery")
		lockAll = flag.Bool("scl-lock-all", false, "ablation: S-CL locks the whole learned footprint")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProfiles, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		cliutil.Fatal(err)
	}
	cliutil.OnExit(stopProfiles)
	defer stopProfiles()

	if *list {
		for _, n := range workload.Names() {
			fmt.Println(n)
		}
		return
	}

	p, err := run.Params()
	if err != nil {
		cliutil.Usage(err)
	}
	p.Policy, err = pol.Resolve(p.Policy)
	if err != nil {
		cliutil.Usage(err)
	}
	p.SLE = *sle
	p.Mesh = *meshNet
	p.ALTEntries = *altSize
	p.ERTEntries = *ertSize
	p.DisableDiscoveryContinuation = *noDisc
	p.SCLLockAllReads = *lockAll

	closeTrace, err := tr.Apply(&p)
	if err != nil {
		cliutil.Fatal(err)
	}

	res, err := harness.Run(p)
	if err != nil {
		cliutil.Fatal(err)
	}
	if err := closeTrace(); err != nil {
		cliutil.Fatal(err)
	}
	if *tr.Out != "" {
		fmt.Fprintf(os.Stderr, "clearsim: wrote trace %s\n", *tr.Out)
	}
	printResult(res)
}

func printResult(r *harness.RunResult) {
	s := r.Stats
	p := r.Params
	fmt.Printf("benchmark        %s\n", p.Benchmark)
	fmt.Printf("configuration    %s (%s)\n", p.Config, p.Config.Description())
	fmt.Printf("cores            %d   ops/thread %d   retry limit %d   seed %d\n",
		p.Cores, p.OpsPerThread, p.RetryLimit, p.Seed)
	fmt.Printf("policy           %s\n", p.Policy.Canonical())
	fmt.Println()
	fmt.Printf("cycles           %d\n", s.Cycles)
	fmt.Printf("energy (a.u.)    %.0f\n", r.Energy)
	fmt.Printf("commits          %d\n", s.Commits)
	fmt.Printf("aborts           %d   (%.2f per commit)\n", s.Aborts, s.AbortsPerCommit())
	fmt.Println()
	fmt.Println("commit modes:")
	for m := stats.CommitSpeculative; m < stats.NumCommitModes; m++ {
		fmt.Printf("  %-12s %7d  (%5.1f%%)\n", m, s.CommitsByMode[m],
			pct(s.CommitsByMode[m], s.Commits))
	}
	fmt.Println("commits by retry count (non-fallback):")
	for i, n := range s.CommitsByRetries {
		if n == 0 {
			continue
		}
		label := fmt.Sprintf("%d", i)
		if i == stats.MaxRetryTrack {
			label += "+"
		}
		fmt.Printf("  retry %-6s %7d\n", label, n)
	}
	fmt.Printf("  first-retry share %.1f%%   fallback share %.1f%%  (of retrying commits)\n",
		100*s.FirstRetryShare(), 100*s.FallbackShare())
	fmt.Println()
	fmt.Println("per atomic region:")
	ids := make([]int, 0, len(s.PerAR))
	for id := range s.PerAR {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ar := s.PerAR[id]
		fmt.Printf("  %-28s commits %6d (spec %d, S-CL %d, NS-CL %d, fb %d)  aborts %6d\n",
			ar.Name, ar.Commits, ar.CommitsByMode[0], ar.CommitsByMode[1], ar.CommitsByMode[2],
			ar.CommitsByMode[3], ar.Aborts)
	}
	fmt.Println()
	fmt.Println("abort types:")
	for b := htm.Bucket(0); b < htm.NumBuckets; b++ {
		fmt.Printf("  %-18s %7d\n", b, s.AbortsByBucket[b])
	}
	fmt.Println()
	fmt.Printf("discovery runs   %d   overhead %.2f%% of core-cycles\n",
		s.DiscoveryRuns, 100*s.DiscoveryOverhead(p.Cores))
	fmt.Printf("S-CL attempts    %d   NS-CL attempts %d\n", s.SCLAttempts, s.NSCLAttempts)
	fmt.Printf("lines locked     %d   lock retries %d   CRT insertions %d\n",
		s.LinesLocked, s.LockRetries, s.CRTInsertions)
	fmt.Printf("power claims     %d   fallback acquisitions %d\n", s.PowerClaims, s.FallbackAcquisitions)
	if s.PolicyOverrides+s.PolicyBackoffTicks+s.PolicyNonSpecEntries > 0 {
		fmt.Printf("policy           overrides %d   backoff ticks %d   static NS-CL entries %d\n",
			s.PolicyOverrides, s.PolicyBackoffTicks, s.PolicyNonSpecEntries)
	}
	fmt.Println()
	fmt.Printf("instructions     %d committed + %d aborted (%.1f%% wasted)\n",
		s.Instructions, s.AbortedInstructions,
		pct(s.AbortedInstructions, s.Instructions+s.AbortedInstructions))
	d := r.Dir
	fmt.Printf("directory        reads %d  writes %d  inval %d  nacks %d  retries %d  mem %d  hops %d\n",
		d.Reads, d.Writes, d.Invalidations, d.Nacks, d.Retries, d.MemoryFetches, d.Hops)
	fmt.Printf("invocation latency (cycles, upper bounds): p50 %d  p95 %d  p99 %d\n",
		s.LatencyPercentile(0.50), s.LatencyPercentile(0.95), s.LatencyPercentile(0.99))
	eb := stats.DefaultEnergyModel().EnergyBreakdown(s, d, p.Cores)
	fmt.Printf("energy breakdown static %.0f  instr %.0f  L1 %.0f  dir %.0f  mem %.0f  net %.0f\n",
		eb.Static, eb.Instr, eb.L1, eb.Directory, eb.Memory, eb.Network)
}

func pct(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}
