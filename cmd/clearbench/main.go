// Command clearbench regenerates every table and figure of the paper's
// evaluation section. Without flags it runs the full matrix (all benchmarks,
// all four configurations, retry sweep, multi-seed) and prints every
// experiment; -table/-fig select one.
//
// Usage:
//
//	clearbench                    # everything (takes a few minutes)
//	clearbench -fig 8             # just Figure 8
//	clearbench -table 1           # just Table 1 (static, fast)
//	clearbench -quick             # reduced sweep for a fast look
//	clearbench -ablation discovery|lockall
//	clearbench -cache-dir .clearcache          # memoize every cell run
//	clearbench -cache-dir .clearcache -resume  # resume a cancelled sweep
//	clearbench -serve :6070 -cache-dir .farm   # sweep-farm server
//	clearbench -quick -remote localhost:6070   # run the sweep on that farm
//
// With -cache-dir, every (benchmark, config, retry, seed) run is served from
// the content-addressed run cache when its parameters match a previous run
// bit-for-bit; a sweep interrupted by SIGINT (or a crash) re-run with the
// same -cache-dir recomputes only the missing cells. -no-cache bypasses the
// store entirely.
//
// -serve turns the process into a farm server (internal/farm): an HTTP job
// queue whose workers execute submitted runs through the same cache, with
// bounded retry/backoff for host-side flakiness, quarantine for specs that
// exhaust their budget, and graceful drain on SIGINT/SIGTERM. A killed
// server restarted with the same -cache-dir resumes its campaigns. -remote
// points a sweep at such a server: cells execute farm-side, progress streams
// from the farm's /farm counters, and the tables, figures, and CSVs come out
// byte-identical to a local run.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/farm"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/prof"
	"repro/internal/workload"
)

func main() {
	cliutil.SetTool("clearbench")
	var (
		table    = flag.Int("table", 0, "print only this table (1 or 2)")
		fig      = flag.Int("fig", 0, "print only this figure (1, 8..13)")
		quick    = flag.Bool("quick", false, "reduced sweep (8 cores, 1 seed)")
		cores    = flag.Int("cores", 0, "override simulated core count")
		ops      = flag.Int("ops", 0, "override operations per thread")
		seeds    = flag.Int("seeds", 0, "override seed count")
		ablation = flag.String("ablation", "", "run an ablation: 'discovery' (no failed-mode continuation) or 'lockall' (S-CL locks all reads)")
		sweep    = flag.Bool("sweep", false, "print the retry-limit design-space exploration instead of the figures")
		csvPath  = flag.String("csv", "", "also write the matrix cells as CSV to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		serve    = flag.String("serve", "", "run as a sweep-farm server on this address (e.g. localhost:6070) instead of sweeping locally; endpoints: /jobs, /quarantine, /farm, /metrics, /metrics.json, /debug/vars")
		deadline = flag.Duration("run-deadline", 0, "host wall-time deadline per individual run; an exceeding run becomes an isolated failure instead of hanging the sweep (0 = none)")

		benchList   = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all)")
		configsFlag = flag.String("configs", "", "configuration subset, compact or separated (e.g. BPCW or B,C; default: B,P,C,W)")

		frontier      = flag.Bool("frontier", false, "run the policy-frontier sweep: every -policies entry over the benchmark x config matrix, optionally doubled under -frontier-fault; prints the per-cell verdict and where the paper's single-retry policy wins or loses")
		policiesFlag  = flag.String("policies", "", "policy list for -frontier, separated by ';' or whitespace (default: all built-ins)")
		frontierFault = flag.String("frontier-fault", "", "fault preset for the under-faults half of -frontier (empty = clean only)")
	)
	sweepFlags := cliutil.AddSweepFlags(flag.CommandLine)
	serviceFlags := cliutil.AddServiceFlags(flag.CommandLine)
	policyFlag := cliutil.AddPolicyFlags(flag.CommandLine)
	flag.Parse()

	if err := serviceFlags.Validate(*serve, sweepFlags); err != nil {
		cliutil.Usage(err)
	}

	stop, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		cliutil.Fatal(err)
	}
	cliutil.OnExit(stop)
	defer stop()

	// Farm server mode: serve the job queue until drained; no local sweep.
	if *serve != "" {
		runFarmServer(*serve, sweepFlags, *deadline)
		return
	}

	// The static tables need no simulation.
	if *table == 1 {
		if err := harness.PrintTable1(os.Stdout); err != nil {
			cliutil.Fatal(err)
		}
		return
	}
	if *table == 2 {
		harness.PrintTable2(os.Stdout, 32)
		return
	}
	if *table != 0 {
		cliutil.Usagef("unknown table %d", *table)
	}

	if *fig != 0 {
		switch *fig {
		case 1, 8, 9, 10, 11, 12, 13:
		default:
			// Validate before the (minutes-long) matrix run.
			cliutil.Usagef("unknown figure %d (want 1 or 8..13)", *fig)
		}
	}

	opts := harness.DefaultMatrixOptions()
	if *quick {
		opts = harness.QuickMatrixOptions()
	}
	if *cores > 0 {
		opts.Cores = *cores
	}
	if *ops > 0 {
		opts.OpsPerThread = *ops
	}
	if *seeds > 0 {
		opts.Seeds = opts.Seeds[:0]
		for s := 1; s <= *seeds; s++ {
			opts.Seeds = append(opts.Seeds, uint64(s))
		}
	}
	switch strings.ToLower(*ablation) {
	case "":
	case "discovery":
		opts.DisableDiscoveryContinuation = true
	case "lockall":
		opts.SCLLockAllReads = true
	default:
		cliutil.Usagef("unknown ablation %q", *ablation)
	}
	if *benchList != "" {
		names, err := benchSubset(*benchList)
		if err != nil {
			cliutil.Usage(err)
		}
		opts.Benchmarks = names
	}
	if *configsFlag != "" {
		cfgs, err := harness.ParseConfigs(*configsFlag)
		if err != nil {
			cliutil.Usage(err)
		}
		opts.Configs = cfgs
	}
	opts.Policy, err = policyFlag.Spec()
	if err != nil {
		cliutil.Usage(err)
	}

	opts.RunDeadline = *deadline

	store, err := sweepFlags.Store()
	if err != nil {
		cliutil.Usage(err)
	}
	if store != nil {
		// Guarded assignment: a typed-nil *Store inside the Backend
		// interface would read as attached.
		opts.Store = store
		fmt.Fprintf(os.Stderr, "clearbench: run cache at %s\n", store.Dir())
	}

	// Remote mode: every cell executes on the farm server; the local process
	// keeps only the aggregation, best-of selection, and rendering — which is
	// exactly what makes the remote output byte-identical to a local run.
	remoteStop := func() {}
	if *serviceFlags.Remote != "" {
		client := farm.NewClient(*serviceFlags.Remote)
		opts.Runner = client.Runner()
		remoteStop = startRemoteProgress(client)
		fmt.Fprintf(os.Stderr, "clearbench: executing on farm at %s\n", *serviceFlags.Remote)
	}
	defer remoteStop()

	if *frontier {
		if !opts.Policy.IsDefault() {
			cliutil.Usagef("-policy conflicts with -frontier: select the comparison set with -policies")
		}
		runFrontier(opts, *policiesFlag, *frontierFault, *csvPath)
		return
	}

	// Graceful shutdown: the first SIGINT/SIGTERM stops the workers claiming
	// new matrix cells (runs in flight finish) and the partial matrix is still
	// reported — and, with -cache-dir, every completed cell is already
	// persisted, so re-running with -resume picks up where this left off; a
	// second signal kills the process through the default handler.
	cancel := make(chan struct{})
	opts.Cancel = cancel
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "\nclearbench: %s — finishing runs in flight, reporting the partial matrix (send again to kill)\n", sig)
		signal.Stop(sigCh)
		close(cancel)
	}()
	start := time.Now()
	fmt.Fprintf(os.Stderr, "clearbench: running matrix: %d benchmarks x %d configs x %d retry limits x %d seeds (%d cores, %d ops/thread)\n",
		len(opts.Benchmarks), len(opts.Configs), len(opts.RetryLimits), len(opts.Seeds), opts.Cores, opts.OpsPerThread)
	m, err := harness.RunMatrix(opts)
	if err != nil {
		cliutil.Fatal(err)
	}
	signal.Stop(sigCh)
	remoteStop()
	interrupted := false
	select {
	case <-cancel:
		interrupted = true
	default:
	}
	fmt.Fprintf(os.Stderr, "clearbench: matrix done in %v\n", time.Since(start).Round(time.Millisecond))
	if store != nil {
		lookups := m.CacheHits + m.CacheMisses
		rate := 0.0
		if lookups > 0 {
			rate = 100 * float64(m.CacheHits) / float64(lookups)
		}
		fmt.Fprintf(os.Stderr, "clearbench: run cache: %d hits, %d misses (%.1f%% hits) in %s\n",
			m.CacheHits, m.CacheMisses, rate, store.Dir())
		if *sweepFlags.Resume {
			fmt.Fprintf(os.Stderr, "clearbench: resumed %d of %d cell runs from cache\n", m.CacheHits, lookups)
		}
	}
	fmt.Fprintln(os.Stderr)

	if len(m.Failures) > 0 {
		fmt.Fprintf(os.Stderr, "clearbench: %d run(s) failed in isolation (cells aggregate the surviving seeds):\n", len(m.Failures))
		for _, fl := range m.Failures {
			fmt.Fprintf(os.Stderr, "  %s\n", fl.String())
		}
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			cliutil.Fatal(err)
		}
		if err := m.WriteCSV(f); err != nil {
			cliutil.Fatal(err)
		}
		if err := f.Close(); err != nil {
			cliutil.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "clearbench: wrote %s\n", *csvPath)
		if len(m.Failures) > 0 {
			failPath := *csvPath + ".failures.csv"
			ff, err := os.Create(failPath)
			if err != nil {
				cliutil.Fatal(err)
			}
			if err := m.WriteFailuresCSV(ff); err != nil {
				cliutil.Fatal(err)
			}
			if err := ff.Close(); err != nil {
				cliutil.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "clearbench: wrote %s\n", failPath)
		}
	}

	printers := map[int]func(){
		1:  func() { m.PrintFigure1(os.Stdout) },
		8:  func() { m.PrintFigure8(os.Stdout) },
		9:  func() { m.PrintFigure9(os.Stdout) },
		10: func() { m.PrintFigure10(os.Stdout) },
		11: func() { m.PrintFigure11(os.Stdout) },
		12: func() { m.PrintFigure12(os.Stdout) },
		13: func() { m.PrintFigure13(os.Stdout) },
	}
	switch {
	case *sweep:
		m.PrintRetrySweep(os.Stdout)
	case *fig != 0:
		printers[*fig]()
	default:
		if err := harness.PrintTable1(os.Stdout); err != nil {
			cliutil.Fatal(err)
		}
		fmt.Println()
		harness.PrintTable2(os.Stdout, opts.Cores)
		for _, f := range []int{1, 8, 9, 10, 11, 12, 13} {
			fmt.Println()
			printers[f]()
		}
	}
	if interrupted {
		cliutil.Exit(130)
	}
	if len(m.Failures) > 0 {
		cliutil.Exit(cliutil.ExitFailure)
	}
}

// benchSubset validates a comma-separated benchmark list against the
// workload registry.
func benchSubset(arg string) ([]string, error) {
	known := make(map[string]bool)
	for _, n := range workload.Names() {
		known[n] = true
	}
	var names []string
	for _, n := range strings.Split(arg, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if !known[n] {
			return nil, fmt.Errorf("unknown benchmark %q (see clearsim -list)", n)
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("-benchmarks %q selects nothing", arg)
	}
	return names, nil
}

// runFrontier executes the policy-frontier sweep and renders its CSV and
// verdict.
func runFrontier(base harness.MatrixOptions, policiesArg, faultPreset, csvPath string) {
	fo := harness.FrontierOptions{
		Policies:    harness.DefaultFrontierPolicies(),
		Base:        base,
		FaultPreset: faultPreset,
	}
	if policiesArg != "" {
		specs, err := policy.ParseList(policiesArg)
		if err != nil {
			cliutil.Usage(err)
		}
		fo.Policies = specs
	}
	halves := 1
	if faultPreset != "" {
		halves = 2
	}
	fmt.Fprintf(os.Stderr, "clearbench: policy frontier: %d policies x %d benchmarks x %d configs x %d halves (%d cores, %d ops/thread)\n",
		len(fo.Policies), len(base.Benchmarks), len(base.Configs), halves, base.Cores, base.OpsPerThread)
	start := time.Now()
	f, err := harness.RunFrontier(fo)
	if err != nil {
		cliutil.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "clearbench: frontier done in %v\n", time.Since(start).Round(time.Millisecond))
	if base.Store != nil {
		fmt.Fprintf(os.Stderr, "clearbench: run cache: %d hits, %d misses\n", f.CacheHits, f.CacheMisses)
	}
	if csvPath != "" {
		out, err := os.Create(csvPath)
		if err != nil {
			cliutil.Fatal(err)
		}
		if err := f.WriteCSV(out); err != nil {
			cliutil.Fatal(err)
		}
		if err := out.Close(); err != nil {
			cliutil.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "clearbench: wrote %s\n", csvPath)
	}
	if err := f.Summary(os.Stdout); err != nil {
		cliutil.Fatal(err)
	}
	if len(f.Failures) > 0 {
		fmt.Fprintf(os.Stderr, "clearbench: %d frontier run(s) failed:\n", len(f.Failures))
		for _, fl := range f.Failures {
			fmt.Fprintf(os.Stderr, "  %s\n", fl.String())
		}
		cliutil.Exit(cliutil.ExitFailure)
	}
}

// runFarmServer runs the process as a sweep-farm server (internal/farm):
// an HTTP job queue over the run cache selected by the sweep flags. The
// first SIGINT/SIGTERM drains gracefully — no new jobs, accepted ones
// finish (jobs waiting out a retry backoff run immediately) — and the
// process exits once the queue is empty; a second signal kills it through
// the default handler, which with -cache-dir loses nothing but in-flight
// work: a restart over the same directory resumes the campaign.
func runFarmServer(addr string, sweepFlags *cliutil.SweepFlags, jobDeadline time.Duration) {
	store, err := sweepFlags.Store()
	if err != nil {
		cliutil.Usage(err)
	}
	cfg := farm.Config{
		Retry:       farm.DefaultRetryPolicy(),
		JobDeadline: jobDeadline,
		Metrics:     metrics.NewRegistry(),
	}
	if store != nil {
		cfg.Store = store
		fmt.Fprintf(os.Stderr, "clearbench: farm result store at %s\n", store.Dir())
	} else {
		fmt.Fprintln(os.Stderr, "clearbench: farm has no -cache-dir: results are not durable, a restart recomputes everything")
	}
	fs := farm.NewServer(cfg)

	mux := http.NewServeMux()
	mux.Handle("/", fs.Handler())
	mux.Handle("/debug/vars", expvar.Handler()) // Go runtime memstats
	srv := &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		signal.Stop(sigCh) // a second signal kills via the default handler
		fmt.Fprintf(os.Stderr, "\nclearbench: %s — draining farm: rejecting new jobs, finishing accepted ones (send again to kill)\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		defer cancel()
		if err := fs.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "clearbench: drain:", err)
		}
		fs.Close()
		shutCtx, done := context.WithTimeout(context.Background(), 5*time.Second)
		defer done()
		_ = srv.Shutdown(shutCtx)
	}()

	fmt.Fprintf(os.Stderr, "clearbench: farm serving on http://%s (POST /jobs, GET /jobs/{key}, /farm, /quarantine, /metrics, /metrics.json)\n", addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		cliutil.Fatal(err)
	}
	st := fs.Stats()
	fmt.Fprintf(os.Stderr, "clearbench: farm drained: %d done, %d failed, %d quarantined | %d executions, %d cache hits, %d retries scheduled, %d dedup attaches\n",
		st.Done, st.Failed, st.Quarantined, st.Executed, st.CacheHits, st.RetriesScheduled, st.DedupAttached)
}

// startRemoteProgress streams sweep progress from the farm's /farm counters
// to stderr until the returned (idempotent) stop function is called.
func startRemoteProgress(client *farm.Client) func() {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(2 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				st, err := client.FarmStats()
				if err != nil {
					continue
				}
				fmt.Fprintf(os.Stderr, "clearbench: farm %d/%d jobs done (%d running, %d queued, %d backoff, %d quarantined) | %d executed, %d cache hits\n",
					st.Done, st.Total(), st.Running, st.Queued, st.Backoff, st.Quarantined,
					st.Executed, st.CacheHits)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
}
