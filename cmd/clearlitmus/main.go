// Command clearlitmus runs the litmus corpus and the axiomatic memory-model
// conformance checker over the simulator's trace stream.
//
// Usage:
//
//	clearlitmus list                                   # corpus with docs
//	clearlitmus run                                    # full conformance sweep
//	clearlitmus run -tests sb+ar,mp+ar -configs BC -seeds 8
//	clearlitmus run -faults storm                      # sweep under a preset
//	clearlitmus run -trace-out dir/                    # keep the raw traces
//	clearlitmus run -inject lost-inv -expect-catch     # planted-bug check
//	clearlitmus run -update-golden                     # rewrite testdata goldens
//	clearlitmus check run.trace [more.trace ...]       # check recorded traces
//
// Exit codes follow the repo-wide cliutil policy: 0 conformant, 1 a
// violation or forbidden outcome was found (or, under -expect-catch, the
// planted bug was NOT found), 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/litmus"
	"repro/internal/trace"
)

func main() {
	cliutil.SetTool("clearlitmus")
	if len(os.Args) < 2 {
		usage()
		cliutil.Exit(cliutil.ExitUsage)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "list":
		err = cmdList(args)
	case "run":
		err = cmdRun(args)
	case "check":
		err = cmdCheck(args)
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "clearlitmus: unknown command %q\n\n", cmd)
		usage()
		cliutil.Exit(cliutil.ExitUsage)
	}
	if err != nil {
		cliutil.Fatal(err)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `clearlitmus runs litmus tests and checks memory-model conformance.

commands:
  list    print the corpus: test names, shapes, forbidden outcomes
  run     sweep tests x configs x seeds; diff outcome sets and check axioms
  check   run the axiomatic checker over recorded trace files

run 'clearlitmus <command> -h' for the command's flags.
`)
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	verbose := fs.Bool("v", false, "also print the SC-allowed outcome sets")
	fs.Parse(args)
	for _, t := range litmus.Corpus() {
		fmt.Printf("%-10s %s\n", t.Name, t.Doc)
		fmt.Printf("%-10s forbidden: %s\n", "", strings.Join(t.Forbidden, " | "))
		if *verbose {
			fmt.Printf("%-10s allowed:   %s\n", "", strings.Join(t.Allowed(), " | "))
		}
	}
	return nil
}

// resolveTests expands the -tests flag ("" or "all" = full corpus).
func resolveTests(spec string) ([]*litmus.Test, error) {
	if spec == "" || spec == "all" {
		return litmus.Corpus(), nil
	}
	var out []*litmus.Test
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		t := litmus.Lookup(name)
		if t == nil {
			return nil, fmt.Errorf("unknown litmus test %q (see 'clearlitmus list')", name)
		}
		out = append(out, t)
	}
	return out, nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	tests := fs.String("tests", "all", "comma-separated test names, or 'all'")
	configs := fs.String("configs", "BPCW", "configuration letters to sweep")
	seeds := fs.Int("seeds", litmus.DefaultSeedCount, "seeds per (test, config) cell (1..N)")
	faults := fs.String("faults", "off", "fault preset applied to every run ("+strings.Join(fault.Presets(), ", ")+", off)")
	traceOut := fs.String("trace-out", "", "directory receiving one binary trace per run (inspect with cleartrace)")
	inject := fs.String("inject", "", "plant a bug: 'lost-inv' drops invalidation aborts")
	expectCatch := fs.Bool("expect-catch", false, "with -inject: exit 0 only if the checker catches the planted bug")
	updateGolden := fs.Bool("update-golden", false, "rewrite internal/litmus/testdata outcome-set goldens from this sweep")
	quiet := fs.Bool("q", false, "only print failures and the final summary")
	policyFlag := cliutil.AddPolicyFlags(fs)
	fs.Parse(args)

	ts, err := resolveTests(*tests)
	if err != nil {
		cliutil.Usage(err)
	}
	cfgs, err := harness.ParseConfigs(*configs)
	if err != nil {
		cliutil.Usage(err)
	}
	if *seeds < 1 {
		cliutil.Usagef("-seeds %d: need at least one seed", *seeds)
	}
	switch *inject {
	case "", "lost-inv":
	default:
		cliutil.Usagef("-inject %q: only 'lost-inv' is known", *inject)
	}
	if *expectCatch && *inject == "" {
		cliutil.Usagef("-expect-catch needs -inject")
	}
	pol, err := policyFlag.Spec()
	if err != nil {
		cliutil.Usage(err)
	}
	if *updateGolden && (*inject != "" || (*faults != "off" && *faults != "") ||
		*tests != "all" || *configs != "BPCW" || *seeds != litmus.DefaultSeedCount || !pol.IsDefault()) {
		cliutil.Usagef("-update-golden pins the default sweep: full corpus, -configs BPCW, -seeds %d, clean, default policy", litmus.DefaultSeedCount)
	}

	var plan *fault.Plan
	if *faults != "off" && *faults != "" {
		if plan, err = fault.PresetPlan(*faults); err != nil {
			cliutil.Usage(err)
		}
	}
	if *inject == "lost-inv" {
		if plan == nil {
			plan = &fault.Plan{}
		}
		plan.LostInvalidationRate = 1
	}

	opts := litmus.SweepOpts{
		Tests:   ts,
		Configs: cfgs,
		Seeds:   litmus.DefaultSeeds(*seeds),
		Plan:    plan,
		Policy:  pol,
	}
	if *traceOut != "" {
		if err := os.MkdirAll(*traceOut, 0o755); err != nil {
			return err
		}
		dir := *traceOut
		opts.TraceSink = func(test string, cfg harness.ConfigID, seed uint64) io.WriteCloser {
			f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s_%s_%d.trace", test, cfg, seed)))
			if err != nil {
				cliutil.Fatal(err)
			}
			return f
		}
	}

	cells := litmus.Sweep(opts)
	failures := 0
	for _, cell := range cells {
		failures += len(cell.Failures)
		if !*quiet || cell.Failed() {
			status := "ok"
			if cell.Failed() {
				status = fmt.Sprintf("FAIL (%d runs)", len(cell.Failures))
			}
			fmt.Printf("%-10s %s  %-16s %s\n", cell.Test.Name, cell.Config, status,
				strings.Join(cell.ObservedOutcomes(), " | "))
		}
		for _, f := range cell.Failures {
			fmt.Println("  " + strings.ReplaceAll(f.String(), "\n", "\n  "))
		}
	}
	runs := len(ts) * len(cfgs) * *seeds

	if *expectCatch {
		if failures == 0 {
			fmt.Printf("planted bug NOT caught over %d runs\n", runs)
			cliutil.Exit(cliutil.ExitFailure)
		}
		fmt.Printf("planted bug caught: %d of %d runs flagged\n", failures, runs)
		return nil
	}
	if *updateGolden {
		if failures > 0 {
			cliutil.Fatalf("refusing to write goldens from a failing sweep (%d failures)", failures)
		}
		if err := writeGoldens(cfgs, cells); err != nil {
			return err
		}
	}
	if failures > 0 {
		fmt.Printf("%d of %d runs failed\n", failures, runs)
		cliutil.Exit(cliutil.ExitFailure)
	}
	if !*quiet {
		fmt.Printf("all %d runs conformant\n", runs)
	}
	return nil
}

// goldenDir locates internal/litmus/testdata relative to the module root so
// -update-golden works from any working directory inside the repo.
func goldenDir() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return filepath.Join(dir, "internal", "litmus", "testdata"), nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("-update-golden: no go.mod above %s (run inside the repo)", dir)
		}
		dir = parent
	}
}

func writeGoldens(cfgs []harness.ConfigID, cells []litmus.CellResult) error {
	dir, err := goldenDir()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, cfg := range cfgs {
		path := litmus.GoldenPath(dir, cfg)
		if err := os.WriteFile(path, []byte(litmus.GoldenContent(cfg, cells)), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	path := litmus.AllowedGoldenPath(dir)
	if err := os.WriteFile(path, []byte(litmus.AllowedGoldenContent()), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	quiet := fs.Bool("q", false, "only print failing traces")
	fs.Parse(args)
	if fs.NArg() == 0 {
		cliutil.Usagef("check needs at least one trace file")
	}
	bad := 0
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		rd, err := trace.NewReader(f)
		if err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", path, err)
		}
		if !rd.Meta().MemAccesses {
			f.Close()
			return fmt.Errorf("%s: trace has no memory-access events (record with -trace-mem / MemAccesses)", path)
		}
		events, err := rd.ReadAll()
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		var copts litmus.CheckOpts
		if name := strings.TrimPrefix(rd.Meta().Benchmark, "litmus:"); name != rd.Meta().Benchmark {
			if t := litmus.Lookup(name); t != nil {
				copts.AddrName = t.AddrName
			}
		}
		v := litmus.CheckEvents(events, copts)
		if !v.OK() {
			bad++
		}
		if !*quiet || !v.OK() {
			fmt.Printf("%s: %s\n", path, v)
		}
	}
	if bad > 0 {
		cliutil.Exit(cliutil.ExitFailure)
	}
	return nil
}
