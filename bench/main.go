// Command bench is the repository benchmark: it times the simulator on four
// fixed workloads, checks every outcome against a reference, and splits the
// cost of each workload across the repository's layers in a traced run.
//
// Run it from the root of a checkout through bench/run.sh, which builds it
// from source:
//
//	bash bench/run.sh --workload ds-clear --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1 --seconds 20 --out results.jsonl
//	bash bench/run.sh compare parent.jsonl change.jsonl
//	bash bench/run.sh golden bench/testdata/golden.json
//
// With --workload it runs that workload once and prints, as the last line
// of its output, a JSON object with the keys correct, attempted, failed
// and metrics: the end-to-end metrics with --trace 0, the per-layer ones
// with --trace 1. Without --workload it runs every workload in a child
// process of its own, one after another, then a traced run of each.
// compare judges two sets of results against the bounds in BENCHMARK.json;
// golden rewrites the checked-in seed-1 outcomes.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// buildDir holds everything the benchmark writes, relative to the root of
// the checkout it runs in.
const buildDir = ".bench_build"

// setupReps is how many times a timed run prepares its workload; setup_s
// is the median, so a slow first preparation does not decide it.
const setupReps = 3

// minPasses keeps the timed loop meaningful when --seconds is shorter than
// a few passes.
const minPasses = 5

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// Load comes from this process alone, on at most two threads.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:])
		case "golden":
			if len(args) != 2 {
				fmt.Fprintln(os.Stderr, "usage: bench golden <file>")
				return 2
			}
			scratch := filepath.Join(buildDir, fmt.Sprintf("golden-%d", os.Getpid()))
			err := writeGolden(args[1], scratch)
			os.RemoveAll(scratch)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench golden:", err)
				return 1
			}
			return 0
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run; empty runs every workload, then a traced run of each")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 20, "how long the timed passes run")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	out := fs.String("out", "", "append each run's record (host fingerprint, metrics) to this JSON-lines file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "bench: want --seconds >= 1, --trace 0 or 1, and no positional arguments")
		return 2
	}
	if *name == "" {
		return runAll(*seed, *seconds, *out)
	}
	def, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return runOne(def, *seed, *seconds, *traceFlag == 1, *out)
}

// resultLine is the last line a workload run prints.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one run as appended to an --out file: its result line plus
// what it ran and where.
type record struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     bool     `json:"trace"`
	Host      host     `json:"host"`
	Passes    int      `json:"passes,omitempty"`
	HostScale float64  `json:"host_scale,omitempty"`
	FailRatio float64  `json:"fail_ratio"`
	Problems  []string `json:"problems,omitempty"`
	resultLine
}

func runOne(def *workloadDef, seed uint64, seconds int, traced bool, outPath string) int {
	h := fingerprint()
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s, HEAD %s, calibration %.1f ms\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.GitHead, h.CalibrationMS)
	scratch := filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	in, err := newInstance(def, seed, scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	rec := record{Workload: def.name, Seed: seed, Seconds: seconds, Trace: traced, Host: h}
	var measured map[string]float64
	var res passResult
	defs := endToEnd
	if traced {
		defs = perLayer
		_, res, err = in.timedSetup(1)
		if err == nil {
			var tr passResult
			measured, tr, err = in.traced(time.Duration(seconds)*time.Second, buildDir)
			res.merge(tr)
		}
	} else {
		measured, res, err = in.measure(seconds, &rec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", def.name, err)
		return 1
	}

	metrics, unknown := withUnits(defs, measured)
	for _, name := range unknown {
		fmt.Fprintf(os.Stderr, "bench: %s: measured %s, which the metric table does not list\n", def.name, name)
	}
	for _, d := range defs {
		fmt.Printf("%-34s %14.6g %s\n", d.Name, metrics[d.Name].Value, d.Unit)
	}
	rec.Correct, rec.Attempted, rec.Failed = res.failed == 0, max(1, res.runs), res.failed
	rec.FailRatio = float64(rec.Failed) / float64(rec.Attempted)
	rec.Problems, rec.Metrics = res.problems, metrics
	if !traced {
		fmt.Printf("%d passes; host times scaled to the reference host by a median %.4f\n", rec.Passes, rec.HostScale)
	}
	fmt.Printf("%s seed %d: %d runs attempted, %d failed (fail_ratio %.6g)\n",
		def.name, seed, rec.Attempted, rec.Failed, rec.FailRatio)
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", def.name, p)
	}
	if outPath != "" {
		if err := appendRecord(outPath, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.resultLine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

// timedSetup runs setup reps times, keeps the first outcome as the
// reference, and checks that later reps and the checked-in golden outcome
// agree with it. It returns each setup's time, scaled to the reference
// host, and the runs made.
func (in *instance) timedSetup(reps int) ([]float64, passResult, error) {
	var res passResult
	var walls, scales []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		ref, err := in.setup()
		walls = append(walls, time.Since(start).Seconds())
		scales = append(scales, hostScale())
		if err != nil {
			return nil, res, fmt.Errorf("setup: %w", err)
		}
		res.runs += ref.runs
		if i == 0 {
			in.ref = ref
		} else if d := in.ref.diff(ref); d != "" {
			res.fail(1, "setup %d differs from setup 1: %s", i+1, d)
		}
	}
	d, err := checkGolden(in.def.name, in.seed, in.ref)
	if err != nil {
		return nil, res, err
	}
	if d != "" {
		res.fail(1, "golden outcome: %s", d)
	}
	return scaled(walls, scales), res, nil
}

// measure prepares the instance setupReps times, then repeats timed passes
// for the given seconds with tracing off, and returns the end-to-end
// metrics. Each pass and each setup is followed by a calibration kernel
// sample, and scaled gives reference-host times; rec gets the pass count
// and the median scale.
func (in *instance) measure(seconds int, rec *record) (map[string]float64, passResult, error) {
	setups, res, err := in.timedSetup(setupReps)
	if err != nil {
		return nil, res, err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var walls, scales []float64
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for len(walls) < minPasses || time.Now().Before(deadline) {
		start := time.Now()
		r := in.pass()
		walls = append(walls, time.Since(start).Seconds())
		scales = append(scales, hostScale())
		res.merge(r)
	}
	runtime.ReadMemStats(&ms1)
	passes := scaled(walls, scales)
	rec.Passes, rec.HostScale = len(passes), median(scales)
	passS := median(passes)
	return map[string]float64{
		"pass_s":             passS,
		"pass_s_p90":         p90(passes),
		"sim_minstr_per_s":   in.ref.instr / passS / 1e6,
		"setup_s":            median(setups),
		"alloc_mb_per_pass":  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(len(passes)) / 1e6,
		"peak_rss_mb":        peakRSSMB(),
		"sim_cycles_geomean": geomean(in.ref.cycles),
		"aborts_per_commit":  in.ref.aborts / in.ref.commits,
	}, res, nil
}

func appendRecord(path string, rec record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in a child process of its own, one after
// another, then a traced run of each about a quarter as long, and prints
// their results. It fails when any child fails.
func runAll(seed uint64, seconds int, outPath string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	all := resultLine{Correct: true, Metrics: make(map[string]value)}
	code := 0
	for _, traced := range []int{0, 1} {
		secs := seconds
		if traced == 1 {
			secs = max(4, seconds/4)
		}
		for _, w := range workloads {
			args := []string{"--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.Itoa(secs), "--trace", strconv.Itoa(traced)}
			if outPath != "" {
				args = append(args, "--out", outPath)
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			last := ""
			sc := bufio.NewScanner(bytes.NewReader(stdout))
			for sc.Scan() {
				fmt.Printf("[%s trace=%d] %s\n", w.name, traced, sc.Text())
				last = sc.Text()
			}
			var line resultLine
			if jerr := json.Unmarshal([]byte(last), &line); jerr != nil || err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s --trace %d failed: %v\n", w.name, traced, err)
				code = 1
				all.Correct = false
				continue
			}
			all.Correct = all.Correct && line.Correct
			all.Attempted += line.Attempted
			all.Failed += line.Failed
			for k, v := range line.Metrics {
				all.Metrics[w.name+"/"+k] = v
			}
		}
	}
	data, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(data))
	if !all.Correct {
		code = 1
	}
	return code
}
