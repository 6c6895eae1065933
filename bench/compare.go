package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// boundedMetric is an end-to-end metric as BENCHMARK.json lists it.
type boundedMetric struct {
	metricDef
	Bound float64 `json:"bound"`
}

type benchmarkFile struct {
	EndToEnd []boundedMetric `json:"end_to_end"`
}

// verdict is compare's judgement of one (metric, workload).
type verdict struct {
	Pairs, Wins    int
	Parent, Change float64 // medians
	Spread         float64 // parent's quartile distance / median
	Result         string
}

// judge applies the paired rule to the values of parent and change runs,
// paired by index. A change has improved when it wins at least nine
// tenths of at least ten pairs (ties count for neither) and its median is
// better by more than the parent's quartile distance. It has regressed when
// its median is worse by more than bound times the parent's. Otherwise the
// result is unresolved when the parent's own spread exceeds the bound,
// unless every change run beats every parent run, and unchanged when not.
func judge(parent, change []float64, better string, bound float64) verdict {
	n := min(len(parent), len(change))
	v := verdict{Pairs: n}
	if n == 0 {
		v.Result = "missing"
		return v
	}
	parent, change = parent[:n], change[:n]
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	for i := range parent {
		if sign*(change[i]-parent[i]) > 0 {
			v.Wins++
		}
	}
	v.Parent, v.Change = median(parent), median(change)
	v.Spread = spread(parent)
	q := quantiles(parent, 4)
	gain := sign * (v.Change - v.Parent)
	switch {
	case n >= 10 && v.Wins*10 >= 9*n && gain > q[2]-q[0]:
		v.Result = "improved"
	case -gain > bound*math.Abs(v.Parent):
		v.Result = "regressed"
	case v.Spread > bound && !allBetter(parent, change, sign):
		v.Result = "unresolved"
	default:
		v.Result = "unchanged"
	}
	return v
}

// allBetter reports whether every change value beats every parent value.
func allBetter(parent, change []float64, sign float64) bool {
	worstChange, bestParent := math.Inf(1), math.Inf(-1)
	for _, c := range change {
		worstChange = min(worstChange, sign*c)
	}
	for _, p := range parent {
		bestParent = max(bestParent, sign*p)
	}
	return worstChange > bestParent
}

// compareMain implements `bench compare parent.jsonl change.jsonl`: for
// every end-to-end metric of BENCHMARK.json and every workload it reports
// improved, unchanged, regressed or unresolved. It exits 1 when anything
// regressed and 2 on bad input, including results from different hosts.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "file listing the end-to-end metrics and their bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-benchmark BENCHMARK.json] parent.jsonl change.jsonl")
		return 2
	}
	var spec benchmarkFile
	data, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	parent, err := readRecords(fs.Arg(0))
	if err == nil {
		var change []record
		change, err = readRecords(fs.Arg(1))
		if err == nil {
			err = checkHosts(append(append([]record(nil), parent...), change...))
		}
		if err == nil {
			return report(spec, parent, change)
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

// readRecords reads the untraced runs of an --out file, ordered by
// workload and seed so that runs of the same seed pair up.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].Seed < out[j].Seed
	})
	return out, nil
}

// checkHosts refuses results from hosts whose fingerprints differ.
func checkHosts(recs []record) error {
	for _, r := range recs[min(1, len(recs)):] {
		if !sameHost(recs[0].Host, r.Host) {
			return fmt.Errorf("refusing to compare results from different hosts: %+v vs %+v", recs[0].Host, r.Host)
		}
	}
	return nil
}

func report(spec benchmarkFile, parent, change []record) int {
	values := func(recs []record, workload, metric string) []float64 {
		var out []float64
		for _, r := range recs {
			if r.Workload == workload {
				out = append(out, r.Metrics[metric].Value)
			}
		}
		return out
	}
	code := 0
	fmt.Printf("%-11s %-19s %5s %5s %13s %13s %8s %8s %7s  %s\n",
		"workload", "metric", "pairs", "wins", "parent", "change", "change%", "spread%", "bound%", "verdict")
	for _, w := range workloads {
		failed := [2]int{}
		for i, recs := range [][]record{parent, change} {
			for _, r := range recs {
				if r.Workload == w.name {
					failed[i] += r.Failed
				}
			}
		}
		if failed[1] > failed[0] {
			fmt.Printf("%-11s more failed runs in the change: %d vs %d\n", w.name, failed[1], failed[0])
			code = 1
		}
		for _, m := range spec.EndToEnd {
			v := judge(values(parent, w.name, m.Name), values(change, w.name, m.Name), m.Better, m.Bound)
			if v.Result == "missing" {
				continue
			}
			delta := 0.0
			if v.Parent != 0 {
				delta = 100 * (v.Change - v.Parent) / math.Abs(v.Parent)
			}
			fmt.Printf("%-11s %-19s %5d %5d %13.6g %13.6g %+7.2f%% %7.2f%% %6.1f%%  %s\n",
				w.name, m.Name, v.Pairs, v.Wins, v.Parent, v.Change, delta, 100*v.Spread, 100*m.Bound, v.Result)
			if v.Result == "regressed" {
				code = 1
			}
		}
	}
	return code
}
