package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"

	"repro/internal/cliutil"
	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/runstore"
	"repro/internal/stats"
	"repro/internal/trace"
)

// metric is one named scalar of a run summary. Values are float64 so traces
// (tick counts) and cached records (energy) share one comparison path;
// every integer a run can produce round-trips exactly through float64.
type metric struct {
	name string
	val  float64
}

// summary is the comparable view of one diff input, with the metric order
// preserved for stable output.
type summary struct {
	label   string
	metrics []metric
}

func (s *summary) add(name string, val float64) {
	s.metrics = append(s.metrics, metric{name: name, val: val})
}

func (s *summary) index() map[string]float64 {
	m := make(map[string]float64, len(s.metrics))
	for _, mt := range s.metrics {
		m[mt.name] = mt.val
	}
	return m
}

// summarizeProfile flattens a trace profile into named metrics. Per-reason
// abort counts are additionally grouped into the coarse buckets a cached
// stats record carries, so trace↔record diffs still compare abort structure.
func summarizeProfile(label string, p *trace.Profile) *summary {
	s := &summary{label: label}
	s.add("invocations", float64(p.Invocations))
	s.add("attempts", float64(p.Attempts))
	s.add("commits", float64(p.Commits))
	s.add("aborts", float64(p.Aborts))
	for m := stats.CommitMode(0); m < stats.NumCommitModes; m++ {
		s.add("commits/"+m.String(), float64(p.CommitsByMode[m]))
	}
	var byBucket [htm.NumBuckets]int
	for r, n := range p.AbortsByReason {
		byBucket[htm.BucketOf(r)] += n
	}
	for b := htm.Bucket(0); b < htm.NumBuckets; b++ {
		s.add("aborts/"+b.String(), float64(byBucket[b]))
	}
	for _, r := range sortedReasons(p.AbortsByReason) {
		s.add("aborts-by-reason/"+r.String(), float64(p.AbortsByReason[r]))
	}
	s.add("last-tick", float64(p.LastTick))
	s.add("aborted-ticks", float64(p.AbortedTicks))
	s.add("lock-wait-ticks", float64(p.LockWaitTicks))
	s.add("retry-latency/count", float64(p.RetryLatency.Count))
	s.add("retry-latency/sum", float64(p.RetryLatency.Sum))
	s.add("retry-latency/p50", float64(p.RetryLatency.P50))
	s.add("retry-latency/p99", float64(p.RetryLatency.P99))
	s.add("retry-latency/max", float64(p.RetryLatency.Max))
	return s
}

// summarizeRecord flattens a runstore cache record into named metrics,
// sharing names with summarizeProfile where the quantities coincide.
func summarizeRecord(label string, rec *harness.CacheRecord) *summary {
	s := &summary{label: label}
	run := rec.Stats
	s.add("commits", float64(run.Commits))
	s.add("aborts", float64(run.Aborts))
	for m := stats.CommitMode(0); m < stats.NumCommitModes; m++ {
		s.add("commits/"+m.String(), float64(run.CommitsByMode[m]))
	}
	for b := htm.Bucket(0); b < htm.NumBuckets; b++ {
		s.add("aborts/"+b.String(), float64(run.AbortsByBucket[b]))
	}
	s.add("cycles", float64(run.Cycles))
	s.add("instructions", float64(run.Instructions))
	s.add("aborted-instructions", float64(run.AbortedInstructions))
	s.add("discovery-cycles", float64(run.DiscoveryCycles))
	s.add("lines-locked", float64(run.LinesLocked))
	s.add("lock-retries", float64(run.LockRetries))
	s.add("fallback-acquisitions", float64(run.FallbackAcquisitions))
	s.add("energy", rec.Energy)
	return s
}

// isTraceFile sniffs the CLRT magic.
func isTraceFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var hdr [4]byte
	if _, err := f.Read(hdr[:]); err != nil {
		return false
	}
	return binary.LittleEndian.Uint32(hdr[:]) == trace.Magic
}

// loadInput resolves one diff argument: an existing file is sniffed by
// content (CLRT magic → trace, otherwise a runstore record file); a
// non-file argument is treated as an abbreviated cache key when -cache-dir
// was given.
func loadInput(arg string, st *runstore.Store) (*summary, error) {
	if _, err := os.Stat(arg); err == nil {
		if isTraceFile(arg) {
			meta, evs, err := loadTrace(arg)
			if err != nil {
				return nil, err
			}
			return summarizeProfile(arg, trace.BuildProfile(meta, evs)), nil
		}
		payload, err := os.ReadFile(arg)
		if err != nil {
			return nil, err
		}
		rec, err := harness.DecodeCacheRecord(payload)
		if err != nil {
			return nil, fmt.Errorf("%s: not a trace and %w", arg, err)
		}
		return summarizeRecord(arg, rec), nil
	}
	if st == nil {
		return nil, fmt.Errorf("%s: no such file (pass -cache-dir to resolve cache keys)", arg)
	}
	key, err := st.Resolve(arg)
	if err != nil {
		return nil, err
	}
	payload, ok, err := st.Get(key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("runstore: record %s vanished", key)
	}
	rec, err := harness.DecodeCacheRecord(payload)
	if err != nil {
		return nil, err
	}
	return summarizeRecord(key[:12], rec), nil
}

func fmtVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// cmdDiff compares two runs on the metrics both inputs carry. Silence and
// exit 0 mean equal, so scripts assert on the exit status alone.
func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("cleartrace diff", flag.ExitOnError)
	cacheDir := fs.String("cache-dir", "", "runstore directory for resolving abbreviated cache keys")
	fs.Parse(args)
	if fs.NArg() != 2 {
		cliutil.Usagef("diff: want exactly two inputs (trace files, record files, or cache keys), got %d", fs.NArg())
	}
	var st *runstore.Store
	if *cacheDir != "" {
		var err error
		if st, err = runstore.Open(*cacheDir); err != nil {
			return err
		}
	}
	a, err := loadInput(fs.Arg(0), st)
	if err != nil {
		return err
	}
	b, err := loadInput(fs.Arg(1), st)
	if err != nil {
		return err
	}

	// Compare the metric intersection in a's order.
	bvals := b.index()
	var differ int
	for _, m := range a.metrics {
		bv, ok := bvals[m.name]
		if !ok {
			continue
		}
		if m.val != bv {
			if differ == 0 {
				fmt.Printf("%-28s %20s %20s\n", "metric", a.label, b.label)
			}
			fmt.Printf("%-28s %20s %20s\n", m.name, fmtVal(m.val), fmtVal(bv))
			differ++
		}
	}
	if differ > 0 {
		return fmt.Errorf("%d metric(s) differ", differ)
	}
	return nil
}
