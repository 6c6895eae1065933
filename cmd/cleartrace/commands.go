package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// cmdRecord runs one simulation with the tracer attached and writes the
// binary stream.
func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("cleartrace record", flag.ExitOnError)
	run := cliutil.AddRunFlags(fs, cliutil.RunDefaults{
		Bench: "hashmap", Config: "C", Cores: 8, Ops: 40, Retries: 4, Seed: 1,
	})
	var (
		out      = fs.String("o", "run.trace", "output trace file")
		withMem  = fs.Bool("mem", false, "record per-memory-operation events (verbose)")
		withDir  = fs.Bool("dir", false, "record directory transaction events (verbose)")
		withOrcl = fs.Bool("oracle", false, "also attach the invariant oracle")
	)
	fs.Parse(args)
	if fs.NArg() != 0 {
		cliutil.Usagef("record takes no positional arguments, got %d", fs.NArg())
	}
	p, err := run.Params()
	if err != nil {
		cliutil.Usage(err)
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	p.TraceWriter = f
	p.TraceMem = *withMem
	p.TraceDir = *withDir
	p.Oracle = *withOrcl
	res, err := harness.Run(p)
	if err != nil {
		f.Close()
		os.Remove(*out)
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, _ := os.Stat(*out)
	fmt.Fprintf(os.Stderr, "cleartrace: recorded %s (%d bytes): %s/%s cores=%d ops=%d seed=%d: %d cycles, %d commits, %d aborts\n",
		*out, st.Size(), p.Benchmark, p.Config, p.Cores, p.OpsPerThread, p.Seed,
		res.Stats.Cycles, res.Stats.Commits, res.Stats.Aborts)
	return nil
}

// traceArg returns the single trace-file argument of the parsed fs; any
// other argument count is a usage error.
func traceArg(fs *flag.FlagSet) string {
	if fs.NArg() != 1 {
		cliutil.Usagef("want exactly one trace file argument, got %d", fs.NArg())
	}
	return fs.Arg(0)
}

// loadTrace opens and fully decodes the trace file at path. Every command
// that reads a trace goes through it.
func loadTrace(path string) (trace.Meta, []trace.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.Meta{}, nil, err
	}
	defer f.Close()
	rd, err := trace.NewReader(f)
	if err != nil {
		return trace.Meta{}, nil, err
	}
	evs, err := rd.ReadAll()
	if err != nil {
		return trace.Meta{}, nil, err
	}
	return rd.Meta(), evs, nil
}

// filterFlags registers the shared filter flags on fs and returns a
// closure resolving them to a trace.Filter once parsed.
func filterFlags(fs *flag.FlagSet) func(meta trace.Meta) (trace.Filter, error) {
	var (
		core   = fs.Int("core", -1, "restrict to one core")
		ar     = fs.String("ar", "", "restrict to one atomic region (name or id)")
		reason = fs.String("reason", "", "restrict aborts to one reason (e.g. memory-conflict)")
		from   = fs.Uint64("from", 0, "restrict to ticks >= from")
		to     = fs.Uint64("to", 0, "restrict to ticks < to (0 = unbounded)")
		kind   = fs.String("kind", "", "restrict to one event kind (e.g. lock, abort, commit)")
	)
	return func(meta trace.Meta) (trace.Filter, error) {
		f := trace.NewFilter()
		f.Core = *core
		f.From = sim.Tick(*from)
		f.To = sim.Tick(*to)
		if *ar != "" {
			id := -1
			if n, err := strconv.Atoi(*ar); err == nil {
				id = n
			} else {
				for pid, name := range meta.ARNames {
					if name == *ar {
						id = pid
						break
					}
				}
			}
			if id < 0 {
				return f, fmt.Errorf("unknown atomic region %q (known: %s)", *ar, knownARs(meta))
			}
			f.ProgID = id
		}
		if *reason != "" {
			r, ok := htm.ParseAbortReason(*reason)
			if !ok {
				return f, fmt.Errorf("unknown abort reason %q", *reason)
			}
			f.Reason = r
			// Reason filtering implies abort events only, unless -kind
			// overrides it.
			if *kind == "" {
				f.Kinds = map[trace.Kind]bool{trace.KindAttemptEnd: true}
			}
		}
		if *kind != "" {
			k, ok := trace.KindFromString(*kind)
			if !ok {
				return f, fmt.Errorf("unknown event kind %q", *kind)
			}
			f.Kinds = map[trace.Kind]bool{k: true}
		}
		return f, nil
	}
}

func knownARs(meta trace.Meta) string {
	ids := make([]int, 0, len(meta.ARNames))
	for id := range meta.ARNames {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	names := make([]string, 0, len(ids))
	for _, id := range ids {
		names = append(names, meta.ARNames[id])
	}
	return strings.Join(names, ", ")
}

// cmdSummary prints headline counts. The commit, abort, and per-AR tallies
// come from trace.BuildProfile, so they match profile and the run's own
// statistics.
func cmdSummary(args []string) error {
	fs := flag.NewFlagSet("cleartrace summary", flag.ExitOnError)
	fs.Parse(args)
	meta, evs, err := loadTrace(traceArg(fs))
	if err != nil {
		return err
	}
	p := trace.BuildProfile(meta, evs)
	fmt.Printf("trace            %s\n", fs.Arg(0))
	fmt.Printf("benchmark        %s   config %s   cores %d   seed %d\n",
		meta.Benchmark, meta.Config, meta.Cores, meta.Seed)
	fmt.Printf("events           %d   last tick %d\n", len(evs), uint64(p.LastTick))
	kinds := make(map[trace.Kind]int)
	for _, e := range evs {
		kinds[e.Kind]++
	}
	fmt.Println("events by kind:")
	for k := trace.KindInvocationStart; k < trace.NumKinds; k++ {
		if kinds[k] > 0 {
			fmt.Printf("  %-14s %8d\n", k, kinds[k])
		}
	}
	fmt.Println("commits by mode:")
	for m := stats.CommitMode(0); m < stats.NumCommitModes; m++ {
		if n := p.CommitsByMode[m]; n > 0 {
			fmt.Printf("  %-14s %8d\n", m, n)
		}
	}
	fmt.Println("aborts by reason:")
	for _, r := range sortedReasons(p.AbortsByReason) {
		fmt.Printf("  %-18s %8d\n", r, p.AbortsByReason[r])
	}
	fmt.Println("per atomic region:")
	for _, a := range p.ARs {
		fmt.Printf("  %-28s attempts %6d  commits %6d  aborts %6d  ticks %10d  lock-wait %8d\n",
			a.Name, a.Attempts, a.Commits, a.Aborts, uint64(a.CommittedTicks+a.AbortedTicks), uint64(a.LockWaitTicks))
	}
	return nil
}

// cmdDump prints filtered events as text. A filter naming an unknown
// reason, kind or atomic region is a usage error.
func cmdDump(args []string) error {
	fs := flag.NewFlagSet("cleartrace dump", flag.ExitOnError)
	mkFilter := filterFlags(fs)
	fs.Parse(args)
	meta, evs, err := loadTrace(traceArg(fs))
	if err != nil {
		return err
	}
	f, err := mkFilter(meta)
	if err != nil {
		cliutil.Usage(err)
	}
	evs = trace.FilterEvents(evs, meta.Cores, f)
	return trace.WriteText(os.Stdout, meta, evs)
}

// cmdTimeline prints reconstructed attempt spans.
func cmdTimeline(args []string) error {
	fs := flag.NewFlagSet("cleartrace timeline", flag.ExitOnError)
	core := fs.Int("core", -1, "restrict to one core")
	fs.Parse(args)
	meta, evs, err := loadTrace(traceArg(fs))
	if err != nil {
		return err
	}
	tl := trace.BuildTimeline(meta, evs)
	for _, s := range tl.Spans {
		if *core >= 0 && s.Core != *core {
			continue
		}
		line := fmt.Sprintf("[%8d..%8d] core %2d %-24s attempt %d %-10s -> %s",
			uint64(s.Start), uint64(s.End), s.Core, meta.ARName(s.ProgID),
			s.Attempt, s.StartMode, s.Outcome)
		if s.Outcome == trace.OutcomeAbort {
			line += fmt.Sprintf(" (%s, next %s)", s.Reason, s.NextMode)
		}
		fmt.Println(line)
		for _, w := range s.Waits {
			state := "gave up"
			if w.Acquired {
				state = "acquired"
			}
			holder := "?"
			if w.Holder >= 0 {
				holder = fmt.Sprint(w.Holder)
			}
			fmt.Printf("    wait [%8d..%8d] line %s held by core %s (%s)\n",
				uint64(w.Start), uint64(w.End), w.Line, holder, state)
		}
	}
	return nil
}

// cmdExport writes Perfetto JSON or CSV.
func cmdExport(args []string) error {
	fs := flag.NewFlagSet("cleartrace export", flag.ExitOnError)
	var (
		format   = fs.String("format", "perfetto", "perfetto | csv | events-csv")
		out      = fs.String("o", "", "output file (default stdout)")
		interval = fs.Uint64("interval", 0, "also embed counter samples of this tick width (perfetto)")
	)
	fs.Parse(args)
	switch *format {
	case "perfetto", "csv", "events-csv":
	default:
		cliutil.Usagef("unknown format %q (want perfetto, csv or events-csv)", *format)
	}
	meta, evs, err := loadTrace(traceArg(fs))
	if err != nil {
		return err
	}
	var samples []trace.IntervalSample
	if *format == "perfetto" {
		if samples, err = trace.SampleIntervals(meta, evs, sim.Tick(*interval)); err != nil {
			return err
		}
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "perfetto":
		tl := trace.BuildTimeline(meta, evs)
		return trace.WritePerfetto(w, tl, samples)
	case "csv":
		tl := trace.BuildTimeline(meta, evs)
		return trace.WriteSpanCSV(w, tl)
	}
	return trace.WriteEventCSV(w, meta, evs)
}

// cmdMetrics prints interval samples as CSV.
func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("cleartrace metrics", flag.ExitOnError)
	interval := fs.Uint64("interval", 10_000, "sample interval width in ticks")
	fs.Parse(args)
	if *interval == 0 {
		cliutil.Usagef("-interval must be > 0")
	}
	meta, evs, err := loadTrace(traceArg(fs))
	if err != nil {
		return err
	}
	samples, err := trace.SampleIntervals(meta, evs, sim.Tick(*interval))
	if err != nil {
		return err
	}
	return trace.WriteIntervalCSV(os.Stdout, samples)
}

// verifyIntervals bounds the interval samples verify's Perfetto check
// emits, so its cost follows the trace's events, not its last tick.
const verifyIntervals = 4096

// verifyWidth is the sample width of verify's Perfetto check for a trace
// ending at tick last: the default 10,000 ticks, widened when that would
// need more than verifyIntervals samples (from tick 40,960,000 on).
func verifyWidth(last sim.Tick) sim.Tick {
	return max(10_000, last/verifyIntervals+1)
}

// cmdVerify validates a trace end to end: header decodes, every record is
// well-formed and non-decreasing in tick, the timeline reconstructs, and
// the Perfetto export parses as trace-event JSON. Exit status 0 means the
// file passed; CI uses this as the round-trip gate.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("cleartrace verify", flag.ExitOnError)
	fs.Parse(args)
	meta, evs, err := loadTrace(traceArg(fs))
	if err != nil {
		return err
	}
	var last sim.Tick
	for i, e := range evs {
		if e.Tick < last {
			return fmt.Errorf("record %d: tick %d < previous %d (stream not time-ordered)", i, e.Tick, last)
		}
		last = e.Tick
		if int(e.Core) >= meta.Cores && (e.Kind != trace.KindFault || e.Core != trace.NoCore) {
			return fmt.Errorf("record %d: core %d out of range (header says %d cores)", i, e.Core, meta.Cores)
		}
	}
	tl := trace.BuildTimeline(meta, evs)
	open := 0
	for _, s := range tl.Spans {
		if s.Outcome == trace.OutcomeOpen {
			open++
		}
	}
	// Round-trip the Perfetto export through the JSON decoder and check the
	// trace-event schema shape.
	samples, err := trace.SampleIntervals(meta, evs, verifyWidth(last))
	if err != nil {
		return err
	}
	var buf strings.Builder
	if err := trace.WritePerfetto(&buf, tl, samples); err != nil {
		return fmt.Errorf("perfetto export: %w", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			Pid   *int   `json:"pid"`
			Tid   *int   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		return fmt.Errorf("perfetto export is not valid JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("perfetto export has no traceEvents")
	}
	for i, te := range doc.TraceEvents {
		if te.Name == "" || te.Phase == "" || te.Pid == nil || te.Tid == nil {
			return fmt.Errorf("perfetto event %d missing required fields (name/ph/pid/tid)", i)
		}
		switch te.Phase {
		case "X", "M", "C":
		default:
			return fmt.Errorf("perfetto event %d has unexpected phase %q", i, te.Phase)
		}
	}
	// CSV exports must render without error.
	var csvBuf strings.Builder
	if err := trace.WriteSpanCSV(&csvBuf, tl); err != nil {
		return fmt.Errorf("span CSV export: %w", err)
	}
	if err := trace.WriteEventCSV(&csvBuf, meta, evs); err != nil {
		return fmt.Errorf("event CSV export: %w", err)
	}
	fmt.Printf("ok: %d events, %d spans (%d open), %d perfetto events, last tick %d\n",
		len(evs), len(tl.Spans), open, len(doc.TraceEvents), uint64(tl.LastTick))
	return nil
}
