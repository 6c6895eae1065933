// Command cleartrace records structured simulation traces (the
// internal/trace binary event stream), inspects them, and profiles their
// contention offline.
//
// Usage:
//
//	cleartrace record -bench hashmap -config C -o run.trace   # run + record
//	cleartrace summary run.trace                              # headline counts
//	cleartrace dump [-core N] [-ar name] [-kind k] [-from T] [-to T] run.trace
//	cleartrace timeline run.trace                             # attempt spans
//	cleartrace export -format perfetto -o run.json run.trace  # Perfetto JSON
//	cleartrace export -format csv -o spans.csv run.trace      # span CSV
//	cleartrace metrics -interval 10000 run.trace              # interval CSV
//	cleartrace verify run.trace                               # schema checks
//	cleartrace profile run.trace                              # contention attribution
//	cleartrace profile -json run.trace                        # machine-readable report
//	cleartrace top -n 10 run.trace                            # hottest edges/lines/ARs only
//	cleartrace diff a.trace b.trace                           # compare two runs
//	cleartrace diff -cache-dir d 97052b 3fa9                  # compare cached runs by key prefix
//
// Flags come before the trace-file argument (standard flag parsing).
//
// Filters compose: -core restricts to one core, -ar to one atomic region
// (by name or id, with per-core attribution of lock/mem events), -reason to
// one abort reason, -from/-to to a tick window, -kind to one event kind.
//
// diff exits 0 and prints nothing when the runs agree on every compared
// metric, and exits 1 with one line per differing metric otherwise. Trace
// files and runstore record files are told apart by content (the CLRT
// magic), so the argument forms can be mixed; a mixed-kind diff compares
// the metric intersection.
//
// Exit status follows internal/cliutil: an unreadable or corrupt input
// exits 1, and a bad flag value or a wrong number of arguments exits 2
// before any output file is created.
package main

import (
	"fmt"
	"os"

	"repro/internal/cliutil"
)

func main() {
	cliutil.SetTool("cleartrace")
	if len(os.Args) < 2 {
		usage()
		cliutil.Exit(cliutil.ExitUsage)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "record":
		err = cmdRecord(args)
	case "summary":
		err = cmdSummary(args)
	case "dump":
		err = cmdDump(args)
	case "timeline":
		err = cmdTimeline(args)
	case "export":
		err = cmdExport(args)
	case "metrics":
		err = cmdMetrics(args)
	case "verify":
		err = cmdVerify(args)
	case "profile":
		err = cmdProfile(args)
	case "top":
		err = cmdTop(args)
	case "diff":
		err = cmdDiff(args)
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "cleartrace: unknown command %q\n\n", cmd)
		usage()
		cliutil.Exit(cliutil.ExitUsage)
	}
	if err != nil {
		cliutil.Fatal(err)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `cleartrace records, inspects and profiles simulation traces.

commands:
  record    run a simulation and write its binary trace
  summary   print headline event/commit/abort counts of a trace
  dump      print events as text (filterable)
  timeline  print reconstructed per-core attempt spans
  export    write Perfetto trace-event JSON or CSV
  metrics   print interval activity samples as CSV
  verify    validate a trace end to end (schema, timeline, exports)
  profile   contention report: abort attribution, hot lines, per-AR costs,
            ticks-lost-to-retry accounting (-json for machine output)
  top       only the top-N hottest edges, lines, and ARs
  diff      compare two runs (trace files or runstore records); silent
            and exit 0 when identical, one line per difference and exit 1

diff also reads a runstore record file (<cache-dir>/<aa>/<key>.json), or
with -cache-dir an abbreviated key prefix.

run 'cleartrace <command> -h' for the command's flags.
`)
}
