// Package cliutil centralises what the seven command-line tools (clearsim,
// clearbench, clearfuzz, clearchaos, clearinspect, clearlitmus, cleartrace)
// used to hand-roll independently: the shared flag groups (RunFlags,
// SweepFlags, TraceFlags), uniform config-string decoding through
// harness.ParseConfig, and one exit-code policy.
//
// Exit-code policy (uniform across all tools):
//
//	0  success
//	1  run failure — the tool did its job and the result is bad (a failed
//	   simulation, an invariant violation, a campaign that found a bug)
//	2  usage error — bad flags, unknown benchmark/config/preset; the run
//	   never started (this matches package flag's own convention)
//
// Fatal/Usage run the cleanups registered with OnExit (profile flushes,
// graceful shutdowns) before exiting, because os.Exit skips deferred calls.
package cliutil

import (
	"fmt"
	"os"
)

// Uniform exit codes (see the package comment).
const (
	ExitOK      = 0
	ExitFailure = 1
	ExitUsage   = 2
)

var (
	tool     = "clear"
	cleanups []func()
)

// SetTool sets the program name prefixed to every diagnostic (call first in
// main).
func SetTool(name string) { tool = name }

// OnExit registers a cleanup run by Exit/Fatal/Usage before the process
// exits, in registration order. Register anything a deferred call would
// normally handle (profile flushes, servers to shut down): os.Exit skips
// defers.
func OnExit(f func()) { cleanups = append(cleanups, f) }

// Exit runs the cleanups and exits with code.
func Exit(code int) {
	for _, f := range cleanups {
		f()
	}
	os.Exit(code)
}

// Fatal reports a run failure to stderr and exits 1.
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	Exit(ExitFailure)
}

// Fatalf is Fatal with formatting.
func Fatalf(format string, args ...any) {
	Fatal(fmt.Errorf(format, args...))
}

// Usage reports a usage error to stderr and exits 2.
func Usage(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	Exit(ExitUsage)
}

// Usagef is Usage with formatting.
func Usagef(format string, args ...any) {
	Usage(fmt.Errorf(format, args...))
}
