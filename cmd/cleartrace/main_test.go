package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/runstore"
)

// TestMain lets the test binary stand in for the tool: with
// CLEARTRACE_RUN_MAIN set, it runs main on its arguments instead of the
// tests.
func TestMain(m *testing.M) {
	if os.Getenv("CLEARTRACE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes cleartrace with args in dir and returns its stdout, stderr
// and exit status.
func run(t *testing.T, dir string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CLEARTRACE_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// record writes the trace of hashmap/C, 4 cores × 24 ops, to dir/name.
func record(t *testing.T, dir, name, seed string) {
	t.Helper()
	if _, stderr, code := run(t, dir, "record", "-bench", "hashmap", "-config", "C",
		"-cores", "4", "-ops", "24", "-seed", seed, "-o", name); code != 0 {
		t.Fatalf("record exited %d: %s", code, stderr)
	}
}

// TestExitStatus pins the exit policy of internal/cliutil: bad flags or
// arguments exit 2 before any output file is created, and unreadable or
// corrupt input exits 1.
func TestExitStatus(t *testing.T) {
	overflow, err := filepath.Abs("../../internal/trace/testdata/cores-overflow.trace")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	record(t, dir, "a.trace", "3")
	for _, tc := range []struct {
		args   string
		code   int
		stderr string // substring the diagnostic must contain
		absent string // output file that must not exist afterwards
	}{
		{args: "summary a.trace", code: 0},
		{args: "profile -json a.trace", code: 0},
		{args: "diff a.trace a.trace", code: 0},
		{args: "", code: 2},
		{args: "bogus", code: 2},
		{args: "profile -bogus a.trace", code: 2},
		{args: "record extra", code: 2, absent: "run.trace"},
		{args: "record -config Z -o z.trace", code: 2, absent: "z.trace"},
		{args: "summary", code: 2},
		{args: "dump a.trace a.trace", code: 2},
		{args: "timeline", code: 2},
		{args: "verify", code: 2},
		{args: "metrics", code: 2},
		{args: "profile", code: 2},
		{args: "top a.trace a.trace", code: 2},
		{args: "diff a.trace", code: 2},
		{args: "export -o e.json", code: 2, absent: "e.json"},
		{args: "export -format bogus -o e.out a.trace", code: 2, absent: "e.out"},
		{args: "metrics -interval 0 a.trace", code: 2},
		{args: "dump -reason bogus a.trace", code: 2},
		{args: "dump -kind bogus a.trace", code: 2},
		{args: "dump -ar bogus a.trace", code: 2},
		{args: "summary missing.trace", code: 1},
		{args: "export -o m.json missing.trace", code: 1, absent: "m.json"},
		{args: "diff a.trace missing", code: 1},
		{args: "profile " + overflow, code: 1, stderr: "trace: header claims 2147483647 cores"},
		{args: "summary " + overflow, code: 1, stderr: "trace: header claims 2147483647 cores"},
	} {
		_, stderr, code := run(t, dir, strings.Fields(tc.args)...)
		if code != tc.code {
			t.Errorf("cleartrace %s: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr)
		}
		if !strings.Contains(stderr, tc.stderr) {
			t.Errorf("cleartrace %s: stderr %q, want it to contain %q", tc.args, stderr, tc.stderr)
		}
		if tc.absent != "" {
			if _, err := os.Stat(filepath.Join(dir, tc.absent)); err == nil {
				t.Errorf("cleartrace %s left %s behind", tc.args, tc.absent)
			}
		}
	}
}

// TestDiffTraceAgainstRecord diffs a trace against the run-store record of
// the same run, by record file and by abbreviated key: both are silent and
// exit 0. A trace of another seed differs in commit or abort rows.
func TestDiffTraceAgainstRecord(t *testing.T) {
	dir := t.TempDir()
	record(t, dir, "seed3.trace", "3")
	record(t, dir, "seed4.trace", "4")

	cache := filepath.Join(dir, "cache")
	st, err := runstore.Open(cache)
	if err != nil {
		t.Fatal(err)
	}
	p := harness.DefaultRunParams("hashmap", harness.ConfigC)
	p.Cores, p.OpsPerThread, p.Seed = 4, 24, 3
	if _, fail, hit := harness.RunCheckedCached(st, p); fail != nil || hit {
		t.Fatalf("caching the run: failure %v, hit %v", fail, hit)
	}
	key := p.Spec().Key()
	recFile := filepath.Join(cache, key[:2], key+".json")

	for _, args := range [][]string{
		{"diff", "seed3.trace", recFile},
		{"diff", recFile, "seed3.trace"},
		{"diff", "-cache-dir", cache, "seed3.trace", key[:8]},
	} {
		stdout, stderr, code := run(t, dir, args...)
		if code != 0 || stdout != "" {
			t.Errorf("cleartrace %s: exit %d, stdout %q, stderr %q; want silence and exit 0",
				strings.Join(args, " "), code, stdout, stderr)
		}
	}

	stdout, _, code := run(t, dir, "diff", "seed4.trace", recFile)
	if code != 1 {
		t.Errorf("diff against another seed exited %d, want 1", code)
	}
	if !regexp.MustCompile(`(?m)^(commits|aborts)/`).MatchString(stdout) {
		t.Errorf("diff against another seed lists no commits/ or aborts/ row:\n%s", stdout)
	}
}
