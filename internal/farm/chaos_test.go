package farm

import (
	"bytes"
	"hash/fnv"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/runstore"
)

// chaosExec wraps the real executor with deterministic fault injection: the
// first execution of every third spec (by key hash) panics mid-job, and the
// poison seed panics on every attempt. Shared across server generations so a
// key that already paid its injected crash does not crash again after a
// restart.
type chaosExec struct {
	mu       sync.Mutex
	attempts map[string]int
	panicked int
}

const poisonSeed = 999

func (c *chaosExec) run(p harness.RunParams) (*harness.RunResult, *harness.RunFailure) {
	if p.Seed == poisonSeed {
		panic("injected: poison spec crashes every attempt")
	}
	key := p.Spec().Key()
	c.mu.Lock()
	c.attempts[key]++
	first := c.attempts[key] == 1
	c.mu.Unlock()
	h := fnv.New64a()
	h.Write([]byte(key))
	if first && h.Sum64()%3 == 0 {
		c.mu.Lock()
		c.panicked++
		c.mu.Unlock()
		panic("injected: worker crash on first execution")
	}
	// Pad each execution so the mid-sweep kill lands while work is genuinely
	// in flight on any host; the pad changes nothing the digest sees.
	time.Sleep(20 * time.Millisecond)
	return harness.RunChecked(p)
}

// TestFarmChaosCampaign is the end-to-end chaos drill the farm exists for:
// a campaign runs against a server with injected worker panics, the server
// is killed mid-sweep, a new server over the same store picks the campaign
// back up, and the finished remote matrix renders CSVs byte-identical to an
// uninterrupted local run — with the poisoned spec sitting in the quarantine
// report instead of wedging anything.
func TestFarmChaosCampaign(t *testing.T) {
	opts := harness.MatrixOptions{
		Benchmarks:   []string{"hashmap", "stack"},
		Configs:      []harness.ConfigID{harness.ConfigB, harness.ConfigC},
		RetryLimits:  []int{1, 2},
		Seeds:        []uint64{1, 2},
		Cores:        4,
		OpsPerThread: 8,
		MaxTicks:     50_000_000,
		Parallelism:  4,
	}

	// The ground truth: the same matrix, executed locally, no farm anywhere.
	local, err := harness.RunMatrix(opts)
	if err != nil {
		t.Fatal(err)
	}
	var localCSV, localFails bytes.Buffer
	if err := local.WriteCSV(&localCSV); err != nil {
		t.Fatal(err)
	}
	if err := local.WriteFailuresCSV(&localFails); err != nil {
		t.Fatal(err)
	}
	if len(local.Failures) != 0 {
		t.Fatalf("local reference run has failures: %v", local.Failures)
	}

	dir := t.TempDir()
	store, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	chaos := &chaosExec{attempts: map[string]int{}}
	cfg := Config{
		Workers: 4,
		Retry:   RetryPolicy{MaxRetries: 2, InitialBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond, JitterFrac: -1},
		Store:   store,
		Exec:    chaos.run,
	}

	// Generation A: submit every run of the campaign without waiting, let
	// part of it finish under injected panics, then kill the server cold.
	srvA := NewServer(cfg)
	tsA := httptest.NewServer(srvA.Handler())
	cA := NewClient(tsA.URL)
	cA.PollInterval = time.Millisecond
	jobs := make(map[string]bool)
	for _, bench := range opts.Benchmarks {
		for _, config := range opts.Configs {
			for _, retry := range opts.RetryLimits {
				for _, seed := range opts.Seeds {
					st, err := cA.Submit(harness.RunParams{
						Benchmark: bench, Config: config, Cores: opts.Cores,
						OpsPerThread: opts.OpsPerThread, RetryLimit: retry,
						Seed: seed, MaxTicks: opts.MaxTicks,
					})
					if err != nil {
						t.Fatal(err)
					}
					jobs[st.Key] = true
				}
			}
		}
	}
	total := len(jobs)
	if total != 16 {
		t.Fatalf("campaign submitted %d distinct jobs, want 16", total)
	}
	deadline := time.Now().Add(30 * time.Second)
	for srvA.Stats().Done < total/3 {
		if time.Now().After(deadline) {
			t.Fatalf("campaign never reached %d done jobs: %+v", total/3, srvA.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	tsA.Close()
	srvA.Close() // kill: queued and backing-off jobs are abandoned
	doneAtKill := srvA.Stats().Done
	if doneAtKill >= total {
		t.Skipf("campaign finished before the kill (%d/%d) — host too fast for a mid-sweep kill", doneAtKill, total)
	}

	// Generation B: a fresh server over the same store. Reopen the store the
	// way a restarted process would.
	store2, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store2
	srvB := NewServer(cfg)
	defer srvB.Close()
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	cB := NewClient(tsB.URL)
	cB.PollInterval = time.Millisecond
	cB.WaitTimeout = 60 * time.Second

	// Re-run the campaign through the farm seam: RunMatrix's aggregation and
	// CSV code, the farm's execution.
	remoteOpts := opts
	remoteOpts.Runner = cB.Runner()
	remote, err := harness.RunMatrix(remoteOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote.Failures) != 0 {
		t.Fatalf("resumed remote run has failures: %v", remote.Failures)
	}
	if remote.CacheHits == 0 {
		t.Fatalf("resumed campaign reports no cache hits — the kill lost the finished cells (done at kill: %d)", doneAtKill)
	}

	var remoteCSV, remoteFails bytes.Buffer
	if err := remote.WriteCSV(&remoteCSV); err != nil {
		t.Fatal(err)
	}
	if err := remote.WriteFailuresCSV(&remoteFails); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(localCSV.Bytes(), remoteCSV.Bytes()) {
		t.Fatalf("remote CSV differs from uninterrupted local run:\n--- local ---\n%s\n--- remote ---\n%s",
			localCSV.String(), remoteCSV.String())
	}
	if !bytes.Equal(localFails.Bytes(), remoteFails.Bytes()) {
		t.Fatal("failure CSVs differ between local and remote runs")
	}

	// The poison spec: exhausts its retry budget on generation B and lands in
	// the quarantine report without touching the campaign above.
	poison := quickSpec(poisonSeed)
	st, err := cB.Submit(poison)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := cB.Wait(st.Key)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateQuarantined || fin.Attempts != 3 || fin.Kind != harness.FailPanic {
		t.Fatalf("poison spec: state=%s attempts=%d kind=%q, want quarantined after 3 attempts, kind %q",
			fin.State, fin.Attempts, fin.Kind, harness.FailPanic)
	}
	// A remote sweep's failure keeps the kind the farm reported.
	if _, rf, _ := cB.Runner()(poison); rf == nil || rf.Kind != harness.FailPanic {
		t.Fatalf("remote runner failure %+v, want kind %q", rf, harness.FailPanic)
	}
	q, err := cB.QuarantineReport()
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 1 || q[0].Key != st.Key || !strings.Contains(q[0].Failure, "worker panic") {
		t.Fatalf("quarantine report = %+v, want exactly the poison spec with its panic reason", q)
	}

	if chaos.panicked == 0 {
		t.Log("note: no key hashed into the injected-panic class this run")
	}
}
