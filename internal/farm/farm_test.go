package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/runstore"
	"repro/internal/stats"
)

// quickSpec is a tiny valid run; tests pair it with fake executors, so only
// its validity and key identity matter, not its simulated cost.
func quickSpec(seed uint64) harness.RunParams {
	return harness.RunParams{
		Benchmark:    "hashmap",
		Config:       harness.ConfigC,
		Cores:        2,
		OpsPerThread: 4,
		RetryLimit:   2,
		Seed:         seed,
		MaxTicks:     1_000_000,
	}
}

// okExec fabricates a successful result without simulating.
func okExec(p harness.RunParams) (*harness.RunResult, *harness.RunFailure) {
	return &harness.RunResult{
		Params: p,
		Stats:  &stats.Run{Cycles: 42, Commits: 1},
	}, nil
}

// fastRetry keeps test retries on the microsecond scale.
func fastRetry() RetryPolicy {
	return RetryPolicy{MaxRetries: 2, InitialBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, JitterFrac: -1}
}

func TestFarmDedupInFlight(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv := NewServer(Config{
		Workers: 2,
		Retry:   fastRetry(),
		Exec: func(p harness.RunParams) (*harness.RunResult, *harness.RunFailure) {
			once.Do(func() { close(started) })
			<-release
			return okExec(p)
		},
	})
	defer srv.Close()

	st1, err := srv.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started // the job is on a worker, mid-execution
	st2, err := srv.Submit(quickSpec(1))
	if err != nil {
		t.Fatalf("duplicate submit: %v", err)
	}
	if st1.Key != st2.Key {
		t.Fatalf("identical specs got different keys: %s vs %s", st1.Key, st2.Key)
	}
	if st2.State != StateRunning {
		t.Fatalf("duplicate attached in state %s, want running", st2.State)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	fin, err := srv.WaitJob(ctx, st1.Key)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("job finished %s, want done", fin.State)
	}
	fs := srv.Stats()
	if fs.Executed != 1 {
		t.Fatalf("dedup'd spec executed %d times, want 1", fs.Executed)
	}
	if fs.DedupAttached != 1 {
		t.Fatalf("DedupAttached = %d, want 1", fs.DedupAttached)
	}
}

func TestFarmRetryThenSucceed(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	srv := NewServer(Config{
		Workers: 1,
		Retry:   fastRetry(),
		Exec: func(p harness.RunParams) (*harness.RunResult, *harness.RunFailure) {
			mu.Lock()
			calls++
			first := calls == 1
			mu.Unlock()
			if first {
				panic("injected worker crash")
			}
			return okExec(p)
		},
	})
	defer srv.Close()

	st, err := srv.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	fin, err := srv.WaitJob(ctx, st.Key)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("state %s (failure %q), want done after one retry", fin.State, fin.Failure)
	}
	if fin.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", fin.Attempts)
	}
	rec, err := harness.DecodeCacheRecord(fin.Result)
	if err != nil {
		t.Fatalf("result payload: %v", err)
	}
	if rec.Stats.Cycles != 42 {
		t.Fatalf("decoded cycles = %d, want 42", rec.Stats.Cycles)
	}
	if fs := srv.Stats(); fs.RetriesScheduled != 1 {
		t.Fatalf("RetriesScheduled = %d, want 1", fs.RetriesScheduled)
	}
}

func TestFarmQuarantineAfterBudget(t *testing.T) {
	srv := NewServer(Config{
		Workers: 2,
		Retry:   fastRetry(), // MaxRetries 2 -> 3 attempts total
		Exec: func(p harness.RunParams) (*harness.RunResult, *harness.RunFailure) {
			if p.Seed == 13 {
				panic("injected: this spec always crashes")
			}
			return okExec(p)
		},
	})
	defer srv.Close()

	bad, err := srv.Submit(quickSpec(13))
	if err != nil {
		t.Fatal(err)
	}
	good, err := srv.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	finBad, err := srv.WaitJob(ctx, bad.Key)
	if err != nil {
		t.Fatal(err)
	}
	finGood, err := srv.WaitJob(ctx, good.Key)
	if err != nil {
		t.Fatal(err)
	}
	if finGood.State != StateDone {
		t.Fatalf("healthy spec ended %s — the poisoned one must not take the farm down", finGood.State)
	}
	if finBad.State != StateQuarantined {
		t.Fatalf("poisoned spec ended %s, want quarantined", finBad.State)
	}
	if finBad.Attempts != 3 {
		t.Fatalf("poisoned spec got %d attempts, want 3 (1 + 2 retries)", finBad.Attempts)
	}
	if !strings.Contains(finBad.Failure, "worker panic") {
		t.Fatalf("quarantine reason %q does not name the panic", finBad.Failure)
	}
	q := srv.Quarantine()
	if len(q) != 1 || q[0].Key != bad.Key {
		t.Fatalf("quarantine report = %+v, want exactly the poisoned spec", q)
	}

	// The breaker is open: a resubmission attaches to the quarantine record
	// instead of re-entering the queue.
	again, err := srv.Submit(quickSpec(13))
	if err != nil {
		t.Fatal(err)
	}
	if again.State != StateQuarantined {
		t.Fatalf("resubmitted poisoned spec state %s, want quarantined", again.State)
	}
	if fs := srv.Stats(); fs.Executed != 4 {
		t.Fatalf("executed %d runs, want 4 (3 poisoned attempts + 1 healthy)", fs.Executed)
	}
}

func TestFarmNonRetryableFailsImmediately(t *testing.T) {
	srv := NewServer(Config{
		Workers: 1,
		Retry:   fastRetry(),
		Exec: func(p harness.RunParams) (*harness.RunResult, *harness.RunFailure) {
			return nil, p.Failure(harness.FailOracle, "check: 1 invariant violation(s)")
		},
	})
	defer srv.Close()

	st, err := srv.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	fin, err := srv.WaitJob(ctx, st.Key)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateFailed {
		t.Fatalf("oracle violation ended %s, want failed (never retried)", fin.State)
	}
	if fin.Attempts != 1 {
		t.Fatalf("oracle violation got %d attempts, want exactly 1", fin.Attempts)
	}
	if fin.Retryable || fin.Kind != harness.FailOracle {
		t.Fatalf("oracle violation reported kind %q, retryable %v; want %q, not retryable", fin.Kind, fin.Retryable, harness.FailOracle)
	}
}

func TestFarmDrain(t *testing.T) {
	var mu sync.Mutex
	calls := map[uint64]int{}
	srv := NewServer(Config{
		Workers: 2,
		// Retries nominally wait 10s — drain must promote them instead.
		Retry: RetryPolicy{MaxRetries: 1, InitialBackoff: 10 * time.Second, MaxBackoff: 10 * time.Second, JitterFrac: -1},
		Exec: func(p harness.RunParams) (*harness.RunResult, *harness.RunFailure) {
			mu.Lock()
			calls[p.Seed]++
			first := calls[p.Seed] == 1
			mu.Unlock()
			if p.Seed == 7 && first {
				panic("injected: fail once, succeed on the drain-promoted retry")
			}
			time.Sleep(5 * time.Millisecond)
			return okExec(p)
		},
	})
	defer srv.Close()

	for _, seed := range []uint64{1, 2, 3, 7} {
		if _, err := srv.Submit(quickSpec(seed)); err != nil {
			t.Fatal(err)
		}
	}
	// Let the seed-7 job reach its 10s backoff before draining.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Backoff == 0 {
		if time.Now().After(deadline) {
			t.Fatal("seed-7 job never entered backoff")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if _, err := srv.Submit(quickSpec(99)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: err = %v, want ErrDraining", err)
	}
	// A duplicate of accepted work still attaches while draining.
	if st, err := srv.Submit(quickSpec(1)); err != nil || st.State != StateDone {
		t.Fatalf("duplicate during drain: st=%+v err=%v, want done", st, err)
	}
	fs := srv.Stats()
	if fs.Done != 4 || fs.Queued+fs.Running+fs.Backoff != 0 {
		t.Fatalf("after drain: %+v, want 4 done and an empty queue", fs)
	}
}

func TestFarmStoreResume(t *testing.T) {
	store := runstore.NewMem()
	a := NewServer(Config{Workers: 1, Retry: fastRetry(), Store: store, Exec: okExec})
	st, err := a.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	fin, err := a.WaitJob(ctx, st.Key)
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	if fin.CacheHit {
		t.Fatal("first execution reported a cache hit")
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d records after first run, want 1", store.Len())
	}

	// A fresh server over the same store serves the spec without executing:
	// this lookup is exactly what makes a killed farm resume.
	b := NewServer(Config{Workers: 1, Retry: fastRetry(), Store: store,
		Exec: func(p harness.RunParams) (*harness.RunResult, *harness.RunFailure) {
			t.Error("resumed server re-executed a memoized spec")
			return okExec(p)
		}})
	defer b.Close()
	st2, err := b.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	fin2, err := b.WaitJob(ctx, st2.Key)
	if err != nil {
		t.Fatal(err)
	}
	if fin2.State != StateDone || !fin2.CacheHit {
		t.Fatalf("resumed job: state=%s hit=%v, want done from cache", fin2.State, fin2.CacheHit)
	}
	if string(fin2.Result) != string(fin.Result) {
		t.Fatal("resumed result bytes differ from the original execution")
	}
	if hits := b.Stats().CacheHits; hits != 1 {
		t.Fatalf("farm cache hits = %d, want 1", hits)
	}
}

func TestFarmHTTPAndClient(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Instruments()
	srv := NewServer(Config{Workers: 2, Retry: fastRetry(), Store: runstore.NewMem(),
		Metrics: reg, Exec: okExec})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := NewClient(ts.URL)
	c.PollInterval = time.Millisecond
	c.WaitTimeout = 5 * time.Second

	jobs := make(map[string]bool)
	for _, cfg := range []harness.ConfigID{harness.ConfigB, harness.ConfigC} {
		for _, seed := range []uint64{1, 2} {
			p := quickSpec(seed)
			p.Config = cfg
			st, err := c.Submit(p)
			if err != nil {
				t.Fatal(err)
			}
			jobs[st.Key] = true
		}
	}
	if len(jobs) != 4 {
		t.Fatalf("4 submissions made %d distinct jobs, want 4", len(jobs))
	}
	for key := range jobs {
		fin, err := c.Wait(key)
		if err != nil {
			t.Fatal(err)
		}
		if fin.State != StateDone {
			t.Fatalf("job %s ended %s: %s", key, fin.State, fin.Failure)
		}
		if _, err := harness.DecodeCacheRecord(fin.Result); err != nil {
			t.Fatalf("job %s result: %v", key, err)
		}
	}
	fs, err := c.FarmStats()
	if err != nil {
		t.Fatal(err)
	}
	if fs.Done != 4 || fs.Total() != 4 {
		t.Fatalf("farm stats %+v, want 4 done", fs)
	}
	q, err := c.QuarantineReport()
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 0 {
		t.Fatalf("quarantine report has %d entries, want 0", len(q))
	}
	var snap metrics.Snapshot
	if err := c.do(http.MethodGet, "/metrics.json", nil, &snap); err != nil {
		t.Fatalf("metrics endpoint: %v", err)
	}
	if len(snap.Counters) == 0 {
		t.Fatal("/metrics.json served no counters")
	}
	if _, err := c.Status("no-such-key"); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown key: err = %v, want terminal 404", err)
	}
}

// droppingTransport fails every other round trip at the connection level —
// the wire the chaos spec's "dropped connections" clause is about.
type droppingTransport struct {
	mu   sync.Mutex
	n    int
	next http.RoundTripper
}

func (d *droppingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	d.mu.Lock()
	d.n++
	drop := d.n%2 == 1
	d.mu.Unlock()
	if drop {
		return nil, fmt.Errorf("injected: connection reset by peer")
	}
	return d.next.RoundTrip(r)
}

func TestClientSurvivesDroppedConnections(t *testing.T) {
	srv := NewServer(Config{Workers: 1, Retry: fastRetry(), Exec: okExec})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := NewClient(ts.URL)
	c.HTTP = &http.Client{Transport: &droppingTransport{next: http.DefaultTransport}}
	c.RetryDelay = time.Millisecond
	c.PollInterval = time.Millisecond
	c.WaitTimeout = 5 * time.Second

	st, err := c.Submit(quickSpec(1))
	if err != nil {
		t.Fatalf("submit through flaky wire: %v", err)
	}
	fin, err := c.Wait(st.Key)
	if err != nil {
		t.Fatalf("wait through flaky wire: %v", err)
	}
	if fin.State != StateDone {
		t.Fatalf("job ended %s, want done", fin.State)
	}
}

// TestRemoteMatrixCarriesFaultPlan runs a faulted matrix through the farm
// with the real executor. The remote CSV must equal the local one, and the
// farm must key every job exactly as the client does: a wire form that
// dropped the fault plan would run the cells clean, under other keys.
func TestRemoteMatrixCarriesFaultPlan(t *testing.T) {
	plan, err := fault.PresetPlan("default")
	if err != nil {
		t.Fatal(err)
	}
	opts := harness.MatrixOptions{
		Benchmarks:   []string{"hashmap", "mwobject"},
		Configs:      []harness.ConfigID{harness.ConfigB, harness.ConfigC},
		RetryLimits:  []int{2},
		Seeds:        []uint64{1, 2},
		Cores:        4,
		OpsPerThread: 16,
		MaxTicks:     50_000_000,
		Parallelism:  2,
	}
	csvOf := func(opts harness.MatrixOptions) string {
		t.Helper()
		m, err := harness.RunMatrix(opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Failures) != 0 {
			t.Fatalf("matrix has failures: %v", m.Failures)
		}
		var buf bytes.Buffer
		if err := m.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	clean := csvOf(opts)
	opts.FaultPlan = plan
	local := csvOf(opts)
	if local == clean {
		t.Fatal("the default fault plan left the matrix unchanged; the test cannot tell a dropped plan")
	}

	srv := NewServer(Config{Workers: 2, Retry: fastRetry(), Store: runstore.NewMem()})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	c.PollInterval = time.Millisecond
	c.WaitTimeout = time.Minute

	var mu sync.Mutex
	var keys []string
	runner := c.Runner()
	remoteOpts := opts
	remoteOpts.Runner = func(p harness.RunParams) (*harness.RunResult, *harness.RunFailure, bool) {
		mu.Lock()
		keys = append(keys, p.Spec().Key())
		mu.Unlock()
		return runner(p)
	}
	if remote := csvOf(remoteOpts); remote != local {
		t.Fatalf("remote CSV differs from local:\n--- local ---\n%s--- remote ---\n%s", local, remote)
	}
	for _, key := range keys {
		if st, ok := srv.Status(key); !ok || st.State != StateDone {
			t.Errorf("client key %.12s: farm job found=%v state=%s", key, ok, st.State)
		}
	}
	if total := srv.Stats().Total(); total != len(keys) {
		t.Fatalf("farm holds %d jobs for %d client runs", total, len(keys))
	}
}

// TestFarmWireCompatibility pins the wire against the earlier flat job
// form: that body still keys to TestRunSpecGolden's key, and a default run
// encodes to it plus an empty policy member. A status body without a kind,
// as an older server sends it, decodes to the zero kind.
func TestFarmWireCompatibility(t *testing.T) {
	const body = `{"benchmark":"hashmap","config":"C","cores":32,"ops_per_thread":120,"retry_limit":4,"seed":1,"max_ticks":400000000}`
	const wantKey = "97052b078269df342b86310f7a3c4d30450c962f91b9e7b4f35e01d51dc8ba07"
	srv := NewServer(Config{Workers: 1, Retry: fastRetry(), Exec: okExec})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Key != wantKey {
		t.Fatalf("flat job body keyed to %s, want %s", st.Key, wantKey)
	}
	enc, err := json.Marshal(harness.DefaultRunParams("hashmap", harness.ConfigC))
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.TrimSuffix(body, "}") + `,"policy":""}`; string(enc) != want {
		t.Fatalf("default run encodes as\n%s\nwant\n%s", enc, want)
	}
	var old JobStatus
	if err := json.Unmarshal([]byte(`{"key":"`+wantKey+`","spec":`+body+`,"state":"failed","attempts":1,"failure":"check: 1 invariant violation(s)"}`), &old); err != nil {
		t.Fatal(err)
	}
	if old.State != StateFailed || old.Kind != harness.FailOther {
		t.Fatalf("older status body decodes to state %s, kind %q; want failed, the zero kind", old.State, old.Kind)
	}
}

// TestFarmRejectsMalformed: every malformed submission is a 400 and
// enqueues nothing — in particular a core count, invocation count or table
// size that would exhaust memory in workload setup, where no recover can
// catch the fatal error.
func TestFarmRejectsMalformed(t *testing.T) {
	srv := NewServer(Config{Workers: 1, Retry: fastRetry(), Exec: okExec})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const job = `"benchmark":"hashmap","config":"C","ops_per_thread":4,"retry_limit":2,"seed":1`
	for _, tc := range []struct{ path, body string }{
		{"/jobs", `{` + job + `,"cores":2,"config":"Q"}`},
		{"/jobs", `{` + job + `,"cores":2,"policy":"bogus"}`},
		{"/jobs", `{` + job + `,"cores":2,"fault_plan":{"NackRate":2}}`},
		{"/jobs", `{` + job + `,"cores":0}`},
		{"/jobs", `{` + job + `,"cores":65}`},
		{"/jobs", `{` + job + `,"cores":268435456}`},
		{"/jobs", `{` + job + `,"cores":2,"retry_limit":0}`},
		{"/jobs", `{` + job + `,"cores":2,"ops_per_thread":0}`},
		{"/jobs", `{` + job + `,"cores":2,"benchmark":""}`},
		{"/jobs", `{` + job + `,"cores":2,"benchmark":"nosuch"}`},
		{"/jobs", `{` + job + `,"cores":2,"fault_plans":{}}`},
		{"/jobs", `{` + job},
		// Each of these used to kill the server out of memory in setup.
		{"/jobs", `{` + job + `,"cores":2,"ops_per_thread":1099511627776}`},
		{"/jobs", `{` + job + `,"cores":4,"ops_per_thread":4611686018427387904}`},
		{"/jobs", `{` + job + `,"cores":2,"ert_entries":1099511627776}`},
		{"/jobs", `{` + job + `,"cores":2,"crt_entries":1099511627776,"crt_ways":1}`},
		// Fault magnitudes past the tick cap: the first panicked the run's
		// delay draw, the second wrapped each stall to one tick less.
		{"/jobs", `{` + job + `,"cores":4,"fault_plan":{"EventDelayRate":1,"EventDelayMax":9223372036854775808}}`},
		{"/jobs", `{` + job + `,"cores":4,"fault_plan":{"StallRate":1,"StallTicks":18446744073709551615}}`},
		// These were keyed: a body is one JSON value, and member names
		// match exactly, nested ones too.
		{"/jobs", `{` + job + `,"cores":2}{"cores":64} trailing garbage`},
		{"/jobs", `{` + job + `,"cores":2} x`},
		{"/jobs", `{"BENCHMARK":"hashmap","config":"C","CORES":2,"ops_per_thread":4,"retry_limit":2,"seed":1}`},
		{"/jobs", `{` + job + `,"cores":2,"fault_plan":{"nackrate":0.1}}`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %.200s: HTTP %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
	}
	if total := srv.Stats().Total(); total != 0 {
		t.Fatalf("malformed submissions enqueued %d jobs", total)
	}
}
