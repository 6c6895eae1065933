package farm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/runstore"
)

// ErrDraining is returned by Submit once Drain has begun: the server finishes
// what it has but accepts nothing new (HTTP 503 on the wire).
var ErrDraining = errors.New("farm: server is draining")

// ExecFunc executes one run; exactly one of the results is non-nil. The
// default is harness.RunChecked — the chaos harness swaps in flaky variants
// to prove the retry and quarantine machinery.
type ExecFunc func(p harness.RunParams) (*harness.RunResult, *harness.RunFailure)

// Config assembles a farm server.
type Config struct {
	// Store is the shared result store (nil = no memoization: every job
	// executes, nothing survives a restart). With a store, a killed server
	// restarted over the same backend resumes any campaign: completed cells
	// are cache hits, only missing ones recompute.
	Store runstore.Backend
	// Workers sizes the execution pool. Default GOMAXPROCS.
	Workers int
	// Retry is the bounded-retry policy for retryable failures.
	Retry RetryPolicy
	// JobDeadline bounds each job's host wall time (0 = unbounded); an
	// expiry is a retryable RunFailure, not a wedged worker.
	JobDeadline time.Duration
	// Metrics, when non-nil, is attached to every executed run and served
	// at /metrics (Prometheus text) and /metrics.json.
	Metrics *metrics.Registry
	// Exec overrides the run executor (tests, chaos injection).
	Exec ExecFunc
}

// job is the server-side record of one submitted run.
type job struct {
	key    string
	params harness.RunParams

	state     State
	attempts  int
	cacheHit  bool
	result    []byte
	failure   string
	retryable bool
	backoff   time.Duration
	timer     *time.Timer
	done      chan struct{} // closed on terminal state
}

func (j *job) statusLocked() JobStatus {
	st := JobStatus{
		Key:       j.key,
		Spec:      j.params,
		State:     j.state,
		Attempts:  j.attempts,
		CacheHit:  j.cacheHit,
		Failure:   j.failure,
		Retryable: j.retryable,
	}
	if j.state == StateDone {
		st.Result = j.result
	}
	if j.state == StateBackoff {
		st.BackoffMS = j.backoff.Milliseconds()
	}
	return st
}

// Server is the job-queue service: submissions dedup onto content-addressed
// jobs, a worker pool executes them through the shared result store, and
// failures follow the bounded-retry/quarantine policy. All methods are safe
// for concurrent use; Handler exposes the HTTP surface.
type Server struct {
	cfg  Config
	exec ExecFunc

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*job
	queue    []*job
	running  int
	draining bool
	stopped  bool
	wg       sync.WaitGroup

	cacheHits atomic.Uint64
	executed  atomic.Uint64
	retries   atomic.Uint64
	dedup     atomic.Uint64
}

// NewServer starts a server with cfg's worker pool running.
func NewServer(cfg Config) *Server {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	cfg.Retry = cfg.Retry.withDefaults()
	s := &Server{
		cfg:  cfg,
		exec: cfg.Exec,
		jobs: make(map[string]*job),
	}
	if s.exec == nil {
		s.exec = harness.RunChecked
	}
	s.cond = sync.NewCond(&s.mu)
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit validates and accepts one run. An identical run already known to
// the farm — queued, running, backing off, or terminal — attaches to the
// existing job (in-flight dedup) whatever the drain state; genuinely new
// work is rejected with ErrDraining once a drain has begun. The server's
// job deadline and metrics registry replace the submitter's.
func (s *Server) Submit(p harness.RunParams) (JobStatus, error) {
	if err := validate(p); err != nil {
		return JobStatus{}, err
	}
	p.Deadline = s.cfg.JobDeadline
	p.Metrics = s.cfg.Metrics
	key := p.Spec().Key()

	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[key]; ok {
		s.dedup.Add(1)
		return j.statusLocked(), nil
	}
	if s.draining || s.stopped {
		return JobStatus{}, ErrDraining
	}
	j := &job{
		key:    key,
		params: p,
		state:  StateQueued,
		done:   make(chan struct{}),
	}
	s.jobs[key] = j
	s.queue = append(s.queue, j)
	s.cond.Signal()
	return j.statusLocked(), nil
}

// Status returns the current status of the job keyed key.
func (s *Server) Status(key string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[key]
	if !ok {
		return JobStatus{}, false
	}
	return j.statusLocked(), true
}

// WaitJob blocks until the job reaches a terminal state or ctx expires
// (in-process callers; remote ones poll Status).
func (s *Server) WaitJob(ctx context.Context, key string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[key]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("farm: unknown job %s", key)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.statusLocked(), nil
}

// Quarantine returns the quarantined jobs (key order): the specs whose retry
// budget the circuit breaker exhausted. They stay out of the queue — a
// resubmission attaches here instead of burning more worker time.
func (s *Server) Quarantine() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []JobStatus
	for _, j := range s.jobs {
		if j.state == StateQuarantined {
			out = append(out, j.statusLocked())
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Key < out[k].Key })
	return out
}

// Stats returns the farm-wide counter snapshot.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Workers:          s.cfg.Workers,
		Draining:         s.draining,
		CacheHits:        s.cacheHits.Load(),
		Executed:         s.executed.Load(),
		RetriesScheduled: s.retries.Load(),
		DedupAttached:    s.dedup.Load(),
	}
	for _, j := range s.jobs {
		switch j.state {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateBackoff:
			st.Backoff++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateQuarantined:
			st.Quarantined++
		}
	}
	return st
}

// Drain gracefully winds the farm down: new specs are rejected, jobs waiting
// out a backoff are promoted for their final attempts immediately (no reason
// to honour a retry delay when shutdown is waiting on it), and the call
// blocks until every accepted job reaches a terminal state or ctx expires.
// Results are already persisted to the store as each job completes — there
// is nothing else to flush — so after a clean drain a restart over the same
// store resumes with only unsubmitted or unfinished cells to compute.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	for _, j := range s.jobs {
		if j.state == StateBackoff && j.timer.Stop() {
			j.state = StateQueued
			s.queue = append(s.queue, j)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	for {
		s.mu.Lock()
		idle := len(s.queue) == 0 && s.running == 0
		backing := 0
		for _, j := range s.jobs {
			if j.state == StateBackoff {
				backing++
			}
		}
		s.mu.Unlock()
		if idle && backing == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Close stops the worker pool without draining: workers finish the job in
// hand and exit; queued and backing-off jobs are abandoned where they stand.
// This is the in-process analogue of a kill — the chaos tests use it to
// leave a campaign half-done and prove a restart over the same store
// converges. Close after Drain is the clean shutdown pair.
func (s *Server) Close() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	for _, j := range s.jobs {
		if j.state == StateBackoff && j.timer != nil {
			j.timer.Stop()
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// worker is one pool goroutine: pop, execute, settle, repeat.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.stopped {
			s.cond.Wait()
		}
		if s.stopped {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		j.state = StateRunning
		j.attempts++
		s.running++
		s.mu.Unlock()

		payload, hit, fail := s.runJob(j)
		s.settle(j, payload, hit, fail)
	}
}

// settle applies the outcome of one execution attempt: done, a scheduled
// retry, quarantine (budget exhausted), or terminal failure.
func (s *Server) settle(j *job, payload []byte, hit bool, fail *harness.RunFailure) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	defer s.cond.Broadcast() // wake Drain's idleness re-check
	if fail == nil {
		j.state = StateDone
		j.result = payload
		j.cacheHit = hit
		j.failure = ""
		if hit {
			s.cacheHits.Add(1)
		}
		close(j.done)
		return
	}
	j.failure = fail.Reason
	j.retryable = Retryable(fail.Reason)
	switch {
	case j.retryable && j.attempts-1 < s.cfg.Retry.MaxRetries:
		d := s.cfg.Retry.Backoff(j.key, j.attempts)
		if s.draining {
			// Shutdown is waiting; the final attempts run back to back.
			d = 0
		}
		j.state = StateBackoff
		j.backoff = d
		s.retries.Add(1)
		j.timer = time.AfterFunc(d, func() { s.requeue(j) })
	case j.retryable:
		// Retry budget exhausted: the breaker opens. The spec sits in the
		// quarantine report instead of cycling through the queue forever.
		j.state = StateQuarantined
		close(j.done)
	default:
		j.state = StateFailed
		close(j.done)
	}
}

// requeue moves a backoff job whose delay elapsed back onto the queue.
func (s *Server) requeue(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state != StateBackoff || s.stopped {
		return
	}
	j.state = StateQueued
	s.queue = append(s.queue, j)
	s.cond.Signal()
}

// runJob produces the job's result payload: from the shared store when the
// spec is already memoized (that lookup is what makes a restarted campaign
// resume), otherwise by executing and persisting the summary.
func (s *Server) runJob(j *job) (payload []byte, hit bool, fail *harness.RunFailure) {
	if r, ok := harness.LookupCached(s.cfg.Store, j.params); ok {
		if b, err := harness.EncodeCacheRecord(r); err == nil {
			return b, true, nil
		}
		// Encode of a decoded record cannot fail in practice; recompute.
	}
	res, fail := s.safeExec(j.params)
	if fail != nil {
		return nil, false, fail
	}
	// A store write failure is non-fatal, exactly like the local sweep: the
	// result is correct, only un-memoized.
	_ = harness.StoreCached(s.cfg.Store, res)
	b, err := harness.EncodeCacheRecord(res)
	if err != nil {
		return nil, false, j.params.Failure("encode result: " + err.Error())
	}
	return b, false, nil
}

// safeExec isolates worker panics: a crash in (or injected under) the
// executor becomes a retryable RunFailure instead of killing the pool
// goroutine and silently shrinking the farm.
func (s *Server) safeExec(p harness.RunParams) (res *harness.RunResult, fail *harness.RunFailure) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			fail = p.Failure(fmt.Sprintf("worker panic: %v", r))
			fail.Stack = string(debug.Stack())
		}
	}()
	s.executed.Add(1)
	return s.exec(p)
}

// Handler returns the farm's HTTP surface:
//
//	POST /jobs        submit one harness.RunParams -> JobStatus (503 while draining)
//	GET  /jobs/{key}  poll one job -> JobStatus
//	GET  /quarantine  quarantined specs -> []JobStatus
//	GET  /farm        farm-wide counters -> Stats
//	GET  /healthz     "ok" (or "draining")
//
// plus /metrics (Prometheus text) and /metrics.json when a metrics registry
// is configured.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var p harness.RunParams
		if err := decodeBody(r, &p); err != nil {
			http.Error(w, "farm: bad job: "+err.Error(), http.StatusBadRequest)
			return
		}
		st, err := s.Submit(p)
		switch {
		case errors.Is(err, ErrDraining):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		case err != nil:
			http.Error(w, err.Error(), http.StatusBadRequest)
		default:
			writeJSON(w, st)
		}
	})
	mux.HandleFunc("GET /jobs/{key}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := s.Status(r.PathValue("key"))
		if !ok {
			http.Error(w, "farm: unknown job", http.StatusNotFound)
			return
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("GET /quarantine", func(w http.ResponseWriter, r *http.Request) {
		q := s.Quarantine()
		if q == nil {
			q = []JobStatus{}
		}
		writeJSON(w, q)
	})
	mux.HandleFunc("GET /farm", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	if s.cfg.Metrics != nil {
		mux.Handle("GET /metrics", s.cfg.Metrics.Handler())
		mux.Handle("GET /metrics.json", s.cfg.Metrics.JSONHandler())
	}
	return mux
}

// decodeBody decodes a request body strictly: a member the server does not
// know is an error, not a field silently dropped from the run's key.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
