package farm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/harness"
)

const (
	// maxAttempts bounds transport-level retries per request.
	maxAttempts = 8
	// pollMax caps the growing interval between job status polls.
	pollMax = time.Second
)

// Client talks to a farm server. The zero knobs are production defaults;
// tests shrink the delays. Transient transport faults — dropped connections,
// a server mid-drain returning 503 — are retried with bounded backoff, so a
// campaign survives a rolling farm restart without the caller noticing more
// than latency.
type Client struct {
	base string
	// HTTP is the underlying client (tests swap in flaky transports).
	HTTP *http.Client

	// RetryDelay seeds the doubling delay between transport retries
	// (capped at 2s). Default 50ms.
	RetryDelay time.Duration

	// PollInterval seeds the growing delay between job status polls
	// (x1.5, capped at pollMax). Default 25ms.
	PollInterval time.Duration
	// WaitTimeout bounds how long Wait polls one job. Default 15m.
	WaitTimeout time.Duration
}

// NewClient returns a client for the farm at addr ("host:port" or a full
// http:// URL).
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{
		base: strings.TrimRight(addr, "/"),
		HTTP: &http.Client{Timeout: 30 * time.Second},
	}
}

func (c *Client) retryDelay() time.Duration {
	if c.RetryDelay > 0 {
		return c.RetryDelay
	}
	return 50 * time.Millisecond
}

// do issues one JSON request with bounded transport retry. Connection errors
// and 5xx responses (including 503 from a draining server) retry; other
// non-200s are terminal.
func (c *Client) do(method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		body, err = json.Marshal(in)
		if err != nil {
			return fmt.Errorf("farm: encode %s %s: %w", method, path, err)
		}
	}
	delay := c.retryDelay()
	var lastErr error
	for i := 0; i < maxAttempts; i++ {
		if i > 0 {
			time.Sleep(delay)
			if delay *= 2; delay > 2*time.Second {
				delay = 2 * time.Second
			}
		}
		req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("farm: %s %s: %w", method, path, err)
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.HTTP.Do(req)
		if err != nil {
			lastErr = err // dropped connection, refused, timeout: retry
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			if out == nil {
				return nil
			}
			if err := json.Unmarshal(data, out); err != nil {
				return fmt.Errorf("farm: decode %s %s: %w", method, path, err)
			}
			return nil
		case resp.StatusCode >= 500:
			lastErr = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
			continue
		default:
			return fmt.Errorf("farm: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
		}
	}
	return fmt.Errorf("farm: %s %s failed after %d attempts: %w", method, path, maxAttempts, lastErr)
}

// Submit enqueues one run (or attaches to its in-flight twin).
func (c *Client) Submit(p harness.RunParams) (JobStatus, error) {
	var st JobStatus
	err := c.do(http.MethodPost, "/jobs", p, &st)
	return st, err
}

// Status polls one job.
func (c *Client) Status(key string) (JobStatus, error) {
	var st JobStatus
	err := c.do(http.MethodGet, "/jobs/"+key, nil, &st)
	return st, err
}

// Wait polls the job until it reaches a terminal state, with a growing
// interval and an overall timeout.
func (c *Client) Wait(key string) (JobStatus, error) {
	timeout := c.WaitTimeout
	if timeout <= 0 {
		timeout = 15 * time.Minute
	}
	interval := c.PollInterval
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.Status(key)
		if err != nil {
			return JobStatus{}, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		if time.Now().After(deadline) {
			return JobStatus{}, fmt.Errorf("farm: job %.12s still %s after %v", key, st.State, timeout)
		}
		time.Sleep(interval)
		if interval = interval * 3 / 2; interval > pollMax {
			interval = pollMax
		}
	}
}

// FarmStats fetches the farm-wide counters.
func (c *Client) FarmStats() (Stats, error) {
	var st Stats
	err := c.do(http.MethodGet, "/farm", nil, &st)
	return st, err
}

// QuarantineReport fetches the quarantined specs.
func (c *Client) QuarantineReport() ([]JobStatus, error) {
	var q []JobStatus
	err := c.do(http.MethodGet, "/quarantine", nil, &q)
	return q, err
}

// Runner adapts the client into the harness's per-cell execution seam: a
// RunMatrix configured with this runner submits every cell to the farm and
// decodes the returned CacheRecord — the exact bytes a local warm sweep
// reads — so aggregation, best-of selection, and CSV rendering run on
// identical inputs and the remote CSVs are byte-identical to local ones.
func (c *Client) Runner() harness.RunnerFunc {
	return func(p harness.RunParams) (*harness.RunResult, *harness.RunFailure, bool) {
		failWith := func(format string, args ...any) *harness.RunFailure {
			return p.Failure(harness.FailOther, fmt.Sprintf(format, args...))
		}
		st, err := c.Submit(p)
		if err != nil {
			return nil, failWith("farm submit: %v", err), false
		}
		st, err = c.Wait(st.Key)
		if err != nil {
			return nil, failWith("farm wait: %v", err), false
		}
		switch st.State {
		case StateDone:
			rec, err := harness.DecodeCacheRecord(st.Result)
			if err != nil {
				return nil, failWith("farm result: %v", err), false
			}
			return rec.Result(p), nil, st.CacheHit
		case StateQuarantined:
			return nil, p.Failure(st.Kind, fmt.Sprintf("farm quarantined after %d attempts: %s", st.Attempts, st.Failure)), false
		default:
			return nil, p.Failure(st.Kind, "farm: "+st.Failure), false
		}
	}
}
