package farm

import (
	"hash/fnv"
	"strconv"
	"time"

	"repro/internal/harness"
)

// RetryPolicy bounds how the farm retries a failed job — the same shape the
// simulated system is about (a bounded number of retries, then a different
// strategy), applied to the farm's own jobs: max retries, exponential
// backoff between attempts, and a deterministic jitter so a thundering herd
// of retries spreads out the same way on every replay of a campaign.
type RetryPolicy struct {
	// MaxRetries is how many re-executions a job gets after its first
	// attempt before the circuit breaker quarantines it. Default 2.
	MaxRetries int
	// InitialBackoff is the delay before the first retry; each further
	// retry doubles it. Default 100ms.
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential growth. Default 5s.
	MaxBackoff time.Duration
	// JitterFrac perturbs each delay by a deterministic fraction in
	// [-JitterFrac, +JitterFrac], derived from (job key, attempt) — no
	// global RNG, so two runs of the same campaign schedule identically.
	// Default 0.2; negative disables jitter.
	JitterFrac float64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxRetries == 0 {
		p.MaxRetries = 2
	}
	if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
	if p.InitialBackoff == 0 {
		p.InitialBackoff = 100 * time.Millisecond
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = 5 * time.Second
	}
	if p.JitterFrac == 0 {
		p.JitterFrac = 0.2
	}
	if p.JitterFrac < 0 {
		p.JitterFrac = 0
	}
	return p
}

// Backoff returns the delay before retry number retry (1-based: the delay
// after the retry-th failed execution) of the job keyed key. The base delay
// is InitialBackoff << (retry-1) capped at MaxBackoff; the jitter is a pure
// function of (key, retry), so the schedule is reproducible.
func (p RetryPolicy) Backoff(key string, retry int) time.Duration {
	p = p.withDefaults()
	if retry < 1 {
		retry = 1
	}
	base := p.InitialBackoff
	for i := 1; i < retry && base < p.MaxBackoff; i++ {
		base *= 2
	}
	if base > p.MaxBackoff {
		base = p.MaxBackoff
	}
	if p.JitterFrac == 0 {
		return base
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte(":"))
	h.Write([]byte(strconv.Itoa(retry)))
	// Map the hash onto [-JitterFrac, +JitterFrac].
	frac := (float64(h.Sum64()%(1<<20))/float64(1<<20)*2 - 1) * p.JitterFrac
	d := base + time.Duration(frac*float64(base))
	if d < 0 {
		d = 0
	}
	return d
}

// retryable is the farm's retry decision, made on where a failure was
// created and never on its text: host-side flakiness — a worker panic, a
// blown wall deadline — earns another attempt; a verdict on the simulated
// run (an oracle violation, livelock included, or a failed workload
// verification) is a pure function of the run spec that no retry fixes,
// and so is every other failure.
func retryable(kind harness.FailureKind) bool {
	switch kind {
	case harness.FailPanic, harness.FailDeadline:
		return true
	}
	return false
}
