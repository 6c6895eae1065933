package farm

import (
	"context"
	"testing"
	"time"

	"repro/internal/harness"
)

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{InitialBackoff: 100 * time.Millisecond, MaxBackoff: time.Second, JitterFrac: 0.2}
	for retry := 1; retry <= 6; retry++ {
		d1 := p.Backoff("somekey", retry)
		d2 := p.Backoff("somekey", retry)
		if d1 != d2 {
			t.Fatalf("retry %d: backoff not deterministic: %v vs %v", retry, d1, d2)
		}
		// Base is 100ms<<(retry-1) capped at 1s; jitter is at most ±20%.
		base := 100 * time.Millisecond << (retry - 1)
		if base > time.Second {
			base = time.Second
		}
		lo := base - base/5 - time.Millisecond
		hi := base + base/5 + time.Millisecond
		if d1 < lo || d1 > hi {
			t.Fatalf("retry %d: backoff %v outside [%v, %v]", retry, d1, lo, hi)
		}
	}
	if p.Backoff("somekey", 10) > time.Second+time.Second/5 {
		t.Fatalf("backoff escaped the cap: %v", p.Backoff("somekey", 10))
	}
}

func TestBackoffJitterVariesByKey(t *testing.T) {
	p := RetryPolicy{InitialBackoff: time.Second, MaxBackoff: time.Minute, JitterFrac: 0.5}
	seen := map[time.Duration]bool{}
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, k := range keys {
		seen[p.Backoff(k, 1)] = true
	}
	// A thundering herd of 8 distinct specs must not retry in lockstep.
	if len(seen) < 4 {
		t.Fatalf("jitter produced only %d distinct delays across %d keys", len(seen), len(keys))
	}
}

func TestBackoffNoJitter(t *testing.T) {
	p := RetryPolicy{InitialBackoff: 100 * time.Millisecond, MaxBackoff: time.Second, JitterFrac: -1}
	if got := p.Backoff("k", 1); got != 100*time.Millisecond {
		t.Fatalf("retry 1 = %v, want exactly 100ms", got)
	}
	if got := p.Backoff("k", 3); got != 400*time.Millisecond {
		t.Fatalf("retry 3 = %v, want exactly 400ms", got)
	}
	if got := p.Backoff("k", 9); got != time.Second {
		t.Fatalf("retry 9 = %v, want the 1s cap", got)
	}
}

// TestRetryableClassification: the farm's retry decision reads a failure's
// kind, never its text. A panic or a blown deadline is retried until the
// breaker quarantines the job; every other kind fails on attempt one, also
// when its text reads like another kind.
func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		kind   harness.FailureKind
		reason string
		retry  bool
	}{
		{harness.FailPanic, "worker panic: runtime error: index out of range", true},
		{harness.FailPanic, "panic: boom", true},
		{harness.FailDeadline, "harness: hashmap/C seed 1: wall deadline 50ms exceeded", true},
		{harness.FailOracle, "check: 1 invariant violation(s); first: [tick 3200000 core -1] liveness: livelock: no commit for 3000001 ticks with 4 invocations in flight", false},
		{harness.FailVerification, "harness: hashmap/C seed 1: verification failed: lost update", false},
		{harness.FailOther, "aggregate: no results", false},
		{harness.FailOther, "", false},
		// The kind decides where the text disagrees.
		{harness.FailVerification, "harness: hashmap/C seed 1: wall deadline 50ms exceeded", false},
		{harness.FailPanic, "panic: check: 1 invariant violation(s)", true},
		{harness.FailOther, "harness: wall deadline", false},
	}
	for _, c := range cases {
		srv := NewServer(Config{
			Workers: 1,
			Retry:   fastRetry(),
			Exec: func(p harness.RunParams) (*harness.RunResult, *harness.RunFailure) {
				return nil, p.Failure(c.kind, c.reason)
			},
		})
		st, err := srv.Submit(quickSpec(1))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		fin, err := srv.WaitJob(ctx, st.Key)
		cancel()
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		want, attempts := StateFailed, 1
		if c.retry {
			want, attempts = StateQuarantined, 1+fastRetry().MaxRetries
		}
		if fin.State != want || fin.Attempts != attempts || fin.Retryable != c.retry || fin.Kind != c.kind || fin.Failure != c.reason {
			t.Errorf("kind %q reason %q: state %s after %d attempts, retryable %v, kind %q; want %s after %d, retryable %v",
				c.kind, c.reason, fin.State, fin.Attempts, fin.Retryable, fin.Kind, want, attempts, c.retry)
		}
	}
}
