package htm

import (
	"testing"

	"repro/internal/mem"
)

func TestAbortBuckets(t *testing.T) {
	cases := map[AbortReason]Bucket{
		AbortMemoryConflict:   BucketMemoryConflict,
		AbortExplicitFallback: BucketExplicitFallback,
		AbortOtherFallback:    BucketOtherFallback,
		AbortCapacity:         BucketOthers,
		AbortExplicit:         BucketOthers,
		AbortDeviation:        BucketOthers,
	}
	for r, want := range cases {
		if got := BucketOf(r); got != want {
			t.Errorf("BucketOf(%v) = %v, want %v", r, got, want)
		}
	}
}

// TestParseAbortReason round-trips every named reason through String and
// ParseAbortReason, and rejects names outside the enum.
func TestParseAbortReason(t *testing.T) {
	for r := AbortNone + 1; r < NumAbortReasons; r++ {
		got, ok := ParseAbortReason(r.String())
		if !ok || got != r {
			t.Errorf("ParseAbortReason(%q) = %v, %v; want %v", r.String(), got, ok, r)
		}
	}
	for _, s := range []string{"unknown", "none", ""} {
		if r, ok := ParseAbortReason(s); ok {
			t.Errorf("ParseAbortReason(%q) = %v, want rejection", s, r)
		}
	}
}

// TestRetryCounting: fallback-related aborts do not push an AR toward the
// fallback path (§7: "certain types of aborts do not increase the counter").
func TestRetryCounting(t *testing.T) {
	if CountsTowardRetryLimit(AbortExplicitFallback) || CountsTowardRetryLimit(AbortOtherFallback) {
		t.Fatal("fallback-type aborts must not count toward the retry limit")
	}
	for _, r := range []AbortReason{AbortMemoryConflict, AbortCapacity, AbortExplicit, AbortDeviation} {
		if !CountsTowardRetryLimit(r) {
			t.Errorf("%v should count toward the retry limit", r)
		}
	}
}

func TestFallbackLockReaders(t *testing.T) {
	f := NewFallbackLock(mem.LineAddr(0x10))
	if !f.Free() {
		t.Fatal("new lock not free")
	}
	if !f.TryAcquireRead(1) || !f.TryAcquireRead(2) {
		t.Fatal("concurrent readers refused")
	}
	// Read mode (NS-CL/S-CL) does not block speculative starts: Free()
	// asks "may a transaction begin", and only fallback excludes that.
	if !f.Free() {
		t.Fatal("read mode must not block speculative starts")
	}
	f.ReleaseRead(1)
	f.ReleaseRead(2)
	if !f.Free() {
		t.Fatal("lock not free after readers left")
	}
}

func TestFallbackWriterExcludesReaders(t *testing.T) {
	f := NewFallbackLock(0x10)
	f.TryAcquireRead(1)
	f.AnnounceWriter(0)
	// Announced writer blocks new readers (no writer starvation).
	if f.TryAcquireRead(2) {
		t.Fatal("new reader admitted while a writer waits")
	}
	if f.TryAcquireWrite(0) {
		t.Fatal("writer acquired while a reader holds")
	}
	f.ReleaseRead(1)
	if !f.TryAcquireWrite(0) {
		t.Fatal("writer refused after readers drained")
	}
	if f.Free() || !f.WriterHeld() || f.Writer() != 0 {
		t.Fatal("writer state wrong")
	}
	// A second writer waits: its announcement keeps the lock un-Free
	// across the first writer's release, and it takes the lock next.
	f.AnnounceWriter(1)
	if f.TryAcquireRead(3) || f.TryAcquireWrite(1) {
		t.Fatal("lock not exclusive")
	}
	f.ReleaseWrite(0)
	if f.Free() || !f.Idle() {
		t.Fatal("released lock must be idle but not free while writer 1 waits")
	}
	if !f.TryAcquireWrite(1) {
		t.Fatal("waiting writer refused after release")
	}
	f.ReleaseWrite(1)
	if !f.Free() {
		t.Fatal("not free after writer release")
	}
}

func TestFallbackReleaseWithoutHoldPanics(t *testing.T) {
	f := NewFallbackLock(0x10)
	for _, fn := range []func(){
		func() { f.ReleaseRead(1) },
		func() { f.ReleaseWrite(1) },
		func() { f.TryAcquireWrite(1) }, // without announce
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid lock transition did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestPowerTokenSingleHolder(t *testing.T) {
	p := NewPowerToken()
	if p.Held() {
		t.Fatal("fresh token held")
	}
	if !p.TryClaim(3) {
		t.Fatal("claim of free token failed")
	}
	if !p.TryClaim(3) {
		t.Fatal("re-claim by holder failed")
	}
	if p.TryClaim(4) {
		t.Fatal("second core claimed a held token")
	}
	if p.Grants != 1 || p.Denied != 1 {
		t.Fatalf("grants=%d denied=%d, want 1/1", p.Grants, p.Denied)
	}
	p.Release(3)
	if p.Held() {
		t.Fatal("token held after release")
	}
	if !p.TryClaim(4) {
		t.Fatal("claim after release failed")
	}
}

func TestPowerTokenReleaseByNonHolderPanics(t *testing.T) {
	p := NewPowerToken()
	p.TryClaim(1)
	defer func() {
		if recover() == nil {
			t.Error("release by non-holder did not panic")
		}
	}()
	p.Release(2)
}

func TestPowerTokenReleaseIfHeld(t *testing.T) {
	p := NewPowerToken()
	p.ReleaseIfHeld(5) // no-op, no panic
	p.TryClaim(5)
	p.ReleaseIfHeld(4) // not the holder: no-op
	if !p.Held() {
		t.Fatal("wrong core released the token")
	}
	p.ReleaseIfHeld(5)
	if p.Held() {
		t.Fatal("token still held")
	}
}
