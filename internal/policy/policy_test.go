package policy

import (
	"strings"
	"testing"

	clear "repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestParseCanonical(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", "clear"},
		{"clear", "clear"},
		{" clear ", "clear"},
		{"retry", "retry:backoff=exp,n=4"},
		{"retry:n=8", "retry:backoff=exp,n=8"},
		{"retry:backoff=none,n=2", "retry:backoff=none,n=2"},
		{"retry:n=2,backoff=none", "retry:backoff=none,n=2"},
		{"ewma", "ewma:alpha=0.25,floor=0.1"},
		{"ewma:alpha=0.5", "ewma:alpha=0.5,floor=0.1"},
		{"ewma:floor=0.2,alpha=0.125", "ewma:alpha=0.125,floor=0.2"},
	}
	for _, tc := range cases {
		spec, err := Parse(tc.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		if got := spec.Canonical(); got != tc.want {
			t.Errorf("Parse(%q).Canonical() = %q, want %q", tc.in, got, tc.want)
		}
		// Canonical forms must re-parse to themselves.
		spec2, err := Parse(spec.Canonical())
		if err != nil {
			t.Fatalf("Parse(%q) (canonical round-trip): %v", spec.Canonical(), err)
		}
		if spec2.Canonical() != spec.Canonical() {
			t.Errorf("canonical %q re-parsed to %q", spec.Canonical(), spec2.Canonical())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"nope",
		"clear:n=1",
		"retry:",
		"retry:n=0",
		"retry:n=x",
		"retry:backoff=linear",
		"retry:m=4",
		"retry:n=4,n=5",
		"ewma:alpha=0",
		"ewma:alpha=1.5",
		"ewma:floor=1",
		"ewma:beta=0.5",
		"retry:n",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): want error, got nil", in)
		} else if !strings.Contains(err.Error(), "clear") {
			t.Errorf("Parse(%q) error %q does not quote the grammar", in, err)
		}
	}
}

func TestParseList(t *testing.T) {
	specs, err := ParseList("clear; retry:n=2,backoff=exp ewma")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || specs[0].Kind != KindClear || specs[1].Kind != KindRetry || specs[2].Kind != KindEWMA {
		t.Fatalf("ParseList: got %v", specs)
	}
	if specs[1].N != 2 {
		t.Errorf("retry n = %d, want 2", specs[1].N)
	}
	if _, err := ParseList("clear;clear"); err == nil {
		t.Error("duplicate policies accepted")
	}
	if _, err := ParseList("  "); err == nil {
		t.Error("empty list accepted")
	}
}

func TestDefaultElision(t *testing.T) {
	var zero Spec
	if !zero.IsDefault() {
		t.Error("zero Spec is not default")
	}
	if s, _ := Parse("clear"); !s.IsDefault() {
		t.Error(`Parse("clear") is not default`)
	}
	if s, _ := Parse("retry"); s.IsDefault() {
		t.Error(`Parse("retry") claims default`)
	}
}

// TestClearBackoffMatchesLegacy pins the default policy's draw discipline to
// the legacy retryBackoff formula: same window arithmetic, same skip rules,
// driven by the same RNG. This is the bit-identity contract in miniature.
func TestClearBackoffMatchesLegacy(t *testing.T) {
	const base = sim.Tick(64)
	env := Env{Seed: 7, Core: 3, RetryLimit: 4, BackoffBase: base}
	p := New(Spec{}, env)

	legacy := func(rng *sim.RNG, mode clear.RetryMode, retries int) sim.Tick {
		if mode == clear.RetrySCL || mode == clear.RetryNSCL {
			return 0
		}
		shift := retries
		if shift > 6 {
			shift = 6
		}
		return sim.Tick(rng.Intn(int(base) << uint(shift)))
	}

	rngA := sim.NewRNG(99)
	rngB := sim.NewRNG(99)
	ctx := Context{Rand: rngA.Intn}
	modes := []clear.RetryMode{
		clear.RetrySpeculative, clear.RetryFallback, clear.RetrySCL,
		clear.RetryNSCL, clear.RetrySpeculative, clear.RetryFallback,
	}
	for retries := 0; retries < 10; retries++ {
		for _, m := range modes {
			ctx.Proposed = m
			ctx.ConflictRetries = retries
			d := p.Decide(&ctx)
			if d.Mode != m {
				t.Fatalf("clear policy changed mode %v -> %v", m, d.Mode)
			}
			if want := legacy(rngB, m, retries); d.Backoff != want {
				t.Fatalf("mode %v retries %d: backoff %d, want %d", m, retries, d.Backoff, want)
			}
		}
	}

	// BackoffBase == 0 disables the draw entirely.
	p0 := New(Spec{}, Env{RetryLimit: 4})
	ctx0 := Context{Proposed: clear.RetrySpeculative, Rand: func(int) int {
		t.Fatal("clear policy drew with BackoffBase=0")
		return 0
	}}
	if d := p0.Decide(&ctx0); d.Backoff != 0 {
		t.Fatalf("backoff %d with BackoffBase=0", d.Backoff)
	}
}

func TestRetryPolicyDeterministicBackoff(t *testing.T) {
	env := Env{Seed: 42, Core: 1, RetryLimit: 4, BackoffBase: 64}
	p := New(Spec{Kind: KindRetry, N: 6, Backoff: "exp"}, env)

	noRand := func(int) int { t.Fatal("retry policy consulted the core RNG"); return 0 }
	ctx := Context{ProgID: 9, ConflictRetries: 2, Proposed: clear.RetrySpeculative, Rand: noRand}
	d1 := p.Decide(&ctx)
	d2 := p.Decide(&ctx)
	if d1 != d2 {
		t.Fatalf("same context decided differently: %v vs %v", d1, d2)
	}
	if d1.Backoff >= 64<<2 {
		t.Fatalf("backoff %d outside the retry-2 window %d", d1.Backoff, 64<<2)
	}
	// Budget: n=6 allows conflictRetries up to 6.
	if p.BudgetExhausted(6) {
		t.Error("budget exhausted at n")
	}
	if !p.BudgetExhausted(7) {
		t.Error("budget not exhausted past n")
	}
	// CL proposals are honoured with no delay.
	ctx.Proposed = clear.RetrySCL
	if d := p.Decide(&ctx); d.Mode != clear.RetrySCL || d.Backoff != 0 {
		t.Fatalf("SCL proposal decided %v", d)
	}
	// backoff=none zeroes the delay.
	pn := New(Spec{Kind: KindRetry, N: 6, Backoff: "none"}, env)
	ctx.Proposed = clear.RetrySpeculative
	if d := pn.Decide(&ctx); d.Backoff != 0 {
		t.Fatalf("backoff=none gave %d", d.Backoff)
	}
}

func TestEWMALearnsToStopSpeculating(t *testing.T) {
	env := Env{Seed: 1, Core: 0, RetryLimit: 4, BackoffBase: 0}
	p := New(Spec{Kind: KindEWMA, Alpha: 0.5, Floor: 0.2}, env)
	const prog = 3

	if p.PreferNonSpec(prog) {
		t.Fatal("fresh AR already below floor (should start optimistic)")
	}
	ctx := Context{ProgID: prog, Proposed: clear.RetrySpeculative}
	if d := p.Decide(&ctx); d.Mode != clear.RetrySpeculative {
		t.Fatalf("optimistic AR decided %v", d.Mode)
	}

	// Three straight speculative aborts at alpha=0.5: 1.0 -> 0.5 -> 0.25 -> 0.125 < 0.2.
	for i := 0; i < 3; i++ {
		p.OnAbort(Outcome{ProgID: prog, Mode: stats.CommitSpeculative})
	}
	if !p.PreferNonSpec(prog) {
		t.Fatal("AR not below floor after three aborts")
	}
	if d := p.Decide(&ctx); d.Mode != clear.RetryFallback {
		t.Fatalf("contended AR decided %v, want fallback", d.Mode)
	}
	// CL proposals are still honoured below the floor.
	ctx.Proposed = clear.RetryNSCL
	if d := p.Decide(&ctx); d.Mode != clear.RetryNSCL {
		t.Fatalf("NS-CL proposal overridden to %v", d.Mode)
	}
	// Other ARs are unaffected.
	if p.PreferNonSpec(prog + 1) {
		t.Error("unrelated AR inherited the learned rate")
	}
	// Commits recover the rate: 0.125 -> 0.5625 > 0.2.
	p.OnCommit(Outcome{ProgID: prog, Mode: stats.CommitSpeculative})
	if p.PreferNonSpec(prog) {
		t.Error("AR still below floor after a speculative commit")
	}
	// Non-speculative outcomes are not learning signal.
	p.OnAbort(Outcome{ProgID: prog, Mode: stats.CommitNSCL})
	p.OnAbort(Outcome{ProgID: prog, Mode: stats.CommitFallback})
	if p.PreferNonSpec(prog) {
		t.Error("CL/fallback outcomes moved the speculative EWMA")
	}
}

func TestOverrideAllowed(t *testing.T) {
	modes := []clear.RetryMode{clear.RetrySpeculative, clear.RetrySCL, clear.RetryNSCL, clear.RetryFallback}
	for _, proposed := range modes {
		for _, decided := range modes {
			want := decided == proposed || decided == clear.RetryFallback
			if got := OverrideAllowed(proposed, decided); got != want {
				t.Errorf("OverrideAllowed(%v, %v) = %v, want %v", proposed, decided, got, want)
			}
		}
	}
}
