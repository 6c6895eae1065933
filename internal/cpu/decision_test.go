package cpu

import (
	"fmt"
	"testing"

	clear "repro/internal/core"
	"repro/internal/htm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stats"
)

// decisionDiscState selects the failed-mode discovery state a decision-table
// row runs against.
type decisionDiscState int

const (
	decDiscNone       decisionDiscState = iota // discovery untouched
	decDiscImmutable                           // complete, no indirection
	decDiscIndirected                          // complete, indirection observed
	decDiscSQOverflow                          // window overflow
	decDiscIncomplete                          // never reached the AR end
)

// decisionRow is one row of the §4.3 next-mode decision table (Figure 2).
type decisionRow struct {
	name   string
	clear  bool
	inject bool // a stub FaultHook plants the second speculative retry
	mode   Mode
	reason htm.AbortReason
	disc   decisionDiscState
	want   clear.RetryMode
	// wantNonconv asserts the ERT entry was marked non-convertible.
	wantNonconv bool
	// wantAssessed asserts the discovery assessment ran.
	wantAssessed bool
}

// decisionRows is the full decision table: every (executing mode, abort
// reason, discovery state) row of the tree. A change to the §4.3 mechanism
// must show up here as an explicit row edit.
func decisionRows() []decisionRow {
	return []decisionRow{
		// CLEAR off: plain HTM retries speculatively until capacity.
		{name: "off/spec/conflict", mode: ModeSpeculative, reason: htm.AbortMemoryConflict,
			want: clear.RetrySpeculative},
		{name: "off/spec/capacity", mode: ModeSpeculative, reason: htm.AbortCapacity,
			want: clear.RetryFallback},
		{name: "off/spec/explicit", mode: ModeSpeculative, reason: htm.AbortExplicit,
			want: clear.RetrySpeculative},

		// CLEAR, speculative attempt aborted before discovery completed.
		{name: "spec/capacity", clear: true, mode: ModeSpeculative, reason: htm.AbortCapacity,
			want: clear.RetryFallback, wantNonconv: true},
		{name: "spec/explicit", clear: true, mode: ModeSpeculative, reason: htm.AbortExplicit,
			want: clear.RetrySpeculative, wantNonconv: true},
		{name: "spec/conflict", clear: true, mode: ModeSpeculative, reason: htm.AbortMemoryConflict,
			want: clear.RetrySpeculative},

		// CLEAR, failed-discovery attempt: the hierarchical assessment picks
		// the CL mode (§4.1): immutable ⇒ NS-CL, indirected ⇒ S-CL,
		// window overflow or incomplete ⇒ speculative again.
		{name: "disc/immutable", clear: true, mode: ModeFailedDiscovery, reason: htm.AbortMemoryConflict,
			disc: decDiscImmutable, want: clear.RetryNSCL, wantAssessed: true},
		{name: "disc/indirected", clear: true, mode: ModeFailedDiscovery, reason: htm.AbortMemoryConflict,
			disc: decDiscIndirected, want: clear.RetrySCL, wantAssessed: true},
		{name: "disc/sq-overflow", clear: true, mode: ModeFailedDiscovery, reason: htm.AbortMemoryConflict,
			disc: decDiscSQOverflow, want: clear.RetrySpeculative, wantNonconv: true, wantAssessed: true},
		{name: "disc/incomplete", clear: true, mode: ModeFailedDiscovery, reason: htm.AbortMemoryConflict,
			disc: decDiscIncomplete, want: clear.RetrySpeculative, wantAssessed: true},

		// The planted single-retry bug: injection overrides a convertible
		// assessment with a second plain speculative retry.
		{name: "disc/inject-second-spec", clear: true, inject: true, mode: ModeFailedDiscovery,
			reason: htm.AbortMemoryConflict, disc: decDiscImmutable,
			want: clear.RetrySpeculative, wantAssessed: true},

		// CLEAR, S-CL attempt: a memory conflict means the CRT learned the
		// conflicting read — retry S-CL with the wider lock set; anything
		// else (deviation) rediscovers.
		{name: "scl/conflict", clear: true, mode: ModeSCL, reason: htm.AbortMemoryConflict,
			disc: decDiscIndirected, want: clear.RetrySCL},
		{name: "scl/deviation", clear: true, mode: ModeSCL, reason: htm.AbortExplicit,
			want: clear.RetrySpeculative},

		// CLEAR, NS-CL attempt: a refused lock walk retries NS-CL; a
		// deviation (immutability misprediction) rediscovers.
		{name: "nscl/conflict", clear: true, mode: ModeNSCL, reason: htm.AbortMemoryConflict,
			want: clear.RetryNSCL},
		{name: "nscl/deviation", clear: true, mode: ModeNSCL, reason: htm.AbortExplicit,
			want: clear.RetrySpeculative},

		// Any other mode (e.g. fallback bookkeeping) retries speculatively.
		{name: "fallback/conflict", clear: true, mode: ModeFallback, reason: htm.AbortMemoryConflict,
			want: clear.RetrySpeculative},
	}
}

// plantSecondSpec is a stub FaultHook that plants only the second-spec-retry
// bug, on every consultation.
type plantSecondSpec struct{}

func (plantSecondSpec) DenyPowerClaim(int) bool       { return false }
func (plantSecondSpec) SpuriousAbort(int) bool        { return false }
func (plantSecondSpec) PreemptHolder(int) sim.Tick    { return 0 }
func (plantSecondSpec) ForceSecondSpecRetry(int) bool { return true }
func (plantSecondSpec) LoseInvalidation(int) bool     { return false }

// decisionCore builds a machine under the given policy spec and prepares
// core 0 for one decision-table row: execution mode, a convertible ERT
// entry, a dummy invocation (decideRetryMode hands the AR's program id to
// the policy), and the requested discovery state.
func decisionCore(t *testing.T, tc decisionRow, spec policy.Spec) *Core {
	t.Helper()
	cfg := DefaultSystemConfig()
	cfg.Cores = 2
	cfg.CLEAR = tc.clear
	cfg.Policy = spec
	m, err := NewMachine(cfg, mem.NewMemory(0x10000))
	if err != nil {
		t.Fatal(err)
	}
	if tc.inject {
		m.SetFaultHook(plantSecondSpec{})
	}
	c := m.Cores[0]
	c.mode = tc.mode
	c.inv = Invocation{Prog: &isa.Program{ID: 1, Name: "decision-test"}}
	c.ertEntry = &clear.ERTEntry{IsConvertible: true}

	switch tc.disc {
	case decDiscNone:
	default:
		c.disc.Begin()
		c.disc.RecordAccess(mem.LineAddr(0x40), 0, true, tc.disc == decDiscIndirected)
		c.disc.ReachedEnd = tc.disc != decDiscIncomplete
		c.disc.SQOverflow = tc.disc == decDiscSQOverflow
	}
	return c
}

// checkDecisionRow runs one row through decideRetryMode and asserts the
// decided mode and the mechanism side effects.
func checkDecisionRow(t *testing.T, c *Core, tc decisionRow) {
	t.Helper()
	c.decideRetryMode(tc.reason)

	if c.retryMode != tc.want {
		t.Errorf("retryMode = %v, want %v", c.retryMode, tc.want)
	}
	if gotNonconv := !c.ertEntry.IsConvertible; gotNonconv != tc.wantNonconv {
		t.Errorf("ERT non-convertible = %v, want %v", gotNonconv, tc.wantNonconv)
	}
	if c.lastAssessed != tc.wantAssessed {
		t.Errorf("assessment ran = %v, want %v", c.lastAssessed, tc.wantAssessed)
	}
	if !policy.OverrideAllowed(c.lastProposed, c.retryMode) {
		t.Errorf("illegal override: proposed %v, decided %v", c.lastProposed, c.retryMode)
	}
}

// TestDecideRetryMode pins the full §4.3 next-mode decision table under the
// default (paper-exact) policy: policy=clear must reproduce the legacy
// mechanism table exactly, row for row, with no overrides recorded.
func TestDecideRetryMode(t *testing.T) {
	for _, tc := range decisionRows() {
		t.Run(tc.name, func(t *testing.T) {
			c := decisionCore(t, tc, policy.Spec{})
			checkDecisionRow(t, c, tc)
			if c.lastProposed != c.retryMode {
				t.Errorf("default policy overrode the mechanism: proposed %v, decided %v",
					c.lastProposed, c.retryMode)
			}
			if got := c.m.Stats.PolicyOverrides; got != 0 {
				t.Errorf("PolicyOverrides = %d, want 0 under the default policy", got)
			}
		})
	}
}

// TestDecideRetryModeAllPolicies drives the same table through every
// built-in policy. In their neutral state (no learned history, budget not
// exhausted) all three honour the mechanism proposal, so the table must hold
// unchanged: policies differ in budgets, backoff, and learned divergence —
// not in the §4.3 tree itself.
func TestDecideRetryModeAllPolicies(t *testing.T) {
	for _, name := range policy.Names() {
		spec, err := policy.Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		for _, tc := range decisionRows() {
			t.Run(fmt.Sprintf("%s/%s", name, tc.name), func(t *testing.T) {
				c := decisionCore(t, tc, spec)
				checkDecisionRow(t, c, tc)
			})
		}
	}
}

// TestDecideRetryModeEWMADivergence pins the one place a built-in policy is
// allowed to leave the table: once the EWMA success rate of an AR falls
// below the floor, a plain speculative proposal is serialized to fallback
// (and counted as an override), while cacheline-locked proposals are still
// honoured and other ARs are unaffected.
func TestDecideRetryModeEWMADivergence(t *testing.T) {
	spec, err := policy.Parse("ewma:alpha=0.5,floor=0.2")
	if err != nil {
		t.Fatal(err)
	}
	specRow := decisionRow{clear: true, mode: ModeSpeculative,
		reason: htm.AbortMemoryConflict, want: clear.RetrySpeculative}

	// Three speculative aborts at alpha=0.5 drive AR 1's rate to
	// 0.125 < 0.2: the policy now refuses to speculate on it.
	sour := func(c *Core) {
		for i := 0; i < 3; i++ {
			c.pol.OnAbort(policy.Outcome{ProgID: 1, Mode: stats.CommitSpeculative})
		}
	}

	t.Run("spec-proposal-serialized", func(t *testing.T) {
		c := decisionCore(t, specRow, spec)
		sour(c)
		c.decideRetryMode(specRow.reason)
		if c.lastProposed != clear.RetrySpeculative {
			t.Fatalf("proposed = %v, want speculative", c.lastProposed)
		}
		if c.retryMode != clear.RetryFallback {
			t.Errorf("retryMode = %v, want fallback once rate < floor", c.retryMode)
		}
		if got := c.m.Stats.PolicyOverrides; got != 1 {
			t.Errorf("PolicyOverrides = %d, want 1", got)
		}
		if !c.pol.PreferNonSpec(1) {
			t.Error("PreferNonSpec(1) = false, want true below the floor")
		}
	})

	t.Run("cl-proposal-honoured", func(t *testing.T) {
		row := decisionRow{clear: true, mode: ModeFailedDiscovery,
			reason: htm.AbortMemoryConflict, disc: decDiscImmutable,
			want: clear.RetryNSCL, wantAssessed: true}
		c := decisionCore(t, row, spec)
		sour(c)
		checkDecisionRow(t, c, row)
		if got := c.m.Stats.PolicyOverrides; got != 0 {
			t.Errorf("PolicyOverrides = %d, want 0 for an NS-CL proposal", got)
		}
	})

	t.Run("other-ars-unaffected", func(t *testing.T) {
		c := decisionCore(t, specRow, spec)
		sour(c)
		c.inv = Invocation{Prog: &isa.Program{ID: 2, Name: "decision-test-other"}}
		c.decideRetryMode(specRow.reason)
		if c.retryMode != clear.RetrySpeculative {
			t.Errorf("retryMode = %v, want speculative for an unsoured AR", c.retryMode)
		}
	})
}
