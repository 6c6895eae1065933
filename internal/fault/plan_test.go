package fault

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestPresetsValidate asserts every named preset passes its own validation —
// a preset that cannot run would make the campaign CLI unusable.
func TestPresetsValidate(t *testing.T) {
	for _, name := range Presets() {
		p, err := PresetPlan(name)
		if err != nil {
			t.Fatalf("preset %q: %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("preset %q does not validate: %v", name, err)
		}
	}
	if _, err := PresetPlan("no-such-preset"); err == nil {
		t.Error("unknown preset name did not error")
	}
}

// TestKindStringRoundTrip asserts every kind's name resolves back to itself
// (the clearchaos -faults parser depends on it).
func TestKindStringRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < NumKinds; k++ {
		s := k.String()
		if strings.HasPrefix(s, "kind(") {
			t.Errorf("kind %d has no name", int(k))
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
		back, ok := KindFromString(s)
		if !ok || back != k {
			t.Errorf("KindFromString(%q) = %v, %v; want %v, true", s, back, ok, k)
		}
	}
	if _, ok := KindFromString("bogus"); ok {
		t.Error("KindFromString accepted a bogus name")
	}
}

// planted reports whether k is a planted bug rather than a tolerable
// fault; no tolerable-fault preset enables one.
func planted(k Kind) bool {
	return k == KindSecondSpecRetry || k == KindLostInvalidation
}

// TestDisableEnabled asserts Disable(k) turns exactly kind k off, over the
// default preset plus every planted bug.
func TestDisableEnabled(t *testing.T) {
	full, err := PresetPlan("default")
	if err != nil {
		t.Fatal(err)
	}
	full.SecondSpecRetryRate = 0.5
	full.LostInvalidationRate = 0.5
	for k := Kind(0); k < NumKinds; k++ {
		if !full.Enabled(k) {
			t.Fatalf("test plan should enable %v", k)
		}
		p := full.Clone().Disable(k)
		if p.Enabled(k) {
			t.Errorf("Disable(%v) left the kind enabled", k)
		}
		for o := Kind(0); o < NumKinds; o++ {
			if o != k && !p.Enabled(o) {
				t.Errorf("Disable(%v) also disabled %v", k, o)
			}
		}
	}
	def, err := PresetPlan("default")
	if err != nil {
		t.Fatal(err)
	}
	for k := Kind(0); k < NumKinds; k++ {
		if def.Enabled(k) == planted(k) {
			t.Errorf("default preset: Enabled(%v) = %v, want %v", k, def.Enabled(k), !planted(k))
		}
	}
}

// TestRestrict asserts Restrict keeps only the named kinds.
func TestRestrict(t *testing.T) {
	p, err := PresetPlan("default")
	if err != nil {
		t.Fatal(err)
	}
	p.Restrict(map[Kind]bool{KindNack: true, KindDirStall: true})
	for k := Kind(0); k < NumKinds; k++ {
		want := k == KindNack || k == KindDirStall
		if p.Enabled(k) != want {
			t.Errorf("after Restrict, Enabled(%v) = %v, want %v", k, p.Enabled(k), want)
		}
	}
}

// TestShrinkPlanIsolatesKind runs the shrinker against a synthetic failure
// predicate (fails iff NACKs can fire) and expects the minimal plan to keep
// only the NACK kind, at a reduced rate.
func TestShrinkPlanIsolatesKind(t *testing.T) {
	full, err := PresetPlan("default")
	if err != nil {
		t.Fatal(err)
	}
	failing := func(p *Plan) bool { return p.Enabled(KindNack) }
	min := ShrinkPlan(full, failing)
	if !failing(min) {
		t.Fatal("shrunk plan no longer satisfies the failure predicate")
	}
	for k := Kind(0); k < NumKinds; k++ {
		if k == KindNack {
			continue
		}
		if min.Enabled(k) {
			t.Errorf("shrunk plan still enables irrelevant kind %v", k)
		}
	}
	if min.NackRate >= full.NackRate {
		t.Errorf("shrinker did not reduce the surviving rate: %g >= %g", min.NackRate, full.NackRate)
	}
}

// TestShrinkPlanPassingInput asserts a plan that does not fail is returned
// unchanged (no spurious mutation of a healthy plan).
func TestShrinkPlanPassingInput(t *testing.T) {
	p, err := PresetPlan("storm")
	if err != nil {
		t.Fatal(err)
	}
	min := ShrinkPlan(p, func(*Plan) bool { return false })
	if min.String() != p.String() {
		t.Errorf("shrinking a passing plan changed it: %s -> %s", p, min)
	}
}

// TestEmptyPlan asserts the zero plan is empty and renders as such.
func TestEmptyPlan(t *testing.T) {
	var p Plan
	if !p.Empty() {
		t.Error("zero plan is not Empty")
	}
	if p.String() != "empty" {
		t.Errorf("zero plan renders as %q", p.String())
	}
	off, err := PresetPlan("off")
	if err != nil {
		t.Fatal(err)
	}
	if !off.Empty() {
		t.Error(`preset "off" is not empty`)
	}
}

// TestValidateCapsTicks: every tick-valued field is accepted at maxTicks
// and rejected one tick above it. A plan decoded from the farm wire must
// not wrap a latency or panic a delay draw.
func TestValidateCapsTicks(t *testing.T) {
	for name, set := range map[string]func(p *Plan, v sim.Tick){
		"EventDelayMax":        func(p *Plan, v sim.Tick) { p.EventDelayRate, p.EventDelayMax = 1, v },
		"StallTicks":           func(p *Plan, v sim.Tick) { p.StallRate, p.StallTicks = 1, v },
		"LockStallTicks":       func(p *Plan, v sim.Tick) { p.LockStallRate, p.LockStallTicks = 1, v },
		"LockedLineDelayTicks": func(p *Plan, v sim.Tick) { p.LockedLineDelayRate, p.LockedLineDelayTicks = 1, v },
		"PowerDenyPeriod":      func(p *Plan, v sim.Tick) { p.PowerDenyPeriod, p.PowerDenyWindow = v, 1 },
		"PowerDenyWindow":      func(p *Plan, v sim.Tick) { p.PowerDenyWindow = v },
		"HolderStallTicks":     func(p *Plan, v sim.Tick) { p.HolderStallRate, p.HolderStallTicks = 1, v },
	} {
		var at, above Plan
		set(&at, maxTicks)
		set(&above, maxTicks+1)
		if err := at.Validate(); err != nil {
			t.Errorf("%s = %d rejected: %v", name, maxTicks, err)
		}
		if err := above.Validate(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s = %d: got %v, want an error naming the field", name, maxTicks+1, err)
		}
	}
}
