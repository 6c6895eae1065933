package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

func counterProg(id int) *isa.Program {
	b := isa.NewBuilder("counter/add")
	b.Load(isa.R8, isa.R0, 0)
	b.Addi(isa.R8, isa.R8, 1)
	b.Store(isa.R0, 0, isa.R8)
	b.Halt()
	return b.Build(id)
}

// runCounter executes the canonical atomicity litmus test: every core
// repeatedly increments one shared counter inside an AR. Any lost update —
// under any configuration and interleaving — is a protocol bug.
func runCounter(t *testing.T, cfg SystemConfig, cores, ops int, seed uint64) {
	t.Helper()
	memory := mem.NewMemory(0x10000)
	x := memory.AllocLine()
	cfg.Cores = cores
	cfg.Seed = seed
	m, err := NewMachine(cfg, memory)
	if err != nil {
		t.Fatal(err)
	}
	prog := counterProg(1)
	feeds := make([]InvocationSource, cores)
	for i := range feeds {
		invs := make([]Invocation, ops)
		for j := range invs {
			invs[j] = Invocation{Prog: prog, Regs: []RegInit{{Reg: isa.R0, Val: uint64(x)}}}
		}
		feeds[i] = &SliceSource{Invs: invs}
	}
	m.AttachFeeds(feeds)
	if err := m.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	want := uint64(cores * ops)
	if got := memory.ReadWord(x); got != want {
		t.Fatalf("cores=%d seed=%d: counter=%d want %d (lost updates)", cores, seed, got, want)
	}
	if m.Stats.Commits != want {
		t.Fatalf("commits=%d want %d", m.Stats.Commits, want)
	}
	if m.Dir.LockedLines() != 0 {
		t.Fatalf("%d cachelines left locked after completion", m.Dir.LockedLines())
	}
	if m.Fallback.WriterHeld() || !m.Fallback.Readers().Empty() {
		t.Fatal("fallback lock left held after completion")
	}
	if m.Power.Held() {
		t.Fatal("power token left held after completion")
	}
}

// TestAtomicCounterAllConfigs sweeps core counts and seeds across the four
// evaluated configurations with strict cache/directory consistency checks
// enabled.
func TestAtomicCounterAllConfigs(t *testing.T) {
	StrictChecks = true
	defer func() { StrictChecks = false }()
	type variant struct {
		name           string
		clear, powertm bool
	}
	for _, v := range []variant{
		{"B", false, false},
		{"P", false, true},
		{"C", true, false},
		{"W", true, true},
	} {
		t.Run(v.name, func(t *testing.T) {
			for cores := 2; cores <= 8; cores *= 2 {
				for seed := uint64(1); seed <= 12; seed++ {
					cfg := DefaultSystemConfig()
					cfg.CLEAR = v.clear
					cfg.PowerTM = v.powertm
					cfg.RetryLimit = 2 + int(seed%4)
					runCounter(t, cfg, cores, 25, seed)
				}
			}
		})
	}
}

// TestAtomicCounterNSCL checks that under CLEAR the single-line counter AR
// converts to NS-CL (it is immutable and trivially lockable) and commits on
// the first retry.
func TestAtomicCounterNSCL(t *testing.T) {
	memory := mem.NewMemory(0x10000)
	x := memory.AllocLine()
	cfg := DefaultSystemConfig()
	cfg.Cores = 8
	cfg.CLEAR = true
	m, err := NewMachine(cfg, memory)
	if err != nil {
		t.Fatal(err)
	}
	prog := counterProg(1)
	feeds := make([]InvocationSource, cfg.Cores)
	for i := range feeds {
		invs := make([]Invocation, 50)
		for j := range invs {
			invs[j] = Invocation{Prog: prog, Regs: []RegInit{{Reg: isa.R0, Val: uint64(x)}}}
		}
		feeds[i] = &SliceSource{Invs: invs}
	}
	m.AttachFeeds(feeds)
	if err := m.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Stats.NSCLAttempts == 0 {
		t.Fatal("contended immutable AR never attempted NS-CL")
	}
	if m.Stats.CommitsByMode[2] == 0 { // stats.CommitNSCL
		t.Fatal("contended immutable AR never committed in NS-CL")
	}
	if m.Stats.CommitsByMode[3] != 0 { // stats.CommitFallback
		t.Fatalf("NS-CL workload fell back %d times", m.Stats.CommitsByMode[3])
	}
}

// TestSystemConfigValidate pins each bound Validate enforces: the bound is
// accepted and one step past it is rejected. A zero poll period would stop
// simulated time while a core waits on the fallback lock, and an oversized
// ERT or CRT is allocated whole for every core; the smallest legal poll
// period still runs a contended counter to completion.
func TestSystemConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		field   string
		set     func(*SystemConfig, int)
		ok, bad int
	}{
		{"Cores", func(c *SystemConfig, v int) { c.Cores = v }, 1, 0},
		{"Cores", func(c *SystemConfig, v int) { c.Cores = v }, 64, 65},
		{"RetryLimit", func(c *SystemConfig, v int) { c.RetryLimit = v }, 1, 0},
		{"SQEntries", func(c *SystemConfig, v int) { c.SQEntries = v }, 1, 0},
		{"SpinInterval", func(c *SystemConfig, v int) { c.SpinInterval = sim.Tick(v) }, 1, 0},
		{"ERTEntries", func(c *SystemConfig, v int) { c.ERTEntries = v }, maxTableEntries, maxTableEntries + 1},
		{"CRTEntries", func(c *SystemConfig, v int) { c.CRTEntries = v }, maxTableEntries, maxTableEntries + 1},
	} {
		cfg := DefaultSystemConfig()
		tc.set(&cfg, tc.ok)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s = %d rejected: %v", tc.field, tc.ok, err)
		}
		tc.set(&cfg, tc.bad)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s = %d accepted", tc.field, tc.bad)
		}
	}

	cfg := DefaultSystemConfig()
	cfg.SpinInterval = 0
	if _, err := NewMachine(cfg, mem.NewMemory(0x1000)); err == nil {
		t.Fatal("NewMachine accepted SpinInterval 0")
	}
	cfg.SpinInterval = 1
	runCounter(t, cfg, 8, 20, 1)
}
