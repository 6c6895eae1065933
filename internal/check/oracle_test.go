package check

import (
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/mem"
)

// newTestMachine builds an idle machine with the given core count and an
// oracle attached to it.
func newTestMachine(t *testing.T, cores int) (*cpu.Machine, *Oracle) {
	t.Helper()
	cfg := cpu.DefaultSystemConfig()
	cfg.Cores = cores
	m, err := cpu.NewMachine(cfg, mem.NewMemory(0x10000))
	if err != nil {
		t.Fatal(err)
	}
	return m, Attach(m)
}

// TestOracleCatchesWaitCycle: core 0 holds line B's cacheline lock and core 1
// holds line A's, then each spins on the other's line — the deadlock the
// lexicographic lock walk rules out. The retry that closes the cycle must
// produce exactly one lock-order violation, naming both cores.
func TestOracleCatchesWaitCycle(t *testing.T) {
	m, o := newTestMachine(t, 2)
	lineA, lineB := mem.Addr(0x1000).Line(), mem.Addr(0x2000).Line()
	lock := func(core int, line mem.LineAddr) coherence.LockResult {
		return m.Dir.Lock(core, line, coherence.ReqAttrs{})
	}

	if r := lock(0, lineB); r.Retry || r.Nacked {
		t.Fatalf("core 0 could not lock B: %+v", r)
	}
	if r := lock(1, lineA); r.Retry || r.Nacked {
		t.Fatalf("core 1 could not lock A: %+v", r)
	}
	if r := lock(0, lineA); !r.Retry {
		t.Fatalf("core 0 was not told to retry on A: %+v", r)
	}
	if n := o.ViolationCount(); n != 0 {
		t.Fatalf("%d violation(s) before the cycle closed: %v", n, o.Violations())
	}
	if r := lock(1, lineB); !r.Retry {
		t.Fatalf("core 1 was not told to retry on B: %+v", r)
	}

	vs := o.Violations()
	if len(vs) != 1 || o.ViolationCount() != 1 {
		t.Fatalf("want exactly one violation, got %d: %v", o.ViolationCount(), vs)
	}
	v := vs[0]
	if v.Property != PropLockOrder || v.Core != 1 || !strings.Contains(v.Msg, "cores [1 0]") {
		t.Fatalf("violation does not name the 1 -> 0 wait cycle: %v", v)
	}
	if err := o.Check(); err == nil || !strings.Contains(err.Error(), "lock-order") {
		t.Fatalf("Check did not return the violation: %v", err)
	}
}

// TestOracleLiveness: with an invocation in flight, Check tolerates a commit
// gap of exactly LivelockWindow ticks and reports a liveness violation one
// tick later; a commit restarts the window.
func TestOracleLiveness(t *testing.T) {
	m, o := newTestMachine(t, 2)
	o.OnInvocationStart(0, 0)

	m.Engine.RunUntil(LivelockWindow)
	if err := o.Check(); err != nil {
		t.Fatalf("gap of exactly LivelockWindow reported: %v", err)
	}
	o.OnCommit(cpu.CommitInfo{Core: 0, Mode: cpu.ModeFallback})
	o.OnInvocationStart(0, 0)
	m.Engine.RunUntil(2 * LivelockWindow)
	if err := o.Check(); err != nil {
		t.Fatalf("commit did not restart the liveness window: %v", err)
	}

	m.Engine.RunUntil(2*LivelockWindow + 1)
	err := o.Check()
	if err == nil {
		t.Fatal("no liveness violation after LivelockWindow+1 ticks without a commit")
	}
	if vs := o.Violations(); len(vs) != 1 || vs[0].Property != PropLiveness {
		t.Fatalf("want one liveness violation, got %v", vs)
	}
	if !strings.Contains(err.Error(), "livelock") {
		t.Fatalf("error does not name the livelock: %v", err)
	}
}
