package metrics

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/htm"
	"repro/internal/mem"
)

// TestCollectorAbortReasonOverflow pins the collector's overflow guard:
// out-of-range reasons (corrupt data, or an enum that outgrew the counter
// array) land in the visible clear_aborts_total{reason="overflow"} series
// instead of indexing out of bounds or vanishing, while an in-range reason
// counts under its own name.
func TestCollectorAbortReasonOverflow(t *testing.T) {
	m, err := cpu.NewMachine(cpu.DefaultSystemConfig(), mem.NewMemory(0x10000))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	c := Attach(m, reg)
	for _, r := range []htm.AbortReason{99, -1, htm.AbortMemoryConflict} {
		c.OnAttemptEnd(cpu.AttemptEndInfo{Core: 0, Reason: r})
	}
	aborts := func(reason string) uint64 {
		return reg.Counter("clear_aborts_total", "", Label{"reason", reason}).Value()
	}
	if got := aborts("overflow"); got != 2 {
		t.Fatalf(`clear_aborts_total{reason="overflow"} = %d, want 2`, got)
	}
	if got := aborts(htm.AbortMemoryConflict.String()); got != 1 {
		t.Fatalf(`clear_aborts_total{reason="memory-conflict"} = %d, want 1`, got)
	}
}
