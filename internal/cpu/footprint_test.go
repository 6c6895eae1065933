package cpu_test

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestStaticFootprintAllocatesNothing evaluates the static footprints of
// three real ARs the way an attempt-0 entry does under config M, on one
// core over and over: the core's reused scratch makes every evaluation
// after the first allocation-free.
func TestStaticFootprintAllocatesNothing(t *testing.T) {
	for _, tc := range []struct{ bench, ar string }{
		{"arrayswap", "arrayswap/swap"},
		{"arrayswap", "arrayswap/rotate3"},
		{"mwobject", "mwobject/add4"},
	} {
		b, err := workload.New(tc.bench)
		if err != nil {
			t.Fatal(err)
		}
		memory := mem.NewMemory(0x100000)
		rng := sim.NewRNG(1)
		if err := b.Setup(memory, rng, 4); err != nil {
			t.Fatal(err)
		}
		cfg := cpu.DefaultSystemConfig()
		cfg.Cores = 4
		m, err := cpu.NewMachine(cfg, memory)
		if err != nil {
			t.Fatal(err)
		}
		var inv cpu.Invocation
		for src := b.Source(0, rng, 64); inv.Prog == nil || inv.Prog.Name != tc.ar; {
			var ok bool
			if inv, ok = src.Next(); !ok {
				t.Fatalf("%s: no invocation in 64 ops", tc.ar)
			}
		}
		core := m.Cores[0]
		if !core.TryStaticFootprint(inv) {
			t.Fatalf("%s: no static footprint", tc.ar)
		}
		if n := testing.AllocsPerRun(100, func() { core.TryStaticFootprint(inv) }); n != 0 {
			t.Errorf("%s: %v allocations per evaluation, want 0", tc.ar, n)
		}
	}
}
