package cpu

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// refExec is a plain Go reference interpreter for loop-free programs: the
// differential oracle for the simulator's instruction semantics. It returns
// the lines the program loads and stores, in first-touch order, each marked
// with whether a store hits it.
func refExec(p *isa.Program, regs map[isa.Reg]uint64, memory map[mem.Addr]uint64) (touched []isa.FootprintAccess) {
	var r [isa.NumRegs]uint64
	for k, v := range regs {
		r[k] = v
	}
	touch := func(a mem.Addr, written bool) {
		for i := range touched {
			if touched[i].Line == a.Line() {
				touched[i].Written = touched[i].Written || written
				return
			}
		}
		touched = append(touched, isa.FootprintAccess{Line: a.Line(), Written: written})
	}
	pc := 0
	for steps := 0; steps < 10000; steps++ {
		in := p.Code[pc]
		switch in.Op {
		case isa.OpNop:
		case isa.OpLoadImm:
			r[in.Dst] = uint64(in.Imm)
		case isa.OpMov:
			r[in.Dst] = r[in.Src1]
		case isa.OpAdd:
			r[in.Dst] = r[in.Src1] + r[in.Src2]
		case isa.OpAddImm:
			r[in.Dst] = r[in.Src1] + uint64(in.Imm)
		case isa.OpSub:
			r[in.Dst] = r[in.Src1] - r[in.Src2]
		case isa.OpMulImm:
			r[in.Dst] = r[in.Src1] * uint64(in.Imm)
		case isa.OpAndImm:
			r[in.Dst] = r[in.Src1] & uint64(in.Imm)
		case isa.OpShrImm:
			r[in.Dst] = r[in.Src1] >> uint64(in.Imm)
		case isa.OpXor:
			r[in.Dst] = r[in.Src1] ^ r[in.Src2]
		case isa.OpLoad:
			a := mem.Addr(r[in.Src1] + uint64(in.Imm))
			touch(a, false)
			r[in.Dst] = memory[a]
		case isa.OpStore:
			a := mem.Addr(r[in.Src1] + uint64(in.Imm))
			touch(a, true)
			memory[a] = r[in.Src2]
		case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
			a, b := r[in.Src1], r[in.Src2]
			taken := false
			switch in.Op {
			case isa.OpBeq:
				taken = a == b
			case isa.OpBne:
				taken = a != b
			case isa.OpBlt:
				taken = a < b
			case isa.OpBge:
				taken = a >= b
			}
			if taken {
				pc = int(in.Imm)
				continue
			}
		case isa.OpHalt:
			return touched
		}
		pc++
	}
	return touched
}

// genRandomProgram builds a random but well-formed AR over a small arena:
// ALU ops on registers plus loads/stores through two arena base registers
// with random (aligned, in-range) offsets, and forward-only branches so the
// program always terminates.
func genRandomProgram(rng *sim.RNG, arenaWords int) *isa.Program {
	b := isa.NewBuilder("fuzz")
	n := 4 + rng.Intn(24)
	labels := 0
	pending := -1 // instructions until the pending label binds
	for i := 0; i < n; i++ {
		if pending == 0 {
			b.Label(labelName(labels))
			labels++
			pending = -1
		} else if pending > 0 {
			pending--
		}
		dst := isa.Reg(4 + rng.Intn(8)) // r4..r11, keep r0/r1 as arena bases
		s1 := isa.Reg(rng.Intn(12))
		s2 := isa.Reg(rng.Intn(12))
		off := int64(rng.Intn(arenaWords) * 8)
		switch rng.Intn(10) {
		case 0:
			b.Li(dst, int64(rng.Intn(1000)))
		case 1:
			b.Mov(dst, s1)
		case 2:
			b.Add(dst, s1, s2)
		case 3:
			b.Addi(dst, s1, int64(rng.Intn(64)))
		case 4:
			b.Xor(dst, s1, s2)
		case 5:
			b.Shri(dst, s1, int64(rng.Intn(8)))
		case 6:
			b.Load(dst, isa.R0, off)
		case 7:
			b.Load(dst, isa.R1, off)
		case 8:
			b.Store(isa.R0, off, s1)
		case 9:
			if pending < 0 {
				// Forward branch to a label bound a few instructions later.
				b.Beq(s1, s2, labelName(labels))
				pending = 1 + rng.Intn(3)
			} else {
				b.Store(isa.R1, off, s1)
			}
		}
	}
	if pending >= 0 {
		b.Label(labelName(labels))
	}
	b.Halt()
	return b.Build(1)
}

func labelName(i int) string { return string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) }

// TestDifferentialSemantics: random programs produce identical arena
// contents on the simulator (single core, conflict-free) and the reference
// interpreter.
func TestDifferentialSemantics(t *testing.T) {
	const arenaWords = 16
	prop := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		prog := genRandomProgram(rng, arenaWords)

		// Arena: two line-aligned regions with random initial contents.
		memory := mem.NewMemory(0x10000)
		a0 := memory.Alloc(arenaWords*8, mem.LineSize)
		a1 := memory.Alloc(arenaWords*8, mem.LineSize)
		ref := map[mem.Addr]uint64{}
		for w := 0; w < arenaWords; w++ {
			v0, v1 := rng.Uint64()%1000, rng.Uint64()%1000
			memory.WriteWord(a0+mem.Addr(w*8), v0)
			memory.WriteWord(a1+mem.Addr(w*8), v1)
			ref[a0+mem.Addr(w*8)] = v0
			ref[a1+mem.Addr(w*8)] = v1
		}
		presets := map[isa.Reg]uint64{isa.R0: uint64(a0), isa.R1: uint64(a1)}

		refExec(prog, presets, ref)

		cfg := DefaultSystemConfig()
		cfg.Cores = 1
		m, err := NewMachine(cfg, memory)
		if err != nil {
			t.Fatal(err)
		}
		m.AttachFeeds([]InvocationSource{&SliceSource{Invs: []Invocation{{
			Prog: prog,
			Regs: []RegInit{{Reg: isa.R0, Val: uint64(a0)}, {Reg: isa.R1, Val: uint64(a1)}},
		}}}})
		if err := m.Run(10_000_000); err != nil {
			t.Logf("program:\n%s", isa.Disassemble(prog))
			t.Fatal(err)
		}
		for w := 0; w < arenaWords; w++ {
			for _, base := range []mem.Addr{a0, a1} {
				addr := base + mem.Addr(w*8)
				if memory.ReadWord(addr) != ref[addr] {
					t.Logf("divergence at %s: sim=%d ref=%d\nprogram:\n%s",
						addr, memory.ReadWord(addr), ref[addr], isa.Disassemble(prog))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestEvalFootprintMatchesReference: whenever the static evaluator accepts
// a random program, the footprint it computes from the two preset arena
// bases alone is exactly what the reference interpreter touches running the
// program on concrete memory: the same lines, in the same order, with the
// same written flags. The arena spans eight lines per base, so a path that
// differs usually touches different lines. The sample must hold both
// verdicts: programs whose branches read loaded values are refused.
func TestEvalFootprintMatchesReference(t *testing.T) {
	const arenaWords = 64
	a0 := mem.Addr(0x10000)
	a1 := a0 + arenaWords*8
	var accepted, refused int
	for seed := uint64(1); seed <= 2000; seed++ {
		rng := sim.NewRNG(seed)
		prog := genRandomProgram(rng, arenaWords)
		ref := map[mem.Addr]uint64{}
		for w := 0; w < arenaWords; w++ {
			ref[a0+mem.Addr(w*8)] = rng.Uint64() % 1000
			ref[a1+mem.Addr(w*8)] = rng.Uint64() % 1000
		}
		want := refExec(prog, map[isa.Reg]uint64{isa.R0: uint64(a0), isa.R1: uint64(a1)}, ref)

		var regs [isa.NumRegs]uint64
		regs[isa.R0], regs[isa.R1] = uint64(a0), uint64(a1)
		got, ok := isa.EvalFootprint(prog, regs)
		if !ok {
			refused++
			continue
		}
		accepted++
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: EvalFootprint = %v, reference touched %v\nprogram:\n%s",
				seed, got, want, isa.Disassemble(prog))
		}
	}
	if accepted == 0 || refused == 0 {
		t.Fatalf("sample lacks a verdict: %d accepted, %d refused", accepted, refused)
	}
}

// TestDifferentialSemanticsUnderCLEAR: the same differential property holds
// with CLEAR enabled and several cores running disjoint random programs
// concurrently — machine-level interleaving must not perturb per-core
// semantics.
func TestDifferentialSemanticsUnderCLEAR(t *testing.T) {
	const arenaWords = 8
	prop := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		const cores = 4
		memory := mem.NewMemory(0x100000)

		type plan struct {
			prog *isa.Program
			a0   mem.Addr
			ref  map[mem.Addr]uint64
		}
		plans := make([]plan, cores)
		for i := range plans {
			prog := genRandomProgram(rng, arenaWords)
			a0 := memory.Alloc(arenaWords*8, mem.LineSize)
			ref := map[mem.Addr]uint64{}
			for w := 0; w < arenaWords; w++ {
				v := rng.Uint64() % 1000
				memory.WriteWord(a0+mem.Addr(w*8), v)
				ref[a0+mem.Addr(w*8)] = v
			}
			// Both base registers point at the core's private arena.
			refExec(prog, map[isa.Reg]uint64{isa.R0: uint64(a0), isa.R1: uint64(a0)}, ref)
			plans[i] = plan{prog, a0, ref}
		}

		cfg := DefaultSystemConfig()
		cfg.Cores = cores
		cfg.CLEAR = true
		cfg.Seed = seed
		m, err := NewMachine(cfg, memory)
		if err != nil {
			t.Fatal(err)
		}
		feeds := make([]InvocationSource, cores)
		for i, pl := range plans {
			feeds[i] = &SliceSource{Invs: []Invocation{{
				Prog: pl.prog,
				Regs: []RegInit{{Reg: isa.R0, Val: uint64(pl.a0)}, {Reg: isa.R1, Val: uint64(pl.a0)}},
			}}}
		}
		m.AttachFeeds(feeds)
		if err := m.Run(100_000_000); err != nil {
			t.Fatal(err)
		}
		for _, pl := range plans {
			for addr, want := range pl.ref {
				if memory.ReadWord(addr) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
