// Bankaudit: a custom workload mixing the three AR archetypes of the paper
// (§3) — immutable transfers between fixed slots, likely-immutable updates
// through a read-only pointer table, and mutable audit scans that traverse a
// linked ledger — executed under all four evaluated configurations.
//
// The example shows how the decision tree routes each archetype to a
// different re-execution mode: transfers convert to NS-CL, pointer updates
// to S-CL, and the scans stay on the speculative/fallback path whenever the
// ledger outgrows the discovery window.
//
//	go run ./examples/bankaudit
package main

import (
	"fmt"
	"log"

	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

const (
	cores    = 16
	accounts = 24
	ops      = 150
)

type bank struct {
	memory   *mem.Memory
	slots    []mem.Addr // direct accounts
	table    mem.Addr   // pointer table to premium accounts
	premium  []mem.Addr
	ledger   mem.Addr // linked list of audit records
	transfer *isa.Program
	bonus    *isa.Program
	audit    *isa.Program
}

func buildBank() *bank {
	bk := &bank{memory: mem.NewMemory(0x100000)}

	// Immutable AR: move R2 units between the slots at R0 and R1.
	b := isa.NewBuilder("bank/transfer")
	b.Load(isa.R8, isa.R0, 0)
	b.Sub(isa.R8, isa.R8, isa.R2)
	b.Store(isa.R0, 0, isa.R8)
	b.Load(isa.R9, isa.R1, 0)
	b.Add(isa.R9, isa.R9, isa.R2)
	b.Store(isa.R1, 0, isa.R9)
	b.Halt()
	bk.transfer = b.Build(1)

	// Likely-immutable AR: credit a premium account found through the
	// never-rewritten pointer table slot at R0.
	b = isa.NewBuilder("bank/bonus").DeclareIndirectionsImmutable()
	b.Load(isa.R8, isa.R0, 0)
	b.Load(isa.R9, isa.R8, 0)
	b.Add(isa.R9, isa.R9, isa.R2)
	b.Store(isa.R8, 0, isa.R9)
	b.Halt()
	bk.bonus = b.Build(2)

	// Mutable AR: walk the audit ledger counting entries tagged R1, then
	// append the count to the thread's result slot R2.
	b = isa.NewBuilder("bank/audit")
	b.Li(isa.R9, 0)
	b.Load(isa.R8, isa.R0, 0)
	b.Label("loop")
	b.Beq(isa.R8, isa.R14, "done")
	b.Load(isa.R10, isa.R8, 0) // tag
	b.Bne(isa.R10, isa.R1, "next")
	b.Addi(isa.R9, isa.R9, 1)
	b.Label("next")
	b.Load(isa.R8, isa.R8, 8) // next
	b.Jump("loop")
	b.Label("done")
	b.Store(isa.R2, 0, isa.R9)
	b.Halt()
	bk.audit = b.Build(3)

	// Data: accounts with 10_000 units each.
	bk.slots = make([]mem.Addr, accounts)
	for i := range bk.slots {
		bk.slots[i] = bk.memory.AllocLine()
		bk.memory.WriteWord(bk.slots[i], 10_000)
	}
	bk.table = bk.memory.AllocWords(8, mem.LineSize)
	bk.premium = make([]mem.Addr, 8)
	for i := range bk.premium {
		bk.premium[i] = bk.memory.AllocLine()
		bk.memory.WriteWord(bk.premium[i], 10_000)
		bk.memory.WriteWord(bk.table+mem.Addr(i*8), uint64(bk.premium[i]))
	}
	// A 20-record audit ledger (small enough for discovery to hold).
	bk.ledger = bk.memory.AllocLine()
	var head uint64
	for i := 0; i < 20; i++ {
		n := bk.memory.AllocLine()
		bk.memory.WriteWord(n+0, uint64(i%4)) // tag
		bk.memory.WriteWord(n+8, head)        // next
		head = uint64(n)
	}
	bk.memory.WriteWord(bk.ledger, head)
	return bk
}

func (bk *bank) totalFunds() uint64 {
	var t uint64
	for _, s := range bk.slots {
		t += bk.memory.ReadWord(s)
	}
	for _, p := range bk.premium {
		t += bk.memory.ReadWord(p)
	}
	return t
}

func main() {
	for _, cfg := range []struct {
		name string
		id   harness.ConfigID
	}{
		{"B  requester-wins", harness.ConfigB},
		{"P  PowerTM", harness.ConfigP},
		{"C  CLEAR", harness.ConfigC},
		{"W  CLEAR+PowerTM", harness.ConfigW},
	} {
		bk := buildBank()
		before := bk.totalFunds()

		sys := cpu.DefaultSystemConfig()
		sys.Cores = cores
		cfg.id.Apply(&sys)
		machine, err := cpu.NewMachine(sys, bk.memory)
		if err != nil {
			log.Fatal(err)
		}

		results := make([]mem.Addr, cores)
		for i := range results {
			results[i] = bk.memory.AllocLine()
		}
		feeds := make([]cpu.InvocationSource, cores)
		for tid := 0; tid < cores; tid++ {
			rng := sim.NewRNG(uint64(tid) + 42)
			// Zipf-skewed account choice: a handful of hot accounts carry
			// most transfers, the contention pattern CLEAR thrives on.
			zipf := sim.NewZipf(rng, 0.9, accounts)
			tid := tid
			n := 0
			feeds[tid] = cpu.FuncSource(func() (cpu.Invocation, bool) {
				if n >= ops {
					return cpu.Invocation{}, false
				}
				n++
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4: // 50% transfers
					i := zipf.Next()
					j := (i + 1 + rng.Intn(accounts-1)) % accounts
					return cpu.Invocation{Prog: bk.transfer, Regs: []cpu.RegInit{
						{Reg: isa.R0, Val: uint64(bk.slots[i])},
						{Reg: isa.R1, Val: uint64(bk.slots[j])},
						{Reg: isa.R2, Val: uint64(1 + rng.Intn(9))},
					}}, true
				case 5, 6, 7: // 30% bonuses
					return cpu.Invocation{Prog: bk.bonus, Regs: []cpu.RegInit{
						{Reg: isa.R0, Val: uint64(bk.table + mem.Addr(rng.Intn(8)*8))},
						{Reg: isa.R2, Val: 0}, // bonus of zero keeps funds conserved
					}}, true
				default: // 20% audits
					return cpu.Invocation{Prog: bk.audit, Regs: []cpu.RegInit{
						{Reg: isa.R0, Val: uint64(bk.ledger)},
						{Reg: isa.R1, Val: uint64(rng.Intn(4))},
						{Reg: isa.R2, Val: uint64(results[tid])},
					}}, true
				}
			})
		}
		machine.AttachFeeds(feeds)
		if err := machine.Run(400_000_000); err != nil {
			log.Fatal(err)
		}
		if after := bk.totalFunds(); after != before {
			log.Fatalf("%s: funds not conserved: %d -> %d", cfg.name, before, after)
		}

		s := machine.Stats
		fmt.Printf("%-18s cycles=%8d  aborts/commit=%5.2f  spec=%4d S-CL=%4d NS-CL=%4d fallback=%4d\n",
			cfg.name, s.Cycles, s.AbortsPerCommit(),
			s.CommitsByMode[0], s.CommitsByMode[1], s.CommitsByMode[2], s.CommitsByMode[3])
	}
}
