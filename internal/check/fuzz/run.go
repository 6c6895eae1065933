package fuzz

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/check"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/litmus"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// maxCaseTicks bounds one case run; generated programs are tiny, so hitting
// this means a liveness bug.
const maxCaseTicks sim.Tick = 50_000_000

// Opts tweaks a case run.
type Opts struct {
	// Axiomatic additionally records a memory-access trace of the run and
	// feeds it to the internal/litmus axiomatic checker — a second,
	// independent oracle over the same execution (Result.Axiom).
	Axiomatic bool
	// Plan, when non-nil, attaches the internal/fault injector to every
	// run, so the differential serial-replay check also validates the
	// machine under environmental perturbation. The injector's own seed is
	// mixed per (case, config), keeping each run deterministic. A plan's
	// planted bugs are what the oracles must catch: SecondSpecRetryRate
	// (meaningful for the CLEAR configs C and W) trips the single-retry
	// invariant, and LostInvalidationRate corrupts ordering that the
	// axiomatic checker catches even when the final memory matches the
	// serial replay.
	Plan *fault.Plan
	// Policy selects the retry policy every case runs under (zero value =
	// paper-exact default): the differential and axiomatic oracles must
	// hold for adaptive policies too.
	Policy policy.Spec
}

// Result is the outcome of running one case under one configuration.
type Result struct {
	Config harness.ConfigID
	// Digest is the deterministic statistics digest of the run (the replay
	// witness: the same seed must reproduce it bit-identically).
	Digest string
	// Violations are the oracle's findings (capped); ViolationCount is the
	// true total.
	Violations     []check.Violation
	ViolationCount int
	// Mismatch describes a differential failure (simulated final memory vs
	// serial replay in commit order); empty when the state serializes.
	Mismatch string
	// Axiom is the litmus axiomatic checker's verdict over the run's trace
	// (Opts.Axiomatic); nil when the axiomatic oracle was off.
	Axiom *litmus.Verdict
	// RunErr is a machine-level failure (deadlock, livelock, tick budget).
	RunErr error
}

// Failed reports whether the result shows any problem.
func (r Result) Failed() bool {
	return r.ViolationCount > 0 || r.Mismatch != "" || r.RunErr != nil ||
		(r.Axiom != nil && !r.Axiom.OK())
}

func (r Result) String() string {
	if !r.Failed() {
		return fmt.Sprintf("%s: ok (digest %s)", r.Config, shortDigest(r.Digest))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: FAILED", r.Config)
	if r.RunErr != nil {
		fmt.Fprintf(&b, "\n  run error: %v", r.RunErr)
	}
	if r.ViolationCount > 0 {
		fmt.Fprintf(&b, "\n  %d invariant violation(s):", r.ViolationCount)
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "\n    %s", v)
		}
	}
	if r.Mismatch != "" {
		fmt.Fprintf(&b, "\n  differential mismatch: %s", r.Mismatch)
	}
	if r.Axiom != nil && !r.Axiom.OK() {
		fmt.Fprintf(&b, "\n  axiomatic: %s", strings.ReplaceAll(r.Axiom.String(), "\n", "\n  "))
	}
	return b.String()
}

func shortDigest(d string) string {
	if len(d) > 40 {
		return d[:40] + "..."
	}
	return d
}

// initPool writes the case's deterministic pool image into memory: word 0 of
// each line holds the base address of the line its Ptr names, words 1..7
// hold the data values.
func initPool(m *mem.Memory, cs *Case) {
	for i, pl := range cs.Pool {
		base := poolLineBase(i)
		m.WriteWord(base, uint64(poolLineBase(pl.Ptr)))
		for w, v := range pl.Data {
			m.WriteWord(base+mem.Addr((w+1)*mem.WordSize), v)
		}
	}
}

// poolImage reads the current pool contents from memory.
func poolImage(m *mem.Memory, cs *Case) []uint64 {
	img := make([]uint64, 0, len(cs.Pool)*mem.WordsPerLine)
	for i := range cs.Pool {
		base := poolLineBase(i)
		for w := 0; w < mem.WordsPerLine; w++ {
			img = append(img, m.ReadWord(base+mem.Addr(w*mem.WordSize)))
		}
	}
	return img
}

// RunCase executes the case under one configuration with the invariant
// oracle attached, then differentially validates the final memory against a
// serial replay of the observed commit order.
func RunCase(cs *Case, cfg harness.ConfigID, opts Opts) Result {
	res := Result{Config: cfg}

	sys := cpu.DefaultSystemConfig()
	sys.Cores = cs.Cores()
	cfg.Apply(&sys)
	sys.Seed = cs.Seed*4 + uint64(cfg) + 1
	sys.Policy = opts.Policy
	memory := mem.NewMemory(0x100000)
	initPool(memory, cs)
	machine, err := cpu.NewMachine(sys, memory)
	if err != nil {
		res.RunErr = err
		return res
	}
	oracle := check.Attach(machine)
	var traceBuf bytes.Buffer
	var tracer *trace.Tracer
	if opts.Axiomatic {
		tracer, err = trace.Attach(machine, &traceBuf, trace.Options{
			Benchmark:   "fuzz",
			Config:      cfg.String(),
			Seed:        cs.Seed,
			MemAccesses: true,
		})
		if err != nil {
			res.RunErr = err
			return res
		}
	}
	// The injector attaches after the oracle: the oracle observes the
	// perturbed run and must still find it invariant-clean — faults may
	// delay or refuse, never corrupt.
	fault.Attach(machine, opts.Plan)
	feeds := make([]cpu.InvocationSource, cs.Cores())
	for core, invs := range cs.Invs {
		list := make([]cpu.Invocation, len(invs))
		for k, inv := range invs {
			list[k] = cpu.Invocation{Prog: cs.Progs[inv.Prog], Regs: regInits(inv.Regs), Think: inv.Think}
		}
		feeds[core] = &cpu.SliceSource{Invs: list}
	}
	machine.AttachFeeds(feeds)

	if err := machine.Run(maxCaseTicks); err != nil {
		res.RunErr = err
	}
	oracle.Finish()
	res.Digest = machine.Stats.Digest()
	res.Violations = oracle.Violations()
	res.ViolationCount = oracle.ViolationCount()
	if res.RunErr == nil {
		res.Mismatch = diffReplay(cs, oracle.CommitLog(), poolImage(memory, cs))
	}
	if tracer != nil && res.RunErr == nil {
		res.Axiom, res.RunErr = axiomCheck(cs, tracer, &traceBuf)
	}
	return res
}

// axiomCheck closes the tracer and runs the litmus axiomatic checker over
// the recorded stream, resolving initial reads against the case's pool
// image.
func axiomCheck(cs *Case, tracer *trace.Tracer, buf *bytes.Buffer) (*litmus.Verdict, error) {
	if err := tracer.Close(); err != nil {
		return nil, err
	}
	rd, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	events, err := rd.ReadAll()
	if err != nil {
		return nil, err
	}
	v := litmus.CheckEvents(events, litmus.CheckOpts{Initial: poolInitial(cs)})
	return &v, nil
}

// poolInitial maps an address onto the case's initial pool image (what
// initPool wrote): word 0 of line i points at line Ptr, words 1..7 hold the
// data values. Addresses outside the pool start zero.
func poolInitial(cs *Case) func(mem.Addr) uint64 {
	return func(a mem.Addr) uint64 {
		if a < PoolBase {
			return 0
		}
		i := int((a - PoolBase) / mem.LineSize)
		if i >= len(cs.Pool) {
			return 0
		}
		w := int(a%mem.LineSize) / mem.WordSize
		if w == 0 {
			return uint64(poolLineBase(cs.Pool[i].Ptr))
		}
		if w-1 < len(cs.Pool[i].Data) {
			return cs.Pool[i].Data[w-1]
		}
		return 0
	}
}

func regInits(rs []cpu.RegInit) []cpu.RegInit { return append([]cpu.RegInit(nil), rs...) }

// RunAll executes the case under every requested configuration.
func RunAll(cs *Case, cfgs []harness.ConfigID, opts Opts) []Result {
	out := make([]Result, 0, len(cfgs))
	for _, cfg := range cfgs {
		out = append(out, RunCase(cs, cfg, opts))
	}
	return out
}

// AnyFailed reports whether any result failed.
func AnyFailed(rs []Result) bool {
	for _, r := range rs {
		if r.Failed() {
			return true
		}
	}
	return false
}

// diffReplay re-executes the committed invocations serially, in the commit
// order the oracle observed, against a fresh pool image, and compares the
// final memory word by word. Commit order equals serialization order in this
// machine: conflicts are detected eagerly, the commit point is atomic, and
// fallback execution is globally exclusive — so any divergence means an AR
// was not atomic. Returns "" on success.
func diffReplay(cs *Case, log []check.Commit, simImage []uint64) string {
	replayMem := mem.NewMemory(0x100000)
	initPool(replayMem, cs)

	// The k-th commit of core c is core c's k-th invocation: every
	// invocation commits exactly once, in program order per core.
	next := make([]int, cs.Cores())
	for _, cm := range log {
		if cm.Core >= len(next) {
			return fmt.Sprintf("commit log names core %d beyond the case's %d cores", cm.Core, cs.Cores())
		}
		k := next[cm.Core]
		next[cm.Core]++
		if k >= len(cs.Invs[cm.Core]) {
			return fmt.Sprintf("core %d committed %d times but has only %d invocations", cm.Core, k+1, len(cs.Invs[cm.Core]))
		}
		inv := cs.Invs[cm.Core][k]
		prog := cs.Progs[inv.Prog]
		if prog.ID != cm.ProgID {
			return fmt.Sprintf("core %d commit #%d ran prog %d but the case expects prog %d", cm.Core, k, cm.ProgID, prog.ID)
		}
		if msg := replayInvocation(prog, inv, replayMem, cm.Mode); msg != "" {
			return msg
		}
	}
	for core, invs := range cs.Invs {
		if next[core] != len(invs) {
			return fmt.Sprintf("core %d committed %d of %d invocations", core, next[core], len(invs))
		}
	}

	replayImage := poolImage(replayMem, cs)
	for i := range simImage {
		if simImage[i] != replayImage[i] {
			line, word := i/mem.WordsPerLine, i%mem.WordsPerLine
			return fmt.Sprintf("pool line %d word %d: simulated 0x%x, serial replay 0x%x",
				line, word, simImage[i], replayImage[i])
		}
	}
	return ""
}

// replayInvocation interprets one AR serially with immediate stores (the
// serial equivalent of store-queue forwarding). An XAbort reached under a
// fallback commit keeps the stores executed so far — non-speculative
// execution cannot roll back, the simulator commits the partial region — and
// stops; reaching XAbort under any other commit mode is a mismatch, because
// a speculative or CL execution that hits XAbort aborts instead of
// committing. Generated programs only branch forward, so replay terminates.
func replayInvocation(prog *isa.Program, inv Invocation, m *mem.Memory, mode cpu.Mode) string {
	var regs [isa.NumRegs]uint64
	for _, ri := range inv.Regs {
		regs[ri.Reg] = ri.Val
	}
	pc := 0
	for steps := 0; steps <= len(prog.Code); steps++ {
		in := prog.Code[pc]
		switch in.Op {
		case isa.OpNop:
			pc++
		case isa.OpLoadImm:
			regs[in.Dst] = uint64(in.Imm)
			pc++
		case isa.OpMov:
			regs[in.Dst] = regs[in.Src1]
			pc++
		case isa.OpLoad:
			regs[in.Dst] = m.ReadWord(mem.Addr(regs[in.Src1] + uint64(in.Imm)))
			pc++
		case isa.OpStore:
			m.WriteWord(mem.Addr(regs[in.Src1]+uint64(in.Imm)), regs[in.Src2])
			pc++
		case isa.OpAdd:
			regs[in.Dst] = regs[in.Src1] + regs[in.Src2]
			pc++
		case isa.OpAddImm:
			regs[in.Dst] = regs[in.Src1] + uint64(in.Imm)
			pc++
		case isa.OpSub:
			regs[in.Dst] = regs[in.Src1] - regs[in.Src2]
			pc++
		case isa.OpMulImm:
			regs[in.Dst] = regs[in.Src1] * uint64(in.Imm)
			pc++
		case isa.OpAndImm:
			regs[in.Dst] = regs[in.Src1] & uint64(in.Imm)
			pc++
		case isa.OpShrImm:
			regs[in.Dst] = regs[in.Src1] >> uint64(in.Imm)
			pc++
		case isa.OpXor:
			regs[in.Dst] = regs[in.Src1] ^ regs[in.Src2]
			pc++
		case isa.OpBeq:
			pc = branch(pc, in, regs[in.Src1] == regs[in.Src2])
		case isa.OpBne:
			pc = branch(pc, in, regs[in.Src1] != regs[in.Src2])
		case isa.OpBlt:
			pc = branch(pc, in, regs[in.Src1] < regs[in.Src2])
		case isa.OpBge:
			pc = branch(pc, in, regs[in.Src1] >= regs[in.Src2])
		case isa.OpJump:
			pc = int(in.Imm)
		case isa.OpXAbort:
			if mode == cpu.ModeFallback {
				// Fallback commits the partial region up to the abort.
				return ""
			}
			return fmt.Sprintf("prog %d committed in mode %v but its serial replay reaches xabort at pc %d",
				prog.ID, mode, pc)
		case isa.OpHalt:
			return ""
		default:
			return fmt.Sprintf("prog %d: replay hit unsupported opcode %v at pc %d", prog.ID, in.Op, pc)
		}
	}
	return fmt.Sprintf("prog %d: replay exceeded the forward-branch step bound (loop?)", prog.ID)
}

func branch(pc int, in isa.Instr, taken bool) int {
	if taken {
		return int(in.Imm)
	}
	return pc + 1
}
