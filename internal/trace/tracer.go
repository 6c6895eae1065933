package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
)

// File-format constants. The header is versioned so readers can reject
// streams written by incompatible tracer builds.
const (
	// Magic identifies a clear trace file ("CLRT" + 0x01 framing byte pair).
	Magic uint32 = 0x54524c43 // "CLRT" little-endian
	// Version is the current header/record layout version.
	Version uint16 = 1

	flagMemAccesses uint16 = 1 << 0
	flagDirAccesses uint16 = 1 << 1
)

// Options configures what a Tracer records and the run metadata stored in
// the file header so offline tools can render the stream standalone.
type Options struct {
	// Benchmark and Config name the run (header metadata only).
	Benchmark string
	Config    string
	// Cores is the simulated core count (used by readers to size per-core
	// state; must match the machine).
	Cores int
	// Seed is the workload RNG seed (header metadata only).
	Seed uint64
	// ARNames maps AR program id -> name for offline rendering.
	ARNames map[int]string
	// MemAccesses enables per-memory-operation events (KindMemAccess).
	// Verbose: every completed load/store becomes a record.
	MemAccesses bool
	// DirAccesses enables directory read/write transaction events
	// (KindDirAccess) and eviction events (KindEvict). Lock/unlock events
	// are always recorded.
	DirAccesses bool
	// BufRecords sets the flush batch size in records (default 4096).
	BufRecords int
}

// Tracer records simulation events into a binary stream. It implements both
// cpu.Probe and coherence.Observer and is attached through the machine's
// nil-guarded hook seams, so a detached tracer costs the simulation nothing
// beyond one pointer comparison per hook site.
//
// The emit path is allocation-free: records are encoded into a fixed stack
// buffer and appended into a preallocated batch buffer; the only per-batch
// cost is a single w.Write call when the buffer fills (or on Flush/Close).
type Tracer struct {
	w      io.Writer
	engine *sim.Engine
	opts   Options
	buf    []byte // preallocated; len grows to cap then flushes
	err    error  // sticky first write error

	// Per-core mirrors of state the probe callbacks do not carry directly.
	prog    []int32  // current AR program id per core (-1 when idle)
	retries []uint32 // conflict-counted retry total per core
}

// Attach creates a Tracer writing to w, writes the file header, and hooks
// the tracer into m's probe and directory-observer seams (via AddProbe /
// AddObserver, so it composes with an already-attached oracle).
//
// The caller owns w and must call Close (or Flush) before reading the
// stream; Close does not close w.
func Attach(m *cpu.Machine, w io.Writer, opts Options) (*Tracer, error) {
	if opts.Cores == 0 {
		opts.Cores = len(m.Cores)
	}
	if opts.Cores != len(m.Cores) {
		return nil, fmt.Errorf("trace: Options.Cores=%d but machine has %d cores", opts.Cores, len(m.Cores))
	}
	if opts.BufRecords <= 0 {
		opts.BufRecords = 4096
	}
	t := &Tracer{
		w:       w,
		engine:  m.Engine,
		opts:    opts,
		buf:     make([]byte, 0, opts.BufRecords*recordSize),
		prog:    make([]int32, opts.Cores),
		retries: make([]uint32, opts.Cores),
	}
	for i := range t.prog {
		t.prog[i] = -1
	}
	if err := t.writeHeader(); err != nil {
		return nil, err
	}
	m.AddProbe(t)
	m.Dir.AddObserver(t)
	return t, nil
}

// writeHeader emits the self-describing file header:
//
//	u32 magic, u16 version, u16 flags, u32 cores, u32 reserved, u64 seed,
//	u16 len + benchmark, u16 len + config,
//	u16 AR count, then per AR: u32 id, u16 len + name (sorted by id).
//
// The header contains no timestamps or host state, preserving the
// byte-identical determinism contract.
func (t *Tracer) writeHeader() error {
	var flags uint16
	if t.opts.MemAccesses {
		flags |= flagMemAccesses
	}
	if t.opts.DirAccesses {
		flags |= flagDirAccesses
	}
	h := make([]byte, 0, 64)
	h = binary.LittleEndian.AppendUint32(h, Magic)
	h = binary.LittleEndian.AppendUint16(h, Version)
	h = binary.LittleEndian.AppendUint16(h, flags)
	h = binary.LittleEndian.AppendUint32(h, uint32(t.opts.Cores))
	h = binary.LittleEndian.AppendUint32(h, 0) // reserved
	h = binary.LittleEndian.AppendUint64(h, t.opts.Seed)
	h = appendString(h, t.opts.Benchmark)
	h = appendString(h, t.opts.Config)
	ids := make([]int, 0, len(t.opts.ARNames))
	for id := range t.opts.ARNames {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h = binary.LittleEndian.AppendUint16(h, uint16(len(ids)))
	for _, id := range ids {
		h = binary.LittleEndian.AppendUint32(h, uint32(id))
		h = appendString(h, t.opts.ARNames[id])
	}
	_, err := t.w.Write(h)
	t.err = err
	return err
}

func appendString(b []byte, s string) []byte {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// emit encodes one record into the batch buffer, flushing when full.
func (t *Tracer) emit(kind Kind, core int, arg0, arg1 uint8, arg2 uint32, addr, arg3 uint64) {
	if t.err != nil {
		return
	}
	var rec [recordSize]byte
	binary.LittleEndian.PutUint64(rec[0:], uint64(t.engine.Now()))
	rec[8] = uint8(kind)
	rec[9] = uint8(core)
	rec[10] = arg0
	rec[11] = arg1
	binary.LittleEndian.PutUint32(rec[12:], arg2)
	binary.LittleEndian.PutUint64(rec[16:], addr)
	binary.LittleEndian.PutUint64(rec[24:], arg3)
	t.buf = append(t.buf, rec[:]...)
	if len(t.buf) == cap(t.buf) {
		t.flush()
	}
}

// flush writes the batch buffer in a single Write call.
func (t *Tracer) flush() {
	if len(t.buf) == 0 || t.err != nil {
		t.buf = t.buf[:0]
		return
	}
	_, err := t.w.Write(t.buf)
	if err != nil && t.err == nil {
		t.err = err
	}
	t.buf = t.buf[:0]
}

// Flush forces any buffered records out to the underlying writer.
func (t *Tracer) Flush() error {
	t.flush()
	return t.err
}

// Close flushes the tracer and returns the first write error encountered.
// It does not close the underlying writer.
func (t *Tracer) Close() error { return t.Flush() }

// Err returns the sticky write error, if any.
func (t *Tracer) Err() error { return t.err }

// --- cpu.Probe ---

// OnInvocationStart records a dequeued AR invocation and resets the core's
// per-invocation mirrors.
func (t *Tracer) OnInvocationStart(core int, progID int) {
	t.prog[core] = int32(progID)
	t.retries[core] = 0
	t.emit(KindInvocationStart, core, 0, 0, 0, uint64(progID), 0)
}

// OnAttemptStart records the beginning of one attempt.
func (t *Tracer) OnAttemptStart(core int, mode cpu.Mode, attempt int, footprint []mem.LineAddr) {
	t.emit(KindAttemptStart, core, uint8(mode), 0, uint32(attempt),
		uint64(t.prog[core]), packCounts(int(t.retries[core]), len(footprint)))
}

// OnAttemptEnd records an abort together with the §4.3 retry-mode decision.
func (t *Tracer) OnAttemptEnd(info cpu.AttemptEndInfo) {
	t.retries[info.Core] = uint32(info.ConflictRetries)
	t.emit(KindAttemptEnd, info.Core, uint8(info.Mode), uint8(info.Reason),
		packAttemptEndArg2(info.Attempt, info.Proposed), uint64(info.ProgID),
		packAttemptEnd(info.NextMode, info.Assessed, info.Assessment.Mode, info.PC, info.ConflictRetries))
}

// OnCommit records a successful commit.
func (t *Tracer) OnCommit(info cpu.CommitInfo) {
	t.emit(KindCommit, info.Core, uint8(info.Mode), 0, uint32(info.Attempt),
		uint64(info.ProgID), packCounts(info.ConflictRetries, len(info.StoreLines)))
	t.prog[info.Core] = -1
	t.retries[info.Core] = 0
}

// OnMemAccess records one completed load/store (when Options.MemAccesses).
func (t *Tracer) OnMemAccess(core int, addr mem.Addr, value uint64, isWrite bool, mode cpu.Mode) {
	if !t.opts.MemAccesses {
		return
	}
	var w uint8
	if isWrite {
		w = 1
	}
	t.emit(KindMemAccess, core, uint8(mode), w, 0, uint64(addr), value)
}

// OnConflict records a holder-side transactional conflict.
func (t *Tracer) OnConflict(core int, line mem.LineAddr, isWrite bool, requester int) {
	var w uint8
	if isWrite {
		w = 1
	}
	t.emit(KindConflict, core, w, uint8(requester), 0, uint64(line), 0)
}

// --- coherence.Observer ---

// OnAccess records a directory transaction (when Options.DirAccesses).
func (t *Tracer) OnAccess(core int, line mem.LineAddr, isWrite bool, attrs coherence.ReqAttrs, res coherence.AccessResult) {
	if !t.opts.DirAccesses {
		return
	}
	var w uint8
	if isWrite {
		w = 1
	}
	var flags uint8
	if res.Nacked {
		flags |= DirNacked
	}
	if res.Retry {
		flags |= DirRetry
	}
	if attrs.Locking {
		flags |= DirLocking
	}
	if attrs.NonSpec {
		flags |= DirNonSpec
	}
	if attrs.FailedMode {
		flags |= DirFailedMode
	}
	if attrs.Power {
		flags |= DirPower
	}
	t.emit(KindDirAccess, core, w, flags, 0, uint64(line), 0)
}

// OnLock records a cacheline-lock acquisition attempt and its outcome. For
// retried/nacked attempts Arg1 carries the responsible holder as holder+1
// (0 = unknown), feeding the offline wait-chain attribution.
func (t *Tracer) OnLock(core int, line mem.LineAddr, res coherence.LockResult) {
	outcome := LockOK
	var holder uint8
	switch {
	case res.Nacked:
		outcome = LockNack
	case res.Retry:
		outcome = LockRetry
	}
	if outcome != LockOK && res.HolderKnown && res.Holder >= 0 && res.Holder < 0xff {
		holder = uint8(res.Holder + 1)
	}
	t.emit(KindLock, core, outcome, holder, 0, uint64(line), 0)
}

// OnUnlock records a cacheline-lock release.
func (t *Tracer) OnUnlock(core int, line mem.LineAddr) {
	t.emit(KindUnlock, core, 0, 0, 0, uint64(line), 0)
}

// OnEvict records a line eviction (when Options.DirAccesses).
func (t *Tracer) OnEvict(core int, line mem.LineAddr) {
	if !t.opts.DirAccesses {
		return
	}
	t.emit(KindEvict, core, 0, 0, 0, uint64(line), 0)
}

// --- fault.Recorder ---

// RecordFault records one fired fault from the injector (core -1, a
// sim-layer fault with no attributable core, is stored as NoCore). The record
// carries the fault kind, the target line (0 if none), and the injected
// extra ticks, so offline tools can correlate perturbations with the
// protocol reactions around them.
func (t *Tracer) RecordFault(core int, kind fault.Kind, ticks sim.Tick, line mem.LineAddr) {
	if core < 0 {
		core = int(NoCore)
	}
	t.emit(KindFault, core, uint8(kind), 0, 0, uint64(line), uint64(ticks))
}

var _ cpu.Probe = (*Tracer)(nil)
var _ coherence.Observer = (*Tracer)(nil)
var _ fault.Recorder = (*Tracer)(nil)
