// Package trace is the structured observability layer of the simulator: a
// zero-allocation binary event tracer that records the control points of
// every atomic-region invocation (start, abort with reason and retry-mode
// decision, commit with mode), every cacheline-lock acquire/release/NACK,
// directory state transitions, and (optionally) every completed memory
// operation, through the nil-guarded cpu.Probe / coherence.Observer hook
// seams.
//
// On top of the raw stream the package provides BuildProfile, the one
// offline fold that reconstructs attempts and lock holders: it yields the
// counts (commits by mode, aborts by reason, per-AR totals, abort
// attribution) and the per-core attempt spans with their lock-wait edges.
// SampleIntervals samples that same fold at fixed tick intervals. Exporters
// render the spans and samples as Chrome/Perfetto trace-event JSON and
// compact CSV, and a line-per-event text renderer backs cleartrace dump.
// CommittedARs, the litmus checker's input, reads the memory accesses of
// committed attempts. Live counts during a run come from internal/metrics.
//
// Determinism contract: the binary encoding contains no host-side state
// (no wall-clock timestamps, no pointers, no map iteration), so the same
// (benchmark, configuration, seed) produces byte-identical trace files.
// Transparency contract: a tracer attached to a machine never mutates
// simulation state, consults no RNG, and schedules no events — statistics
// digests are bit-identical with the tracer attached or detached.
package trace

import (
	"fmt"

	clear "repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Kind discriminates the typed event records of the binary stream.
type Kind uint8

const (
	// KindInvocationStart: a core dequeued a new AR invocation.
	// Addr=progID.
	KindInvocationStart Kind = iota + 1
	// KindAttemptStart: an attempt began executing. Arg0=mode,
	// Arg2=attempt, Addr=progID, Arg3 packs conflict-retries (low 32) and
	// CL footprint length (high 32).
	KindAttemptStart
	// KindAttemptEnd: an attempt aborted, after the §4.3 retry-mode
	// decision. Arg0=mode at abort, Arg1=reason, Arg2=attempt,
	// Addr=progID, Arg3 packs the decision (see Event accessors).
	KindAttemptEnd
	// KindCommit: an attempt reached its commit point. Arg0=mode,
	// Arg2=attempt, Addr=progID, Arg3 packs conflict-retries (low 32) and
	// distinct committing store lines (high 32).
	KindCommit
	// KindMemAccess: a load or store completed. Arg0=mode, Arg1=isWrite,
	// Addr=byte address, Arg3=value loaded/stored.
	KindMemAccess
	// KindConflict: an incoming remote request conflicted with the core's
	// transactional sets (holder side). Arg0=isWrite, Arg1=requester,
	// Addr=line.
	KindConflict
	// KindLock: a cacheline-lock acquisition attempt completed.
	// Arg0=outcome (LockOK/LockRetry/LockNack), Arg1=responsible holder
	// core + 1 for Retry/Nack outcomes (0 = unknown), Addr=line.
	KindLock
	// KindUnlock: a cacheline lock was released. Addr=line.
	KindUnlock
	// KindDirAccess: a directory read/write transaction completed.
	// Arg0=isWrite, Arg1=flag bits (see DirNacked...), Addr=line.
	KindDirAccess
	// KindEvict: a core dropped a line from its sharer/owner slots.
	// Addr=line.
	KindEvict
	// KindFault: the fault injector fired. Arg0=fault kind
	// (internal/fault.Kind), Core=NoCore for sim-layer faults not
	// attributable to a core, Addr=target line (0 if none), Arg3=injected
	// extra ticks.
	KindFault

	// NumKinds is one past the last event kind.
	NumKinds
)

// NoCore is the Core of a fault event that no core caused: a sim-layer
// fault such as an event delay.
const NoCore uint8 = 0xff

func (k Kind) String() string {
	switch k {
	case KindInvocationStart:
		return "invoke"
	case KindAttemptStart:
		return "attempt-start"
	case KindAttemptEnd:
		return "abort"
	case KindCommit:
		return "commit"
	case KindMemAccess:
		return "mem"
	case KindConflict:
		return "conflict"
	case KindLock:
		return "lock"
	case KindUnlock:
		return "unlock"
	case KindDirAccess:
		return "dir"
	case KindEvict:
		return "evict"
	case KindFault:
		return "fault"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindFromString resolves the Kind named s (the String form); ok=false for
// unknown names. The cleartrace -kind filter uses it.
func KindFromString(s string) (Kind, bool) {
	for k := Kind(1); k < NumKinds; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// Lock outcomes (KindLock Arg0).
const (
	LockOK uint8 = iota
	LockRetry
	LockNack
)

// Directory-access flag bits (KindDirAccess Arg1).
const (
	DirNacked uint8 = 1 << iota
	DirRetry
	DirLocking
	DirNonSpec
	DirFailedMode
	DirPower
)

// recordSize is the fixed on-disk size of one event record.
const recordSize = 32

// Event is one decoded trace record. The field meaning depends on Kind
// (documented at the Kind constants); the typed accessors below unpack the
// packed arguments.
type Event struct {
	Tick sim.Tick
	Kind Kind
	Core uint8
	Arg0 uint8
	Arg1 uint8
	Arg2 uint32
	Addr uint64
	Arg3 uint64
}

// Mode returns the execution mode carried by attempt/commit/mem events.
func (e Event) Mode() cpu.Mode { return cpu.Mode(e.Arg0) }

// Reason returns the abort reason of a KindAttemptEnd event.
func (e Event) Reason() htm.AbortReason { return htm.AbortReason(e.Arg1) }

// ProgID returns the AR program id of invocation/attempt/commit events.
func (e Event) ProgID() int { return int(e.Addr) }

// Attempt returns the attempt index of attempt/commit events. KindAttemptEnd
// records written since the policy interface carry the §4.3 proposal packed
// into the high bits of Arg2 (see the layout at endProposedBit); the low 16
// bits stay the attempt index, so pre-policy traces decode unchanged.
func (e Event) Attempt() int {
	if e.Kind == KindAttemptEnd && e.Arg2&endProposedBit != 0 {
		return int(e.Arg2 & endAttemptMask)
	}
	return int(e.Arg2)
}

// Line returns the cacheline of lock/unlock/dir/conflict/evict events; for
// KindMemAccess it is derived from the byte address.
func (e Event) Line() mem.LineAddr {
	if e.Kind == KindMemAccess {
		return mem.Addr(e.Addr).Line()
	}
	return mem.LineAddr(e.Addr)
}

// MemAddr returns the byte address of a KindMemAccess event.
func (e Event) MemAddr() mem.Addr { return mem.Addr(e.Addr) }

// Value returns the loaded/stored word of a KindMemAccess event.
func (e Event) Value() uint64 { return e.Arg3 }

// IsWrite reports the store/write intent of mem/conflict/dir events.
func (e Event) IsWrite() bool {
	switch e.Kind {
	case KindMemAccess:
		return e.Arg1 != 0
	case KindConflict, KindDirAccess:
		return e.Arg0 != 0
	}
	return false
}

// Requester returns the requesting core of a KindConflict event (the event's
// Core field is the conflicting holder).
func (e Event) Requester() int { return int(e.Arg1) }

// DirFlags returns the flag bits of a KindDirAccess event.
func (e Event) DirFlags() uint8 { return e.Arg1 }

// The packed Arg3 layout of KindAttemptEnd:
//
//	bits  0..7   next retry mode (§4.3 decision)
//	bit   8      discovery assessment ran
//	bits 9..15   assessed retry mode (valid when bit 8 set)
//	bits 16..31  program counter at abort (capped at 0xffff)
//	bits 32..63  conflict-counted retry total after the abort
const (
	endNextShift     = 0
	endAssessedBit   = 1 << 8
	endAssessShift   = 9
	endPCShift       = 16
	endRetriesShift  = 32
	endPCMask        = 0xffff
	endModeMask      = 0x7f
	packedLowShift   = 0  // KindAttemptStart/KindCommit low word
	packedHighShift  = 32 // KindAttemptStart/KindCommit high word
	packedWordMask   = 0xffffffff
	maxTrackedPC     = endPCMask
	maxTrackedUint32 = packedWordMask
)

// The packed Arg2 layout of KindAttemptEnd (Arg3 is full):
//
//	bits  0..15  attempt index (capped)
//	bits 16..22  §4.3 mechanism proposal the policy decided over
//	bit  23      proposal present
//
// Pre-policy traces never set bit 23 (attempt indices were far below 2^16),
// so the trace format version is unchanged and old records keep decoding.
const (
	endAttemptMask   = 0xffff
	endProposedShift = 16
	endProposedBit   = 1 << 23
)

// packAttemptEndArg2 encodes the attempt index and the mechanism proposal.
func packAttemptEndArg2(attempt int, proposed clear.RetryMode) uint32 {
	if attempt > endAttemptMask {
		attempt = endAttemptMask
	}
	return uint32(attempt) |
		uint32(uint8(proposed)&endModeMask)<<endProposedShift |
		endProposedBit
}

// ProposedMode returns the §4.3 mechanism proposal of a KindAttemptEnd
// event; ok is false for pre-policy trace records, which did not carry it.
// Proposed != NextMode marks a policy override (a serialization to
// fallback).
func (e Event) ProposedMode() (proposed clear.RetryMode, ok bool) {
	if e.Kind != KindAttemptEnd || e.Arg2&endProposedBit == 0 {
		return 0, false
	}
	return clear.RetryMode((e.Arg2 >> endProposedShift) & endModeMask), true
}

// packAttemptEnd encodes the retry-mode decision of one abort.
func packAttemptEnd(next clear.RetryMode, assessed bool, assessment clear.RetryMode, pc int, retries int) uint64 {
	if pc > maxTrackedPC {
		pc = maxTrackedPC
	}
	v := uint64(uint8(next)&endModeMask)<<endNextShift |
		uint64(pc)<<endPCShift |
		uint64(uint32(retries))<<endRetriesShift
	if assessed {
		v |= endAssessedBit | uint64(uint8(assessment)&endModeMask)<<endAssessShift
	}
	return v
}

// NextMode returns the §4.3 decision of a KindAttemptEnd event.
func (e Event) NextMode() clear.RetryMode {
	return clear.RetryMode((e.Arg3 >> endNextShift) & endModeMask)
}

// Assessed reports whether the abort ran the discovery assessment; the
// assessed mode is the second return.
func (e Event) Assessed() (bool, clear.RetryMode) {
	if e.Arg3&endAssessedBit == 0 {
		return false, 0
	}
	return true, clear.RetryMode((e.Arg3 >> endAssessShift) & endModeMask)
}

// PC returns the abort program counter of a KindAttemptEnd event.
func (e Event) PC() int { return int((e.Arg3 >> endPCShift) & endPCMask) }

// Retries returns the conflict-retry count of attempt-start, attempt-end,
// and commit events.
func (e Event) Retries() int {
	switch e.Kind {
	case KindAttemptEnd:
		return int(uint32(e.Arg3 >> endRetriesShift))
	case KindAttemptStart, KindCommit:
		return int(uint32(e.Arg3 >> packedLowShift & packedWordMask))
	}
	return 0
}

// FootprintLen returns the CL footprint length of a KindAttemptStart event.
func (e Event) FootprintLen() int {
	return int(uint32(e.Arg3 >> packedHighShift))
}

// StoreLines returns the distinct committing store-line count of a
// KindCommit event.
func (e Event) StoreLines() int {
	return int(uint32(e.Arg3 >> packedHighShift))
}

// packCounts packs a (low, high) uint32 pair for attempt-start/commit Arg3.
func packCounts(low, high int) uint64 {
	return uint64(clampUint32(low)) | uint64(clampUint32(high))<<packedHighShift
}

// clampUint32 caps n at maxTrackedUint32. It compares as int64, because the
// cap does not fit a 32-bit int.
func clampUint32(n int) uint32 {
	if int64(n) > maxTrackedUint32 {
		return maxTrackedUint32
	}
	return uint32(n)
}

// FaultKind returns the injected fault class of a KindFault event.
func (e Event) FaultKind() fault.Kind { return fault.Kind(e.Arg0) }

// FaultTicks returns the injected extra latency of a KindFault event (zero
// for refusal-type faults).
func (e Event) FaultTicks() sim.Tick { return sim.Tick(e.Arg3) }

// LockOutcome returns the outcome of a KindLock event.
func (e Event) LockOutcome() uint8 { return e.Arg0 }

// LockHolder returns the core reported as responsible for a retried or
// nacked KindLock event, or -1 when unattributed (success outcomes,
// injected denials, and traces recorded before holder attribution).
func (e Event) LockHolder() int {
	if e.Kind != KindLock || e.Arg1 == 0 {
		return -1
	}
	return int(e.Arg1) - 1
}

// LockOutcomeString names a KindLock outcome.
func LockOutcomeString(o uint8) string {
	switch o {
	case LockOK:
		return "ok"
	case LockRetry:
		return "retry"
	case LockNack:
		return "nack"
	}
	return "?"
}
