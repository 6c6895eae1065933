// Package core implements the paper's contribution: CLEAR, the
// CacheLine-locked Executed Atomic Region technique. It provides the three
// hardware tables of Figure 7 — the Explored Region Table (ERT), the
// Addresses-to-Lock Table (ALT), and the Conflicting Reads Table (CRT) —
// the discovery-phase bookkeeping, and the §4.3 decision tree that picks the
// re-execution mode after an abort. The per-core execution engine that
// drives these structures lives in internal/cpu.
package core

// ERT sizing from §5: 16 entries, fully associative, with a 2-bit saturating
// SQ-full counter and 4-bit LRU per entry.
const (
	ERTEntries          = 16
	SQFullCounterMax    = 3 // 2-bit saturating counter
	ertEntryBits        = 1 + 64 + 1 + 1 + 2 + 4
	ERTStorageBytes     = ERTEntries * ertEntryBits / 8
	ERTStorageBytesSpec = 146 // the paper's quoted figure, checked by tests
)

// ERTEntry is one Explored Region Table row (Figure 7).
type ERTEntry struct {
	Valid bool
	// PC identifies the AR by the address of its first instruction; the
	// simulator uses the workload-assigned AR ID.
	PC int
	// IsConvertible: cacheline locking can be employed on a retry.
	IsConvertible bool
	// IsImmutable: a retry can start in NS-CL mode (S-CL if convertible but
	// not immutable).
	IsImmutable bool
	// SQFull is the 2-bit saturating counter of failed discoveries that ran
	// out of store-queue resources; at saturation discovery is disabled for
	// the AR.
	SQFull int
	lru    uint64
}

// DiscoveryEnabled reports whether a new invocation of this AR should run
// discovery: the AR must still be considered convertible and the SQ-full
// counter must not have saturated (§5.1).
func (e *ERTEntry) DiscoveryEnabled() bool {
	return e.IsConvertible && e.SQFull < SQFullCounterMax
}

// NoteSQOverflow increments the saturating counter (failed discovery ran out
// of SQ entries).
func (e *ERTEntry) NoteSQOverflow() {
	if e.SQFull < SQFullCounterMax {
		e.SQFull++
	}
}

// NoteCommit decrements the saturating counter (§5: "decreased when the
// transaction commits").
func (e *ERTEntry) NoteCommit() {
	if e.SQFull > 0 {
		e.SQFull--
	}
}

// ERT is the per-core Explored Region Table.
type ERT struct {
	entries []ERTEntry
	clock   uint64
	// Misses counts replacements, a measure of AR working-set pressure.
	Misses uint64
}

// NewERT returns an empty table with the paper's 16 entries.
func NewERT() *ERT { return NewERTSized(ERTEntries) }

// NewERTSized returns an empty table with n entries (the sizing-ablation
// hook); n < 1 falls back to the paper default.
func NewERTSized(n int) *ERT {
	if n < 1 {
		n = ERTEntries
	}
	return &ERT{entries: make([]ERTEntry, n)}
}

// Size returns the entry count.
func (t *ERT) Size() int { return len(t.entries) }

// Lookup returns the entry for AR pc, allocating (with the §5 defaults:
// convertible, immutable, counter zero) and evicting the LRU entry if
// needed. The returned pointer stays valid until the entry is evicted.
func (t *ERT) Lookup(pc int) *ERTEntry {
	t.clock++
	var victim *ERTEntry
	for i := range t.entries {
		e := &t.entries[i]
		if e.Valid && e.PC == pc {
			e.lru = t.clock
			return e
		}
		if victim == nil || !e.Valid || (victim.Valid && e.lru < victim.lru) {
			if victim == nil || victim.Valid {
				victim = e
			}
		}
	}
	if victim.Valid {
		t.Misses++
	}
	*victim = ERTEntry{
		Valid:         true,
		PC:            pc,
		IsConvertible: true,
		IsImmutable:   true,
		lru:           t.clock,
	}
	return victim
}

// Peek returns the entry for pc without allocating, or nil.
func (t *ERT) Peek(pc int) *ERTEntry {
	for i := range t.entries {
		e := &t.entries[i]
		if e.Valid && e.PC == pc {
			return e
		}
	}
	return nil
}
