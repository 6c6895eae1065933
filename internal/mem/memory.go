package mem

import "fmt"

// Memory is the simulated physical memory. Functional state lives here;
// timing and coherence live in the cache and directory models. Reads of
// never-written lines return zeros, like zero-filled pages.
//
// Storage is a dense word array covering the allocator's arena [origin,
// next): workloads allocate a contiguous region up front, so a flat slice
// indexed by (addr-origin)/8 replaces the per-line map-of-pointer-to-array
// layout that cost one heap node per touched cacheline and a hash probe per
// access. Writes outside the arena (nothing in-tree produces them, but the
// API allows any address) fall back to a sparse overflow map.
type Memory struct {
	// origin is the line-aligned start of the dense region; words[i] backs
	// the address origin + i*WordSize.
	origin Addr
	words  []uint64
	// overflow holds lines written below origin or past the grown dense
	// region; nil until needed.
	overflow map[LineAddr]*[WordsPerLine]uint64

	// next is the allocation cursor used by Alloc.
	next Addr
}

// NewMemory returns an empty memory whose allocator starts at base. Keeping
// workload data away from address zero makes accidental nil-style addresses
// detectable.
func NewMemory(base Addr) *Memory {
	if !base.Aligned() {
		panic("mem: unaligned allocator base")
	}
	return &Memory{
		origin: base &^ Addr(LineSize-1),
		next:   base,
	}
}

// denseIndex returns the word index of a within the dense region, or ok=false
// when a precedes the origin.
func (m *Memory) denseIndex(a Addr) (int, bool) {
	if a < m.origin {
		return 0, false
	}
	return int((a - m.origin) / WordSize), true
}

// ensure grows the dense region to cover word index i (whole lines).
func (m *Memory) ensure(i int) {
	need := (i + WordsPerLine) &^ (WordsPerLine - 1)
	if need <= len(m.words) {
		return
	}
	if c := 2 * len(m.words); need < c {
		need = c
	}
	if need < 8*WordsPerLine {
		need = 8 * WordsPerLine
	}
	words := make([]uint64, need)
	copy(words, m.words)
	m.words = words
}

// ReadWord returns the 64-bit word at a, which must be aligned.
func (m *Memory) ReadWord(a Addr) uint64 {
	if !a.Aligned() {
		panic(fmt.Sprintf("mem: unaligned read at %s", a))
	}
	if i, ok := m.denseIndex(a); ok {
		if i < len(m.words) {
			return m.words[i]
		}
		return 0
	}
	if line, ok := m.overflow[a.Line()]; ok {
		return line[a.WordIndex()]
	}
	return 0
}

// WriteWord stores a 64-bit word at a, which must be aligned.
func (m *Memory) WriteWord(a Addr, v uint64) {
	if !a.Aligned() {
		panic(fmt.Sprintf("mem: unaligned write at %s", a))
	}
	if i, ok := m.denseIndex(a); ok {
		if i >= len(m.words) {
			m.ensure(i)
		}
		m.words[i] = v
		return
	}
	if m.overflow == nil {
		m.overflow = make(map[LineAddr]*[WordsPerLine]uint64)
	}
	line, ok := m.overflow[a.Line()]
	if !ok {
		line = new([WordsPerLine]uint64)
		m.overflow[a.Line()] = line
	}
	line[a.WordIndex()] = v
}

// Alloc reserves size bytes (rounded up to a whole number of words) and
// returns the base address. The alignment argument must be a power of two
// no smaller than WordSize; pass LineSize to get line-aligned (padded)
// allocations, which workloads use to place contended objects on distinct
// cachelines.
func (m *Memory) Alloc(size int, alignment int) Addr {
	if size <= 0 {
		panic("mem: Alloc with non-positive size")
	}
	if alignment < WordSize || alignment&(alignment-1) != 0 {
		panic("mem: Alloc alignment must be a power of two >= WordSize")
	}
	mask := Addr(alignment - 1)
	base := (m.next + mask) &^ mask
	words := (size + WordSize - 1) / WordSize
	m.next = base + Addr(words*WordSize)
	// Pre-size the dense region to the arena high-water mark so steady-state
	// writes never grow it.
	if i, ok := m.denseIndex(m.next - WordSize); ok {
		m.ensure(i)
	}
	return base
}

// AllocWords reserves n 64-bit words with the given alignment.
func (m *Memory) AllocWords(n int, alignment int) Addr {
	return m.Alloc(n*WordSize, alignment)
}

// AllocLine reserves one full line-aligned cacheline and returns its base.
func (m *Memory) AllocLine() Addr {
	return m.Alloc(LineSize, LineSize)
}
