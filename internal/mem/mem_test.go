package mem

import (
	"testing"
	"testing/quick"
)

func TestAddrLineArithmetic(t *testing.T) {
	cases := []struct {
		addr Addr
		line LineAddr
		off  uint64
		word int
	}{
		{0, 0, 0, 0},
		{63, 0, 63, 7},
		{64, 1, 0, 0},
		{0x1238, 0x48, 0x38, 7},
	}
	for _, c := range cases {
		if got := c.addr.Line(); got != c.line {
			t.Errorf("%s.Line() = %v, want %v", c.addr, got, c.line)
		}
		if got := c.addr.Offset(); got != c.off {
			t.Errorf("%s.Offset() = %d, want %d", c.addr, got, c.off)
		}
		if got := c.addr.WordIndex(); got != c.word {
			t.Errorf("%s.WordIndex() = %d, want %d", c.addr, got, c.word)
		}
	}
}

// TestAddrRoundTrip: line base + offset reconstructs the address.
func TestAddrRoundTrip(t *testing.T) {
	prop := func(raw uint64) bool {
		a := Addr(raw)
		return Addr(uint64(a.Line().Base())+a.Offset()) == a
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSetIndexBounded: set indices stay within [0, numSets).
func TestSetIndexBounded(t *testing.T) {
	prop := func(raw uint64, setsExp uint8) bool {
		sets := 1 << (setsExp % 14)
		idx := LineAddr(raw).SetIndex(sets)
		return idx >= 0 && idx < sets
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory(0x1000)
	if got := m.ReadWord(0x2000); got != 0 {
		t.Fatalf("unwritten word = %d, want 0", got)
	}
	m.WriteWord(0x2000, 0xdeadbeef)
	if got := m.ReadWord(0x2000); got != 0xdeadbeef {
		t.Fatalf("read back %#x", got)
	}
	// Neighbouring words are independent.
	m.WriteWord(0x2008, 7)
	if got := m.ReadWord(0x2000); got != 0xdeadbeef {
		t.Fatalf("neighbour write clobbered word: %#x", got)
	}
}

func TestMemoryUnalignedPanics(t *testing.T) {
	m := NewMemory(0x1000)
	for _, f := range []func(){
		func() { m.ReadWord(0x2001) },
		func() { m.WriteWord(0x2003, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("unaligned access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestAllocAlignment(t *testing.T) {
	m := NewMemory(0x1000)
	a := m.Alloc(8, 8)
	b := m.AllocLine()
	c := m.Alloc(24, 8)
	d := m.AllocLine()
	if a%8 != 0 || c%8 != 0 {
		t.Fatal("word allocations unaligned")
	}
	if b%LineSize != 0 || d%LineSize != 0 {
		t.Fatal("line allocations unaligned")
	}
	if b.Line() == d.Line() {
		t.Fatal("distinct line allocations share a cacheline")
	}
	if c >= d || b >= c {
		t.Fatal("allocator not monotonic")
	}
}

// TestAllocNoOverlap: random allocation sequences never overlap.
func TestAllocNoOverlap(t *testing.T) {
	prop := func(sizes []uint8) bool {
		m := NewMemory(0x1000)
		type region struct{ lo, hi Addr }
		var regions []region
		for _, s := range sizes {
			size := int(s%200) + 1
			align := 8
			if s%2 == 0 {
				align = LineSize
			}
			base := m.Alloc(size, align)
			words := (size + WordSize - 1) / WordSize
			regions = append(regions, region{base, base + Addr(words*WordSize)})
		}
		for i := 1; i < len(regions); i++ {
			if regions[i].lo < regions[i-1].hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
