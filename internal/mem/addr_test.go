package mem

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestPageSizeClassGeometry(t *testing.T) {
	cases := []struct {
		c      PageSizeClass
		shift  uint
		bytes  uint64
		frames uint64
		leaf   int
		str    string
	}{
		{Page4K, 12, 4096, 1, 1, "4KB"},
		{Page2M, 21, 2 << 20, 512, 2, "2MB"},
		{Page1G, 30, 1 << 30, 512 * 512, 3, "1GB"},
	}
	for _, c := range cases {
		if got := c.c.Shift(); got != c.shift {
			t.Errorf("%v.Shift() = %d, want %d", c.c, got, c.shift)
		}
		if got := c.c.Bytes(); got != c.bytes {
			t.Errorf("%v.Bytes() = %d, want %d", c.c, got, c.bytes)
		}
		if got := c.c.Frames(); got != c.frames {
			t.Errorf("%v.Frames() = %d, want %d", c.c, got, c.frames)
		}
		if got := c.c.LeafLevel(); got != c.leaf {
			t.Errorf("%v.LeafLevel() = %d, want %d", c.c, got, c.leaf)
		}
		if got := c.c.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
	}
}

func TestInvalidPageSizeClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid class")
		}
	}()
	PageSizeClass(9).Shift()
}

func TestVAddrIndex(t *testing.T) {
	// Construct an address with known per-level indices.
	var v VAddr
	idx := [Levels + 1]uint64{0, 0x1AB, 0x0CD, 0x1EF, 0x012}
	for lvl := 1; lvl <= Levels; lvl++ {
		v |= VAddr(idx[lvl] << (PageShift + uint(lvl-1)*LevelBits))
	}
	v |= 0x123 // page offset noise must not matter
	for lvl := 1; lvl <= Levels; lvl++ {
		if got := v.Index(lvl); got != idx[lvl] {
			t.Errorf("Index(%d) = %#x, want %#x", lvl, got, idx[lvl])
		}
	}
}

func TestVAddrIndexPanicsOutOfRange(t *testing.T) {
	for _, lvl := range []int{0, 5, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Index(%d) did not panic", lvl)
				}
			}()
			VAddr(0).Index(lvl)
		}()
	}
}

func TestVAddrHelpers(t *testing.T) {
	v := VAddr(0x0000_7F12_3456_7ABC)
	if got := v.VPN(); got != 0x7F1234567 {
		t.Errorf("VPN = %#x", got)
	}
	if got := v.PageBase(Page4K); got != 0x7F1234567000 {
		t.Errorf("PageBase(4K) = %#x", got)
	}
	if got := v.PageBase(Page2M); got != 0x0000_7F12_3440_0000 {
		t.Errorf("PageBase(2M) = %#x", got)
	}
	if got := v.PageBase(Page1G); got != 0x0000_7F12_0000_0000 {
		t.Errorf("PageBase(1G) = %#x", got)
	}
	if got := v.PageOffset(Page4K); got != 0xABC {
		t.Errorf("PageOffset(4K) = %#x", got)
	}
	if got := v.Line(); got != 0x0000_7F12_3456_7A80 {
		t.Errorf("Line = %#x", got)
	}
	if got := v.LineInPage(); got != 0x2A {
		t.Errorf("LineInPage = %#x", got)
	}
	if !v.Canonical() {
		t.Error("48-bit address should be canonical")
	}
	if VAddr(1 << 48).Canonical() {
		t.Error("49-bit address should not be canonical")
	}
}

func TestFrameAndPAddr(t *testing.T) {
	f := Frame(0x1234)
	if got := f.Addr(); got != 0x1234000 {
		t.Errorf("Addr = %#x", got)
	}
	if got := f.PTEAddr(3); got != 0x1234018 {
		t.Errorf("PTEAddr(3) = %#x", got)
	}
	p := PAddr(0x1234ABC)
	if got := p.Frame(); got != f {
		t.Errorf("Frame = %#x", got)
	}
	if got := p.Line(); got != 0x1234A80 {
		t.Errorf("Line = %#x", got)
	}
	if got := p.LineInPage(); got != 0x2A {
		t.Errorf("LineInPage = %#x", got)
	}
}

func TestPTEAddrPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Frame(0).PTEAddr(EntriesPerTable)
}

func TestFrameAlignment(t *testing.T) {
	if !Frame(0).AlignedTo(Page1G) {
		t.Error("frame 0 should align to 1GB")
	}
	if !Frame(512).AlignedTo(Page2M) {
		t.Error("frame 512 should align to 2MB")
	}
	if Frame(511).AlignedTo(Page2M) {
		t.Error("frame 511 should not align to 2MB")
	}
	if Frame(512).AlignedTo(Page1G) {
		t.Error("frame 512 should not align to 1GB")
	}
}

// Property: reconstructing an address from its per-level indices and
// page offset yields the original (within 48 bits).
func TestVAddrIndexRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		v := VAddr(raw & (1<<VABits - 1))
		var rebuilt uint64
		for lvl := 1; lvl <= Levels; lvl++ {
			rebuilt |= v.Index(lvl) << (PageShift + uint(lvl-1)*LevelBits)
		}
		rebuilt |= v.PageOffset(Page4K)
		return VAddr(rebuilt) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: LineInPage is always < LinesPerPage and consistent between
// virtual and physical views of the same offset.
func TestLineInPageConsistency(t *testing.T) {
	f := func(raw uint64) bool {
		v := VAddr(raw & (1<<VABits - 1))
		p := PAddr(raw)
		return v.LineInPage() < LinesPerPage &&
			p.LineInPage() < LinesPerPage &&
			v.LineInPage() == PAddr(raw&(1<<VABits-1)).LineInPage()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: PageBase is idempotent and never increases the address.
func TestPageBaseIdempotent(t *testing.T) {
	f := func(raw uint64, clsRaw uint8) bool {
		v := VAddr(raw & (1<<VABits - 1))
		c := PageSizeClass(clsRaw % 3)
		b := v.PageBase(c)
		return b <= v && b.PageBase(c) == b && b.PageOffset(c) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The address helpers panic on invalid arguments with the same
// messages whether or not they are inlined.
func TestInvalidArgumentPanicMessages(t *testing.T) {
	for _, tc := range []struct {
		want string
		fn   func()
	}{
		{"mem: invalid page size class 3", func() { Page1G.Shift(); PageSizeClass(3).Shift() }},
		{"mem: invalid page size class 9", func() { PageSizeClass(9).LeafLevel() }},
		{"mem: invalid page size class 4", func() { PageSizeClass(4).Bytes() }},
		{"mem: invalid page table level 0", func() { VAddr(0).Index(0) }},
		{"mem: invalid page table level 5", func() { VAddr(0).Index(5) }},
		{"mem: PTE index 512 out of range", func() { Frame(1).PTEAddr(EntriesPerTable) }},
	} {
		func() {
			defer func() {
				if got := fmt.Sprint(recover()); got != tc.want {
					t.Errorf("panic %q, want %q", got, tc.want)
				}
			}()
			tc.fn()
		}()
	}
}
