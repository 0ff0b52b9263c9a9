// Package mem provides the address primitives shared by every subsystem
// of the TEMPO simulator: virtual and physical addresses, x86-64 page
// geometry, and cache-line arithmetic.
//
// The simulator models x86-64 with 48-bit virtual addresses translated
// by a 4-level radix page table. Page sizes of 4KB, 2MB and 1GB are
// supported, matching base pages, transparent/explicit superpages, and
// gigantic pages respectively.
package mem

import "fmt"

// VAddr is a virtual address. Only the low 48 bits are meaningful.
type VAddr uint64

// PAddr is a physical address in the simulated machine.
type PAddr uint64

// Frame is a 4KB physical frame number (PAddr >> PageShift).
type Frame uint64

// Geometry constants for x86-64 paging and 64-byte cache lines.
const (
	LineShift = 6 // 64-byte cache lines
	LineSize  = 1 << LineShift
	PageShift = 12 // 4KB base pages
	PageSize  = 1 << PageShift
	// LinesPerPage is the number of cache lines in a base page (64);
	// the index of a line within a page fits in LineIndexBits bits,
	// which is exactly the extra payload TEMPO's walker appends to
	// leaf page-table requests.
	LinesPerPage  = PageSize / LineSize
	LineIndexBits = 6

	// Page-table geometry: 9 index bits per level, 4 levels, 8-byte
	// entries, 512 entries per table page.
	LevelBits       = 9
	EntriesPerTable = 1 << LevelBits
	PTEBytes        = 8
	Levels          = 4

	VABits = 48
)

// PageSizeClass enumerates the supported translation granularities.
type PageSizeClass uint8

const (
	// Page4K is the x86-64 base 4KB page.
	Page4K PageSizeClass = iota
	// Page2M is a 2MB superpage (THP / hugetlbfs).
	Page2M
	// Page1G is a 1GB superpage (hugetlbfs only).
	Page1G
)

// Shift returns the log2 of the page size for the class: 12, then 9
// more (one radix level) per class.
func (c PageSizeClass) Shift() uint {
	if c > Page1G {
		panic(badClass(c))
	}
	return PageShift + LevelBits*uint(c)
}

// badClass, badLevel and badPTEIndex are the panic values of an
// invalid page size class, page-table level and PTE index. Their
// messages are built only when printed, so the helpers that panic with
// them stay small enough to inline.
type (
	badClass    PageSizeClass
	badLevel    int
	badPTEIndex uint64
)

func (c badClass) Error() string { return fmt.Sprintf("mem: invalid page size class %d", c) }

func (l badLevel) Error() string { return fmt.Sprintf("mem: invalid page table level %d", l) }

func (i badPTEIndex) Error() string { return fmt.Sprintf("mem: PTE index %d out of range", i) }

// Bytes returns the page size in bytes.
func (c PageSizeClass) Bytes() uint64 { return 1 << c.Shift() }

// Frames returns the number of 4KB frames a page of this class spans.
func (c PageSizeClass) Frames() uint64 { return 1 << (c.Shift() - PageShift) }

// LeafLevel returns the page-table level that holds the leaf entry for
// this page size: L1 (level 1) for 4KB, L2 for 2MB, L3 for 1GB.
func (c PageSizeClass) LeafLevel() int {
	if c > Page1G {
		panic(badClass(c))
	}
	return int(c) + 1
}

// String implements fmt.Stringer.
func (c PageSizeClass) String() string {
	switch c {
	case Page4K:
		return "4KB"
	case Page2M:
		return "2MB"
	case Page1G:
		return "1GB"
	default:
		return fmt.Sprintf("PageSizeClass(%d)", uint8(c))
	}
}

// Index returns the 9-bit page-table index used at the given level
// (4 = root ... 1 = leaf) when walking this virtual address.
func (v VAddr) Index(level int) uint64 {
	if level < 1 || level > Levels {
		panic(badLevel(level))
	}
	shift := PageShift + uint(level-1)*LevelBits
	return (uint64(v) >> shift) & (EntriesPerTable - 1)
}

// VPN returns the 4KB virtual page number.
func (v VAddr) VPN() uint64 { return uint64(v) >> PageShift }

// PageBase returns the virtual address rounded down to the page of the
// given class.
func (v VAddr) PageBase(c PageSizeClass) VAddr {
	return v &^ VAddr(c.Bytes()-1)
}

// PageOffset returns the offset of v within its page of the given class.
func (v VAddr) PageOffset(c PageSizeClass) uint64 {
	return uint64(v) & (c.Bytes() - 1)
}

// Line returns the virtual cache-line address (address with the offset
// bits cleared).
func (v VAddr) Line() VAddr { return v &^ (LineSize - 1) }

// LineInPage returns the index of the cache line within its 4KB page,
// i.e. the 6 bits TEMPO's page-table walker forwards to the memory
// controller alongside a leaf PT request.
func (v VAddr) LineInPage() uint64 {
	return (uint64(v) >> LineShift) & (LinesPerPage - 1)
}

// Canonical reports whether the address fits in the modelled 48-bit
// virtual address space.
func (v VAddr) Canonical() bool { return uint64(v) < 1<<VABits }

// Line returns the physical cache-line address.
func (p PAddr) Line() PAddr { return p &^ (LineSize - 1) }

// Frame returns the 4KB frame containing the physical address.
func (p PAddr) Frame() Frame { return Frame(uint64(p) >> PageShift) }

// LineInPage returns the cache-line index of p within its 4KB frame.
func (p PAddr) LineInPage() uint64 {
	return (uint64(p) >> LineShift) & (LinesPerPage - 1)
}

// Addr returns the base physical address of the frame.
func (f Frame) Addr() PAddr { return PAddr(uint64(f) << PageShift) }

// PTEAddr returns the physical address of the idx'th 8-byte page-table
// entry inside a table page stored in frame f.
func (f Frame) PTEAddr(idx uint64) PAddr {
	if idx >= EntriesPerTable {
		panic(badPTEIndex(idx))
	}
	return f.Addr() + PAddr(idx*PTEBytes)
}

// AlignedTo reports whether the frame number is aligned to the start of
// a page of the given class.
func (f Frame) AlignedTo(c PageSizeClass) bool {
	return uint64(f)%c.Frames() == 0
}
