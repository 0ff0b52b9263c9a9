package vm

import (
	"fmt"

	"repro/internal/mem"
)

// PTE is one page-table entry, as ReadPTE decodes it. For interior
// levels, Frame is the physical frame of the next-level table page;
// for leaf entries it is the first frame of the mapped data page. Leaf
// reports whether the entry terminates the walk at its level (always
// true at L1; true at L2/L3 for 2MB/1GB superpages, mirroring the
// x86-64 PS bit). A table page stores each entry packed into its
// 8-byte x86-64 form (see packPTE).
type PTE struct {
	Present bool
	Leaf    bool
	Frame   mem.Frame
}

// Packed entry bits, at their x86-64 positions: bit 0 is present,
// bit 7 marks a leaf (PS above L1), and bits 12 and up hold the frame.
const (
	ptePresent    = 1 << 0
	pteLeaf       = 1 << 7
	presentLeaf   = ptePresent | pteLeaf
	pteFrameShift = mem.PageShift
	// maxPTEFrame is the largest frame a packed entry holds: the last
	// frame with a 64-bit physical address.
	maxPTEFrame = mem.Frame(1)<<(64-pteFrameShift) - 1
)

// packPTE encodes e; its frame must be at most maxPTEFrame.
func packPTE(e PTE) uint64 {
	raw := uint64(e.Frame) << pteFrameShift
	if e.Present {
		raw |= ptePresent
	}
	if e.Leaf {
		raw |= pteLeaf
	}
	return raw
}

// unpackPTE decodes a packed entry.
func unpackPTE(raw uint64) PTE {
	return PTE{Present: raw&ptePresent != 0, Leaf: raw&pteLeaf != 0, Frame: pteFrame(raw)}
}

// pteFrame returns a packed entry's frame.
func pteFrame(raw uint64) mem.Frame { return mem.Frame(raw >> pteFrameShift) }

// Translation is a resolved virtual-to-physical mapping.
type Translation struct {
	VBase mem.VAddr // virtual base of the mapped page
	Frame mem.Frame // first physical frame of the page
	Class mem.PageSizeClass
}

// Translate applies the mapping to a virtual address within the page.
func (t Translation) Translate(v mem.VAddr) mem.PAddr {
	return t.Frame.Addr() + mem.PAddr(v.PageOffset(t.Class))
}

// Contains reports whether v lies inside the translated page.
func (t Translation) Contains(v mem.VAddr) bool {
	return v.PageBase(t.Class) == t.VBase
}

// WalkStep is one memory reference a hardware page-table walker makes:
// the level being probed (4 = root ... 1), the physical address of the
// PTE, and whether this PTE is the leaf of the walk.
type WalkStep struct {
	Level   int
	PTEAddr mem.PAddr
	IsLeaf  bool
}

// tablePage is one 4KB page-table page: its 512 packed entries, 4,096
// bytes, an exact Go size class. Its frame and level are kept beside
// it: the frame index maps a table frame to its tableSlot, and a walk
// knows each page's frame from the entry that led to it.
type tablePage [mem.EntriesPerTable]uint64

// tableSlot is the frame index's entry for a table frame: its page
// (nil for any other frame) and the page's level.
type tableSlot struct {
	page  *tablePage
	level int
}

// tableRef is a table page with its frame.
type tableRef struct {
	page  *tablePage
	frame mem.Frame
}

// PageTable is an x86-64 style 4-level radix page table materialised
// in simulated physical memory: every table page occupies a real frame
// from the system's buddy allocator, so PTE physical addresses map to
// concrete DRAM rows and cache lines — exactly what TEMPO's memory
// controller observes.
type PageTable struct {
	root tableRef
	// byFrame maps each table frame to its page and level.
	byFrame frameIndex[tableSlot]
	alloc   func() (mem.Frame, error)
	// tablePages counts allocated page-table pages (incl. root), and
	// l1Pages the level-1 ones among them.
	tablePages, l1Pages uint64

	// Walk memo: the page path the most recent software walk followed.
	// memoPages[lvl] is the table page probed at lvl, valid for lvl in
	// [memoDepth, Levels]. A later walk whose upper indices match
	// memoV's resumes from the deepest shared page: the shared entries
	// were present and non-leaf when memoized (the walk descended
	// through them) and the table is immutable between Map calls,
	// which drop the memo. Consecutive translations share upper levels
	// almost always, so most walks probe only the leaf table page.
	memoV     mem.VAddr
	memoPages [mem.Levels + 1]tableRef
	memoDepth int // Levels+1 = no memo
}

// NewPageTable creates an empty table; alloc provides frames for table
// pages (typically Buddy.AllocFrame).
func NewPageTable(alloc func() (mem.Frame, error)) (*PageTable, error) {
	pt := &PageTable{alloc: alloc, memoDepth: mem.Levels + 1}
	root, err := pt.newPage(mem.Levels)
	if err != nil {
		return nil, err
	}
	pt.root = root
	return pt, nil
}

func (pt *PageTable) newPage(level int) (tableRef, error) {
	f, err := pt.alloc()
	if err != nil {
		return tableRef{}, err
	}
	if f > maxPTEFrame {
		return tableRef{}, fmt.Errorf("vm: table frame %#x has no 64-bit physical address", uint64(f))
	}
	p := new(tablePage)
	*pt.byFrame.at(f) = tableSlot{page: p, level: level}
	pt.tablePages++
	if level == 1 {
		pt.l1Pages++
	}
	return tableRef{page: p, frame: f}, nil
}

// page returns the table page at frame f, or nil.
func (pt *PageTable) page(f mem.Frame) *tablePage { return pt.byFrame.get(f).page }

// RootFrame returns the frame holding the L4 table (the CR3 value).
func (pt *PageTable) RootFrame() mem.Frame { return pt.root.frame }

// TablePages returns the number of 4KB pages the table itself uses.
func (pt *PageTable) TablePages() uint64 { return pt.tablePages }

// L1TablePages returns the number of level-1 table pages: one per 2MB
// virtual region holding a 4KB mapping, since only 4KB Maps create
// them and no table page is ever freed.
func (pt *PageTable) L1TablePages() uint64 { return pt.l1Pages }

// Map installs a translation for the page containing v, allocating
// intermediate table pages as needed. The data page's first frame must
// be naturally aligned for the class. Mapping over an existing
// translation or over a region covered by a superpage is an error —
// the OS model never remaps.
func (pt *PageTable) Map(v mem.VAddr, c mem.PageSizeClass, f mem.Frame) error {
	if !v.Canonical() {
		return fmt.Errorf("vm: non-canonical address %#x", uint64(v))
	}
	if !f.AlignedTo(c) {
		return fmt.Errorf("vm: frame %#x misaligned for %v page", uint64(f), c)
	}
	if f > maxPTEFrame {
		return fmt.Errorf("vm: frame %#x has no 64-bit physical address", uint64(f))
	}
	pt.dropMemo()
	leafLevel := c.LeafLevel()
	n := pt.root.page
	for lvl := mem.Levels; lvl > leafLevel; lvl-- {
		e := &n[v.Index(lvl)]
		if *e&presentLeaf == presentLeaf {
			return fmt.Errorf("vm: %#x already covered by a superpage at L%d", uint64(v), lvl)
		}
		if *e&ptePresent == 0 {
			child, err := pt.newPage(lvl - 1)
			if err != nil {
				return err
			}
			*e = packPTE(PTE{Present: true, Frame: child.frame})
		}
		n = pt.page(pteFrame(*e))
	}
	e := &n[v.Index(leafLevel)]
	if *e&ptePresent != 0 {
		return fmt.Errorf("vm: %#x already mapped", uint64(v))
	}
	*e = packPTE(PTE{Present: true, Leaf: true, Frame: f})
	return nil
}

// Lookup performs a software walk and returns the translation for v.
// It reuses the walk memo read-only: the shared upper entries are
// known present and non-leaf, so the descent resumes below them.
func (pt *PageTable) Lookup(v mem.VAddr) (Translation, bool) {
	r, start := pt.memoResume(v)
	n := r.page
	for lvl := start; lvl >= 1; lvl-- {
		e := n[v.Index(lvl)]
		if e&ptePresent == 0 {
			return Translation{}, false
		}
		if e&pteLeaf != 0 {
			c, ok := classForLeafLevel(lvl)
			if !ok {
				return Translation{}, false
			}
			return Translation{VBase: v.PageBase(c), Frame: pteFrame(e), Class: c}, true
		}
		n = pt.page(pteFrame(e))
	}
	return Translation{}, false
}

// Walk returns the ordered physical PTE addresses a hardware walker
// references to translate v, stopping at the leaf (or at the first
// non-present entry, whose step is still included — hardware reads the
// entry before discovering the fault). The boolean reports whether the
// walk reached a present leaf.
func (pt *PageTable) Walk(v mem.VAddr) ([mem.Levels]WalkStep, int, bool) {
	var steps [mem.Levels]WalkStep
	count := 0
	r, start := pt.memoResume(v)
	// Steps for the shared prefix come straight from the memoized
	// pages' frames: those entries were present and non-leaf, so
	// neither the frame index nor the entry arrays need touching.
	for lvl := mem.Levels; lvl > start; lvl-- {
		steps[count] = WalkStep{Level: lvl, PTEAddr: pt.memoPages[lvl].frame.PTEAddr(v.Index(lvl))}
		count++
	}
	for lvl := start; lvl >= 1; lvl-- {
		addr := r.frame.PTEAddr(v.Index(lvl))
		e := r.page[v.Index(lvl)]
		leaf := e&presentLeaf == presentLeaf
		steps[count] = WalkStep{Level: lvl, PTEAddr: addr, IsLeaf: leaf}
		count++
		pt.memoPages[lvl] = r
		if e&ptePresent == 0 || leaf {
			pt.memoV, pt.memoDepth = v, lvl
			return steps, count, leaf
		}
		f := pteFrame(e)
		r = tableRef{page: pt.page(f), frame: f}
	}
	pt.memoV, pt.memoDepth = v, 1
	return steps, count, false
}

// memoResume returns the deepest memoized page shared with v's walk
// path and its level. Falls back to the root when the memo is empty or
// no upper indices match.
func (pt *PageTable) memoResume(v mem.VAddr) (tableRef, int) {
	common := mem.Levels
	if pt.memoDepth <= mem.Levels {
		for common > pt.memoDepth && v.Index(common) == pt.memoV.Index(common) {
			common--
		}
	}
	if common == mem.Levels {
		return pt.root, common
	}
	return pt.memoPages[common], common
}

// dropMemo forgets the walk memo; called by every table mutation.
func (pt *PageTable) dropMemo() {
	pt.memoDepth = mem.Levels + 1
	for i := range pt.memoPages {
		pt.memoPages[i] = tableRef{}
	}
}

// ReadPTE lets the memory controller "read DRAM" at a PTE address: if
// p falls inside a page-table page, it returns the entry, the level of
// the table, and true. This is the information TEMPO's Prefetch Engine
// extracts from the DRAM burst that services a page-table walk.
func (pt *PageTable) ReadPTE(p mem.PAddr) (PTE, int, bool) {
	t := pt.byFrame.get(p.Frame())
	if t.page == nil {
		return PTE{}, 0, false
	}
	idx := (uint64(p) % mem.PageSize) / mem.PTEBytes
	return unpackPTE(t.page[idx]), t.level, true
}

// IsTableFrame reports whether the frame holds a page-table page.
func (pt *PageTable) IsTableFrame(f mem.Frame) bool {
	return pt.page(f) != nil
}

func classForLeafLevel(lvl int) (mem.PageSizeClass, bool) {
	switch lvl {
	case 1:
		return mem.Page4K, true
	case 2:
		return mem.Page2M, true
	case 3:
		return mem.Page1G, true
	default:
		return 0, false
	}
}
