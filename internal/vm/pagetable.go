package vm

import (
	"fmt"

	"repro/internal/mem"
)

// PTE is one 8-byte page-table entry. For interior levels, Frame is
// the physical frame of the next-level table page; for leaf entries it
// is the first frame of the mapped data page. Leaf reports whether the
// entry terminates the walk at its level (always true at L1; true at
// L2/L3 for 2MB/1GB superpages, mirroring the x86-64 PS bit).
type PTE struct {
	Present bool
	Leaf    bool
	Frame   mem.Frame
}

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

// node is one 4KB page-table page.
type node struct {
	frame   mem.Frame
	level   int
	entries [mem.EntriesPerTable]PTE
}

// PageTable is an x86-64 style 4-level radix page table materialised
// in simulated physical memory: every table page occupies a real frame
// from the system's buddy allocator, so PTE physical addresses map to
// concrete DRAM rows and cache lines — exactly what TEMPO's memory
// controller observes.
type PageTable struct {
	root *node
	// byFrame maps each table frame to its page (nil elsewhere).
	byFrame frameIndex[*node]
	alloc   func() (mem.Frame, error)
	// tablePages counts allocated page-table pages (incl. root).
	tablePages uint64

	// Walk memo: the node path the most recent software walk followed.
	// memoNodes[lvl] is the table page probed at lvl, valid for lvl in
	// [memoDepth, Levels]. A later walk whose upper indices match
	// memoV's resumes from the deepest shared node: the shared entries
	// were present and non-leaf when memoized (the walk descended
	// through them) and the table is immutable between Map/Unmap calls,
	// which drop the memo. Consecutive translations share upper levels
	// almost always, so most walks probe only the leaf table page.
	memoV     mem.VAddr
	memoNodes [mem.Levels + 1]*node
	memoDepth int // Levels+1 = no memo
}

// NewPageTable creates an empty table; alloc provides frames for table
// pages (typically Buddy.AllocFrame).
func NewPageTable(alloc func() (mem.Frame, error)) (*PageTable, error) {
	pt := &PageTable{alloc: alloc, memoDepth: mem.Levels + 1}
	root, err := pt.newNode(mem.Levels)
	if err != nil {
		return nil, err
	}
	pt.root = root
	return pt, nil
}

func (pt *PageTable) newNode(level int) (*node, error) {
	f, err := pt.alloc()
	if err != nil {
		return nil, err
	}
	n := &node{frame: f, level: level}
	*pt.byFrame.at(f) = n
	pt.tablePages++
	return n, nil
}

// RootFrame returns the frame holding the L4 table (the CR3 value).
func (pt *PageTable) RootFrame() mem.Frame { return pt.root.frame }

// TablePages returns the number of 4KB pages the table itself uses.
func (pt *PageTable) TablePages() uint64 { return pt.tablePages }

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
	pt.dropMemo()
	leafLevel := c.LeafLevel()
	n := pt.root
	for lvl := mem.Levels; lvl > leafLevel; lvl-- {
		e := &n.entries[v.Index(lvl)]
		if e.Present && e.Leaf {
			return fmt.Errorf("vm: %#x already covered by a superpage at L%d", uint64(v), lvl)
		}
		if !e.Present {
			child, err := pt.newNode(lvl - 1)
			if err != nil {
				return err
			}
			*e = PTE{Present: true, Frame: child.frame}
		}
		n = pt.byFrame.get(e.Frame)
	}
	e := &n.entries[v.Index(leafLevel)]
	if e.Present {
		return fmt.Errorf("vm: %#x already mapped", uint64(v))
	}
	*e = PTE{Present: true, Leaf: true, Frame: f}
	return nil
}

// Lookup performs a software walk and returns the translation for v.
// It reuses the walk memo read-only: the shared upper entries are
// known present and non-leaf, so the descent resumes below them.
func (pt *PageTable) Lookup(v mem.VAddr) (Translation, bool) {
	n, start := pt.memoResume(v)
	for lvl := start; lvl >= 1; lvl-- {
		e := n.entries[v.Index(lvl)]
		if !e.Present {
			return Translation{}, false
		}
		if e.Leaf {
			c, ok := classForLeafLevel(lvl)
			if !ok {
				return Translation{}, false
			}
			return Translation{VBase: v.PageBase(c), Frame: e.Frame, Class: c}, true
		}
		n = pt.byFrame.get(e.Frame)
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
	n, start := pt.memoResume(v)
	// Steps for the shared prefix come straight from the memoized
	// nodes: those entries were present and non-leaf, so neither the
	// frame index nor the entry arrays need touching.
	for lvl := mem.Levels; lvl > start; lvl-- {
		steps[count] = WalkStep{Level: lvl, PTEAddr: pt.memoNodes[lvl].frame.PTEAddr(v.Index(lvl))}
		count++
	}
	for lvl := start; lvl >= 1; lvl-- {
		addr := n.frame.PTEAddr(v.Index(lvl))
		e := n.entries[v.Index(lvl)]
		steps[count] = WalkStep{Level: lvl, PTEAddr: addr, IsLeaf: e.Present && e.Leaf}
		count++
		pt.memoNodes[lvl] = n
		if !e.Present || e.Leaf {
			pt.memoV, pt.memoDepth = v, lvl
			return steps, count, e.Present && e.Leaf
		}
		n = pt.byFrame.get(e.Frame)
	}
	pt.memoV, pt.memoDepth = v, 1
	return steps, count, false
}

// memoResume returns the deepest memoized node shared with v's walk
// path and its level. Falls back to the root when the memo is empty or
// no upper indices match.
func (pt *PageTable) memoResume(v mem.VAddr) (*node, int) {
	common := mem.Levels
	if pt.memoDepth <= mem.Levels {
		for common > pt.memoDepth && v.Index(common) == pt.memoV.Index(common) {
			common--
		}
	}
	if common == mem.Levels {
		return pt.root, common
	}
	return pt.memoNodes[common], common
}

// dropMemo forgets the walk memo; called by every table mutation.
func (pt *PageTable) dropMemo() {
	pt.memoDepth = mem.Levels + 1
	for i := range pt.memoNodes {
		pt.memoNodes[i] = nil
	}
}

// Unmap removes the translation covering v and returns it. Interior
// table pages are kept (Linux behaves the same way); the caller owns
// freeing the data frames and shooting down TLBs.
func (pt *PageTable) Unmap(v mem.VAddr) (Translation, bool) {
	pt.dropMemo()
	n := pt.root
	for lvl := mem.Levels; lvl >= 1; lvl-- {
		e := &n.entries[v.Index(lvl)]
		if !e.Present {
			return Translation{}, false
		}
		if e.Leaf {
			c, ok := classForLeafLevel(lvl)
			if !ok {
				return Translation{}, false
			}
			tr := Translation{VBase: v.PageBase(c), Frame: e.Frame, Class: c}
			*e = PTE{}
			return tr, true
		}
		n = pt.byFrame.get(e.Frame)
	}
	return Translation{}, false
}

// ReadPTE lets the memory controller "read DRAM" at a PTE address: if
// p falls inside a page-table page, it returns the entry, the level of
// the table, and true. This is the information TEMPO's Prefetch Engine
// extracts from the DRAM burst that services a page-table walk.
func (pt *PageTable) ReadPTE(p mem.PAddr) (PTE, int, bool) {
	n := pt.byFrame.get(p.Frame())
	if n == nil {
		return PTE{}, 0, false
	}
	idx := (uint64(p) % mem.PageSize) / mem.PTEBytes
	return n.entries[idx], n.level, true
}

// IsTableFrame reports whether the frame holds a page-table page.
func (pt *PageTable) IsTableFrame(f mem.Frame) bool {
	return pt.byFrame.get(f) != nil
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
