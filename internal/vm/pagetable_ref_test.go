package vm

import (
	"fmt"

	"repro/internal/mem"
)

// refPageTable is the page table with 16-byte PTE structs, kept
// verbatim (renamed) as the reference the packed PageTable is
// differentially tested against: each table page holds its entries as
// PTE values, so every read and write is a plain struct access.

// refNode is one 4KB page-table page.
type refNode struct {
	frame   mem.Frame
	level   int
	entries [mem.EntriesPerTable]PTE
}

// refPageTable is an x86-64 style 4-level radix page table materialised
// in simulated physical memory: every table page occupies a real frame
// from the system's buddy allocator, so PTE physical addresses map to
// concrete DRAM rows and cache lines — exactly what TEMPO's memory
// controller observes.
type refPageTable struct {
	root *refNode
	// byFrame maps each table frame to its page (nil elsewhere).
	byFrame frameIndex[*refNode]
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
	memoNodes [mem.Levels + 1]*refNode
	memoDepth int // Levels+1 = no memo
}

// newRefPageTable creates an empty table; alloc provides frames for table
// pages (typically Buddy.AllocFrame).
func newRefPageTable(alloc func() (mem.Frame, error)) (*refPageTable, error) {
	pt := &refPageTable{alloc: alloc, memoDepth: mem.Levels + 1}
	root, err := pt.newNode(mem.Levels)
	if err != nil {
		return nil, err
	}
	pt.root = root
	return pt, nil
}

func (pt *refPageTable) newNode(level int) (*refNode, error) {
	f, err := pt.alloc()
	if err != nil {
		return nil, err
	}
	n := &refNode{frame: f, level: level}
	*pt.byFrame.at(f) = n
	pt.tablePages++
	return n, nil
}

// RootFrame returns the frame holding the L4 table (the CR3 value).
func (pt *refPageTable) RootFrame() mem.Frame { return pt.root.frame }

// TablePages returns the number of 4KB pages the table itself uses.
func (pt *refPageTable) TablePages() uint64 { return pt.tablePages }

// Map installs a translation for the page containing v, allocating
// intermediate table pages as needed. The data page's first frame must
// be naturally aligned for the class. Mapping over an existing
// translation or over a region covered by a superpage is an error —
// the OS model never remaps.
func (pt *refPageTable) Map(v mem.VAddr, c mem.PageSizeClass, f mem.Frame) error {
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
func (pt *refPageTable) Lookup(v mem.VAddr) (Translation, bool) {
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
func (pt *refPageTable) Walk(v mem.VAddr) ([mem.Levels]WalkStep, int, bool) {
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
func (pt *refPageTable) memoResume(v mem.VAddr) (*refNode, int) {
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
func (pt *refPageTable) dropMemo() {
	pt.memoDepth = mem.Levels + 1
	for i := range pt.memoNodes {
		pt.memoNodes[i] = nil
	}
}

// ReadPTE lets the memory controller "read DRAM" at a PTE address: if
// p falls inside a page-table page, it returns the entry, the level of
// the table, and true. This is the information TEMPO's Prefetch Engine
// extracts from the DRAM burst that services a page-table walk.
func (pt *refPageTable) ReadPTE(p mem.PAddr) (PTE, int, bool) {
	n := pt.byFrame.get(p.Frame())
	if n == nil {
		return PTE{}, 0, false
	}
	idx := (uint64(p) % mem.PageSize) / mem.PTEBytes
	return n.entries[idx], n.level, true
}

// IsTableFrame reports whether the frame holds a page-table page.
func (pt *refPageTable) IsTableFrame(f mem.Frame) bool {
	return pt.byFrame.get(f) != nil
}
