// Package vm models the operating system side of the TEMPO system: a
// physical-frame buddy allocator (with a memhog-style fragmentation
// model), x86-64 4-level radix page tables materialised in simulated
// physical frames, and a demand-paging address space that implements
// the paper's page-size policies (4KB-only, transparent 2MB hugepages,
// libhugetlbfs 2MB, and libhugetlbfs 1GB).
//
// Per-frame state — the states and free-list links of buddy blocks
// below 2MB, and the page table's frame-to-table-page index — lives in
// frameIndex, a frame-indexed dense array whose 2MB chunks materialise
// on first write: lookups are two indexings rather than a hash, and a
// machine costs memory only where its frames have been written. Block
// states take a byte per frame and free-list links eight bytes, the
// latter only where a free block below 2MB is headed, so a 2MB region
// memhog fills completely costs 512 bytes. Heads of 2MB-and-larger
// blocks, at most one per 2MB region, live in a dense slice with one
// entry per region, so superpages, hugetlbfs reservations and the
// splits of large blocks materialise no chunk.
package vm

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// ErrNoMemory is returned when an allocation cannot be satisfied.
var ErrNoMemory = errors.New("vm: out of physical memory")

// MaxOrder is the largest buddy order supported: order 18 blocks are
// 2^18 frames = 1GB, the largest x86-64 page size.
const MaxOrder = 18

// MaxPhysFrames bounds the simulated physical memory: 2^24 4KB frames
// (64GB), 8x the largest configuration the paper's figures use. It
// keeps every frame number representable in the buddy allocator's
// 32-bit free-list links, and it keeps an untrusted configuration from
// sizing a machine the host cannot hold.
const MaxPhysFrames = 1 << 24

// nilLink is the sentinel for empty free-list links.
const nilLink = ^uint32(0)

// Block-head states. A frame that heads no block has state 0; the head
// of a free block carries freeHead|order and the head of an allocated
// block allocHead|order.
const (
	freeHead  = 1 << 6
	allocHead = 1 << 7
)

// freeLink threads a free block into its order's free list; it is
// meaningful only while the block's state is freeHead|order.
type freeLink struct {
	next, prev uint32
}

// blockHead is the state and free-list links of a block of order 9 or
// above, kept per 2MB region.
type blockHead struct {
	freeLink
	state uint8
}

// Buddy is a binary buddy allocator over 4KB physical frames. Orders
// run from 0 (one 4KB frame) to MaxOrder (one 1GB block); order 9
// blocks are exactly 2MB superpages. Each order's free list is a
// doubly linked LIFO list threaded through the heads of its blocks;
// the allocator is deterministic, since no step depends on anything
// but the sequence of calls.
//
// A block's head lives in one of two stores, chosen by its order (see
// setState and link): blocks below order 9 keep their state in states
// and, while free, their links in links, two lazily chunked
// frame-indexed arrays; blocks of order 9 and above, which start 2MB
// regions, keep both in regions, one slot per region. A frame heads at
// most one block at a time, so at most one store holds a nonzero state
// for it.
type Buddy struct {
	frames     uint64
	freeFrames uint64
	heads      [MaxOrder + 1]uint32
	states     frameIndex[uint8]
	links      frameIndex[freeLink]
	regions    []blockHead
}

// NewBuddy creates an allocator over the given number of 4KB frames.
// It panics if frames exceeds MaxPhysFrames; callers sizing memory
// from untrusted input must check first.
func NewBuddy(frames uint64) *Buddy {
	if frames > MaxPhysFrames {
		panic(fmt.Sprintf("vm: %d frames exceeds MaxPhysFrames (%d)", frames, uint64(MaxPhysFrames)))
	}
	b := &Buddy{
		frames:  frames,
		states:  newFrameIndex[uint8](frames),
		links:   newFrameIndex[freeLink](frames),
		regions: make([]blockHead, (frames+regionFrames-1)>>regionOrder),
	}
	for i := range b.heads {
		b.heads[i] = nilLink
	}
	// Cover [0, frames) greedily with maximal aligned blocks.
	var pos uint64
	for pos < frames {
		o := MaxOrder
		if pos != 0 {
			if tz := bits.TrailingZeros64(pos); tz < o {
				o = tz
			}
		}
		for pos+(1<<uint(o)) > frames {
			o--
		}
		b.insertFree(mem.Frame(pos), o)
		pos += 1 << uint(o)
	}
	b.freeFrames = frames
	return b
}

// TotalFrames returns the size of physical memory in 4KB frames.
func (b *Buddy) TotalFrames() uint64 { return b.frames }

// FreeFrames returns the number of currently free 4KB frames.
func (b *Buddy) FreeFrames() uint64 { return b.freeFrames }

// HasFree reports whether a block of the given order can be allocated,
// directly or by splitting a larger free block.
func (b *Buddy) HasFree(order int) bool {
	for o := order; o <= MaxOrder; o++ {
		if b.heads[o] != nilLink {
			return true
		}
	}
	return false
}

// LargestFreeOrder returns the largest order with a free block, or -1
// if memory is exhausted.
func (b *Buddy) LargestFreeOrder() int {
	for o := MaxOrder; o >= 0; o-- {
		if b.heads[o] != nilLink {
			return o
		}
	}
	return -1
}

// setState records st as the state of the block of the given order at
// f, which must be aligned to that order and inside memory: in its
// region's slot from order 9 up, else in states, materialising the
// chunk.
func (b *Buddy) setState(f mem.Frame, order int, st uint8) {
	if order >= regionOrder {
		b.regions[f>>regionOrder].state = st
		return
	}
	*b.states.at(f) = st
}

// link returns the free-list links of the free block of the given
// order at f: its region's slot from order 9 up, else its entry in
// links, materialising the chunk.
func (b *Buddy) link(f mem.Frame, order int) *freeLink {
	if order >= regionOrder {
		return &b.regions[f>>regionOrder].freeLink
	}
	return b.links.at(f)
}

// peek reads the state setState would write, without materialising
// anything; a slot past memory reads as zero.
func (b *Buddy) peek(f mem.Frame, order int) uint8 {
	if order >= regionOrder {
		if r := uint64(f >> regionOrder); r < uint64(len(b.regions)) {
			return b.regions[r].state
		}
		return 0
	}
	return b.states.get(f)
}

// state returns the state of the block f heads, from whichever store
// holds it, or 0 if f heads no block.
func (b *Buddy) state(f mem.Frame) uint8 {
	if f%regionFrames == 0 {
		if st := b.peek(f, regionOrder); st != 0 {
			return st
		}
	}
	return b.states.get(f)
}

// isFreeHead reports whether f heads a free block of the given order.
func (b *Buddy) isFreeHead(f mem.Frame, order int) bool {
	return b.peek(f, order) == freeHead|uint8(order)
}

func (b *Buddy) insertFree(f mem.Frame, order int) {
	h := b.heads[order]
	b.setState(f, order, freeHead|uint8(order))
	*b.link(f, order) = freeLink{next: h, prev: nilLink}
	if h != nilLink {
		b.link(mem.Frame(h), order).prev = uint32(f)
	}
	b.heads[order] = uint32(f)
}

func (b *Buddy) removeFree(f mem.Frame, order int) {
	b.setState(f, order, 0)
	l := b.link(f, order)
	n, p := l.next, l.prev
	if p != nilLink {
		b.link(mem.Frame(p), order).next = n
	} else {
		b.heads[order] = n
	}
	if n != nilLink {
		b.link(mem.Frame(n), order).prev = p
	}
}

// freeBlockContaining returns the head and order of the free block,
// of order minOrder or above, that contains f.
func (b *Buddy) freeBlockContaining(f mem.Frame, minOrder int) (head mem.Frame, order int, ok bool) {
	for o := minOrder; o <= MaxOrder; o++ {
		h := f &^ (mem.Frame(1)<<uint(o) - 1)
		if b.isFreeHead(h, o) {
			return h, o, true
		}
	}
	return 0, 0, false
}

// split takes the free block of the given order at head off its list
// and halves it down to order to, returning to the free lists every
// half that does not contain f. The order-to block holding f is left
// to the caller.
func (b *Buddy) split(head mem.Frame, order, to int, f mem.Frame) {
	b.removeFree(head, order)
	for order > to {
		order--
		half := head + mem.Frame(1)<<uint(order)
		if f >= half {
			b.insertFree(head, order)
			head = half
		} else {
			b.insertFree(half, order)
		}
	}
}

// Alloc allocates a block of 2^order contiguous, naturally aligned
// frames and returns its first frame.
func (b *Buddy) Alloc(order int) (mem.Frame, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("vm: invalid order %d", order)
	}
	o := order
	for o <= MaxOrder && b.heads[o] == nilLink {
		o++
	}
	if o > MaxOrder {
		return 0, ErrNoMemory
	}
	f := mem.Frame(b.heads[o])
	b.split(f, o, order, f)
	b.setState(f, order, allocHead|uint8(order))
	b.freeFrames -= 1 << uint(order)
	return f, nil
}

// AllocFrame allocates a single 4KB frame.
func (b *Buddy) AllocFrame() (mem.Frame, error) { return b.Alloc(0) }

// AllocSpecific allocates exactly the single 4KB frame f, splitting
// whatever free block currently contains it. It is used by the memhog
// fragmentation model to pollute chosen 2MB regions. It returns an
// error if f is out of range or already allocated.
func (b *Buddy) AllocSpecific(f mem.Frame) error {
	if uint64(f) >= b.frames {
		return fmt.Errorf("vm: frame %d out of range", f)
	}
	head, order, ok := b.freeBlockContaining(f, 0)
	if !ok {
		return fmt.Errorf("vm: frame %d not free", f)
	}
	b.split(head, order, 0, f)
	*b.states.at(f) = allocHead
	b.freeFrames--
	return nil
}

// Free releases a previously allocated block, coalescing with free
// buddies as far as possible.
func (b *Buddy) Free(f mem.Frame) error {
	st := b.state(f)
	if st&allocHead == 0 {
		return fmt.Errorf("vm: frame %d not allocated", f)
	}
	order := int(st &^ allocHead)
	b.setState(f, order, 0)
	b.freeFrames += 1 << uint(order)
	for order < MaxOrder {
		buddy := f ^ (mem.Frame(1) << uint(order))
		if uint64(buddy)+(1<<uint(order)) > b.frames {
			break
		}
		if !b.isFreeHead(buddy, order) {
			break
		}
		b.removeFree(buddy, order)
		if buddy < f {
			f = buddy
		}
		order++
	}
	b.insertFree(f, order)
	return nil
}

// Allocated reports whether f is the head of an allocated block.
func (b *Buddy) Allocated(f mem.Frame) bool {
	return b.state(f)&allocHead != 0
}
