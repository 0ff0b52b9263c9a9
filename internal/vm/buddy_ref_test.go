package vm

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/mem"
)

// refBuddy is the original map-based buddy allocator, kept verbatim
// (renamed) as the reference the dense Buddy is differentially tested
// against: every free list is a doubly linked list threaded through
// per-frame maps, so its behaviour is easy to read off the code.

// refNilFrame is the sentinel for empty free-list links.
const refNilFrame = ^mem.Frame(0)

type refBuddy struct {
	frames     uint64
	freeFrames uint64
	heads      [MaxOrder + 1]mem.Frame
	next       map[mem.Frame]mem.Frame
	prev       map[mem.Frame]mem.Frame
	freeOrd    map[mem.Frame]int8
	allocOrd   map[mem.Frame]int8
}

func newRefBuddy(frames uint64) *refBuddy {
	b := &refBuddy{
		frames:   frames,
		next:     make(map[mem.Frame]mem.Frame),
		prev:     make(map[mem.Frame]mem.Frame),
		freeOrd:  make(map[mem.Frame]int8),
		allocOrd: make(map[mem.Frame]int8),
	}
	for i := range b.heads {
		b.heads[i] = refNilFrame
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

func (b *refBuddy) TotalFrames() uint64 { return b.frames }

func (b *refBuddy) FreeFrames() uint64 { return b.freeFrames }

func (b *refBuddy) HasFree(order int) bool {
	for o := order; o <= MaxOrder; o++ {
		if b.heads[o] != refNilFrame {
			return true
		}
	}
	return false
}

func (b *refBuddy) LargestFreeOrder() int {
	for o := MaxOrder; o >= 0; o-- {
		if b.heads[o] != refNilFrame {
			return o
		}
	}
	return -1
}

func (b *refBuddy) insertFree(f mem.Frame, order int) {
	h := b.heads[order]
	b.next[f] = h
	b.prev[f] = refNilFrame
	if h != refNilFrame {
		b.prev[h] = f
	}
	b.heads[order] = f
	b.freeOrd[f] = int8(order)
}

func (b *refBuddy) removeFree(f mem.Frame, order int) {
	n, p := b.next[f], b.prev[f]
	if p != refNilFrame {
		b.next[p] = n
	} else {
		b.heads[order] = n
	}
	if n != refNilFrame {
		b.prev[n] = p
	}
	delete(b.next, f)
	delete(b.prev, f)
	delete(b.freeOrd, f)
}

func (b *refBuddy) Alloc(order int) (mem.Frame, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("vm: invalid order %d", order)
	}
	o := order
	for o <= MaxOrder && b.heads[o] == refNilFrame {
		o++
	}
	if o > MaxOrder {
		return 0, ErrNoMemory
	}
	f := b.heads[o]
	b.removeFree(f, o)
	for o > order {
		o--
		b.insertFree(f+mem.Frame(1)<<uint(o), o)
	}
	b.allocOrd[f] = int8(order)
	b.freeFrames -= 1 << uint(order)
	return f, nil
}

func (b *refBuddy) AllocFrame() (mem.Frame, error) { return b.Alloc(0) }

func (b *refBuddy) AllocSpecific(f mem.Frame) error {
	if uint64(f) >= b.frames {
		return fmt.Errorf("vm: frame %d out of range", f)
	}
	// Find the free block containing f.
	found := -1
	var head mem.Frame
	for o := 0; o <= MaxOrder; o++ {
		h := f &^ (mem.Frame(1)<<uint(o) - 1)
		if ord, ok := b.freeOrd[h]; ok && int(ord) == o {
			found, head = o, h
			break
		}
	}
	if found < 0 {
		return fmt.Errorf("vm: frame %d not free", f)
	}
	b.removeFree(head, found)
	for o := found; o > 0; {
		o--
		half := head + mem.Frame(1)<<uint(o)
		if f >= half {
			b.insertFree(head, o)
			head = half
		} else {
			b.insertFree(half, o)
		}
	}
	b.allocOrd[f] = 0
	b.freeFrames--
	return nil
}

func (b *refBuddy) Free(f mem.Frame) error {
	ord, ok := b.allocOrd[f]
	if !ok {
		return fmt.Errorf("vm: frame %d not allocated", f)
	}
	delete(b.allocOrd, f)
	order := int(ord)
	b.freeFrames += 1 << uint(order)
	for order < MaxOrder {
		buddy := f ^ (mem.Frame(1) << uint(order))
		if uint64(buddy)+(1<<uint(order)) > b.frames {
			break
		}
		if bo, ok := b.freeOrd[buddy]; !ok || int(bo) != order {
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

func (b *refBuddy) Allocated(f mem.Frame) bool {
	_, ok := b.allocOrd[f]
	return ok
}

// refFragment is the memhog model as it was before region templates,
// kept verbatim (renamed) as the reference fragment is tested against:
// one allocSpecific call per frame, counting only the frames it gets.
func refFragment(rng *rand.Rand, physFrames uint64, fraction float64, allocSpecific func(mem.Frame) error) {
	want := uint64(float64(physFrames) * fraction)
	if want == 0 {
		return
	}
	regions := physFrames / 512
	if regions == 0 {
		return
	}
	perm := rng.Perm(int(regions))
	var got uint64
	for _, r := range perm {
		if got >= want {
			break
		}
		base := mem.Frame(uint64(r) * 512)
		// Fill every step-th frame of the region.
		fill := 51 + rng.Intn(410)
		step := 512 / fill
		if step == 0 {
			step = 1
		}
		for i := 0; i < 512 && got < want; i += step {
			if err := allocSpecific(base + mem.Frame(i)); err == nil {
				got++
			}
		}
	}
}
