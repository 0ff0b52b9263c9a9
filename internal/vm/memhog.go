package vm

import (
	"math/rand"
	"slices"
	"sync"

	"repro/internal/mem"
)

// A 2MB region, the unit memhog fragments, is one order-9 buddy block.
const (
	regionOrder  = 9
	regionFrames = 1 << regionOrder
)

// splice writes a region through one frameIndex chunk: this fails to
// compile unless a chunk is exactly one region.
const _ = uint(frameChunk-regionFrames) + uint(regionFrames-frameChunk)

// fragment models memhog, a process that takes physical memory before
// the application starts: it allocates fraction of the physFrames
// frames from b as single 4KB frames in randomly chosen 2MB regions,
// destroying their contiguity for THP. A chosen region gets every
// step-th frame from its base, step = 512/fill for fill uniform in
// 51..460: 49.8% of regions are filled completely, 21.0% at 1/2, 10.2%
// at 1/3, 6.3% at 1/4 and the other 12.7% at 1/5 to 1/10. The last
// region stops where the total reaches the fraction.
//
// A region lying wholly inside one free block of order 9 or above is
// split off that block and filled from a regionTemplate, which leaves
// the allocator exactly as one AllocSpecific per frame would. Any other
// region — part of a hugetlbfs reservation, split by an earlier
// allocation, or past the allocator's last frame — takes that
// per-frame loop, counting only the frames it gets.
func fragment(rng *rand.Rand, b *Buddy, physFrames uint64, fraction float64) {
	want := uint64(float64(physFrames) * fraction)
	if want == 0 {
		return
	}
	regions := physFrames / regionFrames
	if regions == 0 {
		return
	}
	perm := rng.Perm(int(regions))
	full := fullTemplates()
	var got uint64
	for _, r := range perm {
		if got >= want {
			break
		}
		base := mem.Frame(uint64(r) * regionFrames)
		step := regionFrames / (51 + rng.Intn(410))
		head, order, ok := b.freeBlockContaining(base, regionOrder)
		if !ok {
			for i := 0; i < regionFrames && got < want; i += step {
				if b.AllocSpecific(base+mem.Frame(i)) == nil {
					got++
				}
			}
			continue
		}
		t := full[step]
		if uint64(t.count) > want-got {
			t = newRegionTemplate(step, int(want-got))
		}
		b.split(head, order, regionOrder, base)
		b.splice(base, t)
		got += uint64(t.count)
	}
}

// fullTemplates holds, by step, the template of every whole region
// fragment fills: ceil(512/step) frames for each step 1..10 it draws.
// Templates are immutable, so one table serves every simulation.
var fullTemplates = sync.OnceValue(func() *[regionFrames/51 + 1]*regionTemplate {
	var ts [regionFrames/51 + 1]*regionTemplate
	for step := 1; step < len(ts); step++ {
		ts[step] = newRegionTemplate(step, (regionFrames+step-1)/step)
	}
	return &ts
})

// regionTemplate is what allocating count frames, at offsets 0, step,
// 2·step, …, leaves in a wholly free 2MB region: those frames, and the
// free blocks AllocSpecific's splits leave around them. Once the
// region is split off as a block of its own, every split and list
// operation of that fragmentation touches only the region's blocks,
// so its survivors end up ahead of all older blocks on their lists,
// newest first. free keeps each order's survivors oldest first, so
// pushing them in turn rebuilds exactly that order.
type regionTemplate struct {
	step, count int
	free        []templateBlock
}

// templateBlock is one free block of a regionTemplate.
type templateBlock struct {
	off   uint16 // frame offset from the region's base
	order uint8
}

// newRegionTemplate records the template for count frames at the given
// step by running AllocSpecific on a one-region scratch Buddy, so the
// split rule stays written once.
func newRegionTemplate(step, count int) *regionTemplate {
	s := NewBuddy(regionFrames)
	for i := 0; i < count; i++ {
		if err := s.AllocSpecific(mem.Frame(i * step)); err != nil {
			panic(err) // distinct frames of one free region
		}
	}
	t := &regionTemplate{step: step, count: count}
	for o := 0; o < regionOrder; o++ {
		n := len(t.free)
		for f := s.heads[o]; f != nilLink; f = s.links.get(mem.Frame(f)).next {
			t.free = append(t.free, templateBlock{off: uint16(f), order: uint8(o)})
		}
		slices.Reverse(t.free[n:])
	}
	return t
}

// splice fills the 2MB region at base, an order-9 block the caller has
// split off and owns, as t records: t's free blocks go onto their
// lists and its frames are marked allocated.
func (b *Buddy) splice(base mem.Frame, t *regionTemplate) {
	for _, fb := range t.free {
		b.insertFree(base+mem.Frame(fb.off), int(fb.order))
	}
	c := b.states.chunk(base) // a region is one chunk
	for i := 0; i < t.count; i++ {
		c[i*t.step] = allocHead
	}
	b.freeFrames -= uint64(t.count)
}
