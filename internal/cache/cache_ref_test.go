package cache

// The stamp-based LRU cache this package used before its recency
// stacks, kept as the reference the differential tests in
// cache_diff_test.go compare Cache against. It is the old code
// verbatim, renamed, minus Invalidate and Flush, which Cache no longer
// has.

import (
	"fmt"
	"sort"

	"repro/internal/mem"
)

// refCache is one set-associative write-back cache level. Each way's tag
// and LRU stamp are packed into one uint64 (tag high, stamp low), so
// the victim scan — which needs both — walks a single contiguous
// array: a whole 8-way set's state is one host cache line instead of
// spanning separate tag and stamp arrays.
type refCache struct {
	name     string
	sets     int
	ways     int
	setMask  uint64
	setShift uint
	latency  uint64
	replace  Replacement
	tick     uint32
	lines    []uint64 // tag<<32 | stamp; invalidTag<<32 = empty way
	meta     []uint8  // dirty bit + RRPV + provenance, packed

	// Hits and Misses count demand lookups.
	Hits, Misses uint64
	// Writebacks counts dirty evictions.
	Writebacks uint64
}

// newRefCache builds a cache. Size must be a power-of-two multiple of
// Ways × 64B lines.
func newRefCache(cfg Config) *refCache {
	if cfg.Ways <= 0 || cfg.SizeB == 0 {
		panic(fmt.Sprintf("cache %q: invalid geometry", cfg.Name))
	}
	linesTotal := cfg.SizeB / mem.LineSize
	sets := int(linesTotal) / cfg.Ways
	if sets <= 0 || sets&(sets-1) != 0 || uint64(sets*cfg.Ways)*mem.LineSize != cfg.SizeB {
		panic(fmt.Sprintf("cache %q: %dB/%d-way does not form a power-of-two set count", cfg.Name, cfg.SizeB, cfg.Ways))
	}
	setShift := uint(0)
	for 1<<setShift < sets {
		setShift++
	}
	n := sets * cfg.Ways
	c := &refCache{
		name:     cfg.Name,
		sets:     sets,
		ways:     cfg.Ways,
		setMask:  uint64(sets - 1),
		setShift: setShift,
		latency:  cfg.LatencyC,
		replace:  cfg.Replace,
		lines:    make([]uint64, n),
		meta:     make([]uint8, n),
	}
	for i := range c.lines {
		c.lines[i] = uint64(invalidTag) << 32
	}
	return c
}

func (c *refCache) index(p mem.PAddr) (base int, set uint64, tag uint32) {
	lineAddr := uint64(p) >> mem.LineShift
	set = lineAddr & c.setMask
	t := lineAddr >> c.setShift
	if t >= uint64(invalidTag) {
		panic(fmt.Sprintf("cache %q: physical address %#x exceeds the representable tag range", c.name, uint64(p)))
	}
	return int(set) * c.ways, set, uint32(t)
}

// lineAddrOf reconstructs the full line address of the way at index i
// (holding tag) in the given set.
func (c *refCache) lineAddrOf(set uint64, tag uint32) uint64 {
	return uint64(tag)<<c.setShift | set
}

// nextStamp advances the LRU clock. Stamps are 32-bit so they pack
// beside the tag in one word; when the clock nears wraparound the
// live stamps are renumbered to 1..k in place.
func (c *refCache) nextStamp() uint32 {
	if c.tick == ^uint32(0)-1 {
		c.compressStamps()
	}
	c.tick++
	return c.tick
}

// compressStamps renumbers the stamps of valid lines to 1..k,
// preserving their relative order exactly. Victim selection compares
// stamps only with <, so the renumbering cannot change any replacement
// decision. Invalid ways reset to 0; their stamps are never consulted
// because an empty way preempts the LRU scan. Runs once per ~4 billion
// touches, so the sort amortizes to nothing.
func (c *refCache) compressStamps() {
	idx := make([]int, 0, len(c.lines))
	for i, e := range c.lines {
		if uint32(e>>32) != invalidTag {
			idx = append(idx, i)
		} else {
			c.lines[i] = uint64(invalidTag) << 32
		}
	}
	sort.Slice(idx, func(a, b int) bool { return uint32(c.lines[idx[a]]) < uint32(c.lines[idx[b]]) })
	for r, i := range idx {
		c.lines[i] = c.lines[i]&^uint64(^uint32(0)) | uint64(r+1)
	}
	c.tick = uint32(len(idx))
}

// Access looks up the line holding p, updating LRU and hit/miss
// counters. On a hit it returns true plus the line's provenance, and
// demotes the provenance to FillDemand (a prefetched line is counted
// useful only once). Write hits mark the line dirty.
func (c *refCache) Access(p mem.PAddr, write bool) (bool, Provenance) {
	base, _, tag := c.index(p)
	for i := base; i < base+c.ways; i++ {
		e := c.lines[i]
		if uint32(e>>32) == tag {
			c.lines[i] = e&^uint64(^uint32(0)) | uint64(c.nextStamp())
			m := c.meta[i]
			prov := Provenance(m >> metaProvShift & 3)
			// SRRIP: near re-reference on a hit (RRPV 0); provenance
			// demotes to FillDemand; a write marks the line dirty.
			m &= metaDirtyBit
			if write {
				m |= metaDirtyBit
			}
			c.meta[i] = m
			c.Hits++
			return true, prov
		}
	}
	c.Misses++
	return false, FillDemand
}

// Contains peeks for p without disturbing LRU or counters.
func (c *refCache) Contains(p mem.PAddr) bool {
	base, _, tag := c.index(p)
	for i := base; i < base+c.ways; i++ {
		if uint32(c.lines[i]>>32) == tag {
			return true
		}
	}
	return false
}

// Fill installs the line holding p with the given provenance, evicting
// the LRU way if the set is full. It returns the victim, if any. A
// line that is already resident is refreshed in place and keeps its
// existing provenance: prefetching something already cached earns no
// usefulness credit.
func (c *refCache) Fill(p mem.PAddr, prov Provenance, dirty bool) (Victim, bool) {
	base, set, tag := c.index(p)
	// One fused scan finds a resident copy, the first empty way and the
	// LRU way together; inserting never duplicates a tag within a set,
	// so stopping at the first match loses nothing.
	firstFree, lru := -1, base
	for i := base; i < base+c.ways; i++ {
		e := c.lines[i]
		t := uint32(e >> 32)
		if t == tag {
			c.lines[i] = e&^uint64(^uint32(0)) | uint64(c.nextStamp())
			if dirty {
				c.meta[i] |= metaDirtyBit
			}
			return Victim{}, false
		}
		if t == invalidTag {
			if firstFree < 0 {
				firstFree = i
			}
		} else if uint32(e) < uint32(c.lines[lru]) {
			lru = i
		}
	}
	victim := firstFree
	if victim < 0 {
		victim = lru
		if c.replace == ReplaceSRRIP {
			victim = c.srripVictim(base)
		}
	}
	var out Victim
	evicted := false
	if vt := uint32(c.lines[victim] >> 32); vt != invalidTag {
		vd := c.meta[victim]&metaDirtyBit != 0
		out = Victim{Addr: mem.PAddr(c.lineAddrOf(set, vt) << mem.LineShift), Dirty: vd}
		evicted = true
		if vd {
			c.Writebacks++
		}
	}
	s := c.nextStamp()
	rrpv := uint8(2) // SRRIP: long re-reference interval on insertion
	if prov != FillDemand {
		rrpv = 3 // prefetches insert at a distant interval
	}
	m := rrpv<<metaRrpvShift | uint8(prov)<<metaProvShift
	if dirty {
		m |= metaDirtyBit
	}
	c.lines[victim] = uint64(tag)<<32 | uint64(s)
	c.meta[victim] = m
	return out, evicted
}

// srripVictim runs SRRIP victim selection on a full set: evict the
// first way at the distant interval (RRPV 3), aging the whole set
// until one reaches it. Computed in one pass instead of repeated
// aging sweeps — the first way holding the set's maximum RRPV is the
// first to reach 3, and every way ages by the same shortfall.
func (c *refCache) srripVictim(base int) int {
	maxI, maxV := base, c.meta[base]>>metaRrpvShift&3
	if maxV >= 3 {
		return base
	}
	for i := base + 1; i < base+c.ways; i++ {
		r := c.meta[i] >> metaRrpvShift & 3
		if r >= 3 {
			return i
		}
		if r > maxV {
			maxI, maxV = i, r
		}
	}
	// Every RRPV in the set is at most maxV, so adding the shortfall
	// cannot carry out of the packed field.
	age := 3 - maxV
	for i := base; i < base+c.ways; i++ {
		c.meta[i] += age << metaRrpvShift
	}
	return maxI
}
