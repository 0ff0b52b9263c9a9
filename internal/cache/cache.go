// Package cache models the on-chip cache hierarchy: generic
// set-associative write-back caches with LRU (or SRRIP) replacement,
// composed into a per-core L1/L2 plus (possibly shared) LLC hierarchy.
// The LLC is where TEMPO's prefetched replay data lands, so lines carry
// a prefetch provenance tag that lets the simulator classify replay
// service points (Figure 11) and prefetch usefulness.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/assoc"
	"repro/internal/mem"
)

// Provenance records how a line entered the cache.
type Provenance uint8

const (
	// FillDemand is an ordinary demand fill.
	FillDemand Provenance = iota
	// FillTempo is a TEMPO post-translation prefetch.
	FillTempo
	// FillIMP is an IMP indirect prefetch.
	FillIMP
	// FillSpec is a speculative-translation prefetch issued by a rival
	// mechanism (internal/translation, e.g. revelator).
	FillSpec
)

// Replacement selects the victim-choice policy.
type Replacement uint8

const (
	// ReplaceLRU is true least-recently-used replacement.
	ReplaceLRU Replacement = iota
	// ReplaceSRRIP is static re-reference interval prediction with
	// 2-bit RRPVs (Jaleel et al.): scan-resistant, and it inserts
	// prefetched lines at a distant interval so speculative fills
	// cannot sweep the reused working set.
	ReplaceSRRIP
)

// String implements fmt.Stringer.
func (r Replacement) String() string {
	switch r {
	case ReplaceLRU:
		return "LRU"
	case ReplaceSRRIP:
		return "SRRIP"
	default:
		return "Replacement(?)"
	}
}

// invalidTag marks an empty way. Tags are the line address with the
// set-index bits stripped, so the all-ones pattern would need a
// physical address of at least 2^38 bytes (per 64-set cache) — far
// beyond any modelled memory; index panics should an address reach it.
const invalidTag = ^uint32(0)

// Cache is one set-associative write-back cache level, stored as a
// structure of arrays: one tag and one meta byte per way, and one
// recency stack (assoc.Stack) per set. Ways fill in index order and
// never empty again, so a set's LRU way is its first empty way while
// it has one.
type Cache struct {
	name     string
	sets     int
	ways     int
	setMask  uint64
	setShift uint
	latency  uint64
	replace  Replacement
	tags     []uint32      // invalidTag = empty way
	meta     []uint8       // dirty bit + RRPV + provenance, packed
	order    []assoc.Stack // per-set recency order

	// Hits and Misses count demand lookups.
	Hits, Misses uint64
	// Writebacks counts dirty evictions.
	Writebacks uint64
}

// meta byte layout: bit 0 dirty, bits 1-2 RRPV, bits 3-4 provenance.
// One byte per line keeps the fill/hit bookkeeping to a single array
// write instead of three.
const (
	metaDirtyBit  = 1 << 0
	metaRrpvShift = 1
	metaProvShift = 3
)

// Config describes one cache level.
type Config struct {
	Name     string
	SizeB    uint64 // total capacity in bytes
	Ways     int
	LatencyC uint64 // total load-to-use latency in cycles
	// Replace selects the replacement policy (default LRU).
	Replace Replacement
}

// Validate reports why a cache of this shape cannot be built: SizeB
// must split into Ways × 64B-line sets, and the sets and ways must make
// a valid assoc.Geometry. A size that does not split counts as 0 sets.
func (cfg Config) Validate() error {
	g := assoc.Geometry{Ways: cfg.Ways}
	if setBytes := uint64(cfg.Ways) * mem.LineSize; cfg.Ways > 0 && cfg.SizeB%setBytes == 0 {
		g.Sets = int(cfg.SizeB / setBytes)
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("cache %q: %dB/%d-way: %w", cfg.Name, cfg.SizeB, cfg.Ways, err)
	}
	return nil
}

// HostBytes returns the host memory a cache of this shape takes: a
// 4-byte tag and a metadata byte per line, and a recency stack per
// set. cfg must be valid.
func (cfg Config) HostBytes() uint64 {
	lines := cfg.SizeB / mem.LineSize
	return lines*5 + lines/uint64(cfg.Ways)*8
}

// New builds a cache. Panics with Config.Validate's error on invalid
// geometry.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := int(cfg.SizeB/mem.LineSize) / cfg.Ways
	n := sets * cfg.Ways
	c := &Cache{
		name:     cfg.Name,
		sets:     sets,
		ways:     cfg.Ways,
		setMask:  uint64(sets - 1),
		setShift: uint(bits.TrailingZeros(uint(sets))),
		latency:  cfg.LatencyC,
		replace:  cfg.Replace,
		tags:     make([]uint32, n),
		meta:     make([]uint8, n),
		order:    assoc.NewStacks(sets, cfg.Ways),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// Name returns the configured name.
func (c *Cache) Name() string { return c.name }

// Latency returns the load-to-use hit latency in cycles.
func (c *Cache) Latency() uint64 { return c.latency }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

func (c *Cache) index(p mem.PAddr) (base int, set uint64, tag uint32) {
	lineAddr := uint64(p) >> mem.LineShift
	set = lineAddr & c.setMask
	t := lineAddr >> c.setShift
	if t >= uint64(invalidTag) {
		panic(fmt.Sprintf("cache %q: physical address %#x exceeds the representable tag range", c.name, uint64(p)))
	}
	return int(set) * c.ways, set, uint32(t)
}

// find returns the way of the set starting at base that holds tag, or
// -1. Empty ways hold invalidTag, which no real tag equals.
func (c *Cache) find(base int, tag uint32) int {
	for w, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return w
		}
	}
	return -1
}

// Access looks up the line holding p, updating LRU and hit/miss
// counters. On a hit it returns true plus the line's provenance, and
// demotes the provenance to FillDemand (a prefetched line is counted
// useful only once). Write hits mark the line dirty.
func (c *Cache) Access(p mem.PAddr, write bool) (bool, Provenance) {
	base, set, tag := c.index(p)
	w := c.find(base, tag)
	if w < 0 {
		c.Misses++
		return false, FillDemand
	}
	c.order[set] = c.order[set].Touch(w)
	m := c.meta[base+w]
	prov := Provenance(m >> metaProvShift & 3)
	// SRRIP: near re-reference on a hit (RRPV 0); provenance demotes to
	// FillDemand; a write marks the line dirty.
	m &= metaDirtyBit
	if write {
		m |= metaDirtyBit
	}
	c.meta[base+w] = m
	c.Hits++
	return true, prov
}

// Contains peeks for p without disturbing LRU or counters.
func (c *Cache) Contains(p mem.PAddr) bool {
	base, _, tag := c.index(p)
	return c.find(base, tag) >= 0
}

// Victim describes an eviction caused by a fill.
type Victim struct {
	Addr  mem.PAddr
	Dirty bool
}

// Fill installs the line holding p with the given provenance, evicting
// the LRU way if the set is full. It returns the victim, if any. A
// line that is already resident is refreshed in place and keeps its
// existing provenance: prefetching something already cached earns no
// usefulness credit.
func (c *Cache) Fill(p mem.PAddr, prov Provenance, dirty bool) (Victim, bool) {
	return c.fill(p, prov, dirty, false)
}

// fill is Fill; absent says the caller knows p is not resident (its
// Access just missed and nothing has touched the cache since), so the
// set is not searched for it.
func (c *Cache) fill(p mem.PAddr, prov Provenance, dirty, absent bool) (out Victim, evicted bool) {
	base, set, tag := c.index(p)
	if !absent {
		if w := c.find(base, tag); w >= 0 {
			c.order[set] = c.order[set].Touch(w)
			if dirty {
				c.meta[base+w] |= metaDirtyBit
			}
			return Victim{}, false
		}
	}
	// The LRU way is the first empty way while the set has one, so a
	// valid LRU way means the set is full.
	w := c.order[set].LRU(c.ways)
	if c.tags[base+w] != invalidTag {
		if c.replace == ReplaceSRRIP {
			w = c.srripVictim(base) - base
		}
		line := uint64(c.tags[base+w])<<c.setShift | set
		out = Victim{Addr: mem.PAddr(line << mem.LineShift), Dirty: c.meta[base+w]&metaDirtyBit != 0}
		evicted = true
		if out.Dirty {
			c.Writebacks++
		}
	}
	rrpv := uint8(2) // SRRIP: long re-reference interval on insertion
	if prov != FillDemand {
		rrpv = 3 // prefetches insert at a distant interval
	}
	m := rrpv<<metaRrpvShift | uint8(prov)<<metaProvShift
	if dirty {
		m |= metaDirtyBit
	}
	c.tags[base+w] = tag
	c.meta[base+w] = m
	c.order[set] = c.order[set].Touch(w)
	return out, evicted
}

// srripVictim runs SRRIP victim selection on a full set: evict the
// first way at the distant interval (RRPV 3), aging the whole set
// until one reaches it. Computed in one pass instead of repeated
// aging sweeps — the first way holding the set's maximum RRPV is the
// first to reach 3, and every way ages by the same shortfall.
func (c *Cache) srripVictim(base int) int {
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
