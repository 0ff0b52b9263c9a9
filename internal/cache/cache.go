// Package cache models the on-chip cache hierarchy: generic
// set-associative write-back caches with LRU (or SRRIP) replacement,
// composed into a per-core L1/L2 plus (possibly shared) LLC hierarchy.
// The LLC is where TEMPO's prefetched replay data lands, so lines carry
// a prefetch provenance tag that lets the simulator classify replay
// service points (Figure 11) and prefetch usefulness.
package cache

import (
	"encoding/binary"
	"fmt"
	"math"
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

// Cache is one set-associative write-back cache level. Each set is one
// block (see block), so zeroed memory is a cache of empty sets and New
// writes nothing. A probe compares eight fingerprints in one word and
// reads the tag of each way whose fingerprint matches. Ways fill in
// index order and never empty again, so a set's LRU way is its first
// empty way while it has one.
type Cache struct {
	name     string
	sets     int
	ways     int
	setMask  uint64
	setShift uint
	latency  uint64
	replace  Replacement
	wide     bool        // more than eight ways: two fingerprint words
	start    assoc.Stack // a fresh set's recency order
	blocks   []block
}

// block is one set of up to assoc.MaxWays ways in two 64-byte host
// cache lines: the set's recency stack XOR its starting order, so a
// zero block is a fresh set, then per way a fingerprint byte, a meta
// byte and a tag. A fingerprint is a hash of the tag with its top bit
// set, or zero for an empty way.
type block struct {
	order uint64
	fps   [assoc.MaxWays]uint8
	meta  [assoc.MaxWays]uint8
	tags  [assoc.MaxWays]uint32
	_     [24]byte
}

// blockBytes is a block's host size, a whole number of host cache
// lines.
const blockBytes = 128

// wayMask keeps way indices inside a block's arrays, so indexing them
// needs no bounds check.
const wayMask = assoc.MaxWays - 1

// meta byte layout: bit 0 dirty, bits 1-2 RRPV, bits 3-4 provenance.
// One byte per line keeps the fill/hit bookkeeping to a single write
// instead of three.
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

// HostBytes returns the host memory a cache of this shape takes: one
// 128-byte block per set, which holds the set's recency stack and a
// fingerprint byte, a meta byte and a 4-byte tag for each of up to 16
// ways. cfg must be valid.
func (cfg Config) HostBytes() uint64 {
	return cfg.SizeB / mem.LineSize / uint64(cfg.Ways) * blockBytes
}

// New builds a cache. Panics with Config.Validate's error on invalid
// geometry.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := int(cfg.SizeB/mem.LineSize) / cfg.Ways
	return &Cache{
		name:     cfg.Name,
		sets:     sets,
		ways:     cfg.Ways,
		setMask:  uint64(sets - 1),
		setShift: uint(bits.TrailingZeros(uint(sets))),
		latency:  cfg.LatencyC,
		replace:  cfg.Replace,
		wide:     cfg.Ways > 8,
		start:    assoc.NewStacks(1, cfg.Ways)[0],
		blocks:   make([]block, sets),
	}
}

// Name returns the configured name.
func (c *Cache) Name() string { return c.name }

// Latency returns the load-to-use hit latency in cycles.
func (c *Cache) Latency() uint64 { return c.latency }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// tagRangeError is the panic value of an address whose tag does not fit
// in 32 bits; its message is built only when printed, so index inlines.
type tagRangeError struct {
	name string
	p    mem.PAddr
}

func (e tagRangeError) Error() string {
	return fmt.Sprintf("cache %q: physical address %#x exceeds the representable tag range", e.name, uint64(e.p))
}

// index returns the block of the set holding p, the set and p's tag:
// its line address with the set-index bits stripped.
func (c *Cache) index(p mem.PAddr) (b *block, set uint64, tag uint32) {
	lineAddr := uint64(p) >> mem.LineShift
	set = lineAddr & c.setMask
	t := lineAddr >> c.setShift
	if t > math.MaxUint32 {
		panic(tagRangeError{c.name, p})
	}
	return &c.blocks[set], set, uint32(t)
}

// fingerprint hashes a tag to the byte its way's fingerprint holds:
// seven bits of the hash under a set top bit, so no tag's fingerprint
// is an empty way's zero.
func fingerprint(tag uint32) uint64 { return 0x80 | uint64(tag*0x9E3779B1>>25) }

// Word-parallel byte masks: the low bit and the low seven bits of every
// byte.
const (
	lowBits  = 0x0101010101010101
	low7Bits = 0x7F7F7F7F7F7F7F7F
)

// find returns the way of b holding tag, or -1.
func (c *Cache) find(b *block, tag uint32) int {
	want := fingerprint(tag) * lowBits
	if w := b.match(0, want, tag); w >= 0 || !c.wide {
		return w
	}
	return b.match(8, want, tag)
}

// match returns the way among ways first..first+7 of b that holds tag,
// whose fingerprint repeated in every byte is want, or -1. The eight
// fingerprints are compared at once: a byte of x is zero exactly where
// a way's fingerprint matches, and only those ways' tags are read.
func (b *block) match(first int, want uint64, tag uint32) int {
	x := binary.LittleEndian.Uint64(b.fps[first&8:]) ^ want
	// The top bit of each byte of m is set where x's byte is zero.
	for m := ^((x&low7Bits + low7Bits) | x | low7Bits); m != 0; m &= m - 1 {
		if w := first + bits.TrailingZeros64(m)>>3; b.tags[w&wayMask] == tag {
			return w
		}
	}
	return -1
}

// order returns b's recency stack, and setOrder stores one.
func (c *Cache) order(b *block) assoc.Stack { return assoc.Stack(b.order) ^ c.start }

func (c *Cache) setOrder(b *block, s assoc.Stack) { b.order = uint64(s ^ c.start) }

// Access looks up the line holding p, updating LRU. On a hit it
// returns true plus the line's provenance, and demotes the provenance
// to FillDemand (a prefetched line is counted useful only once). Write
// hits mark the line dirty.
func (c *Cache) Access(p mem.PAddr, write bool) (bool, Provenance) {
	b, _, tag := c.index(p)
	w := c.find(b, tag)
	if w < 0 {
		return false, FillDemand
	}
	c.setOrder(b, c.order(b).Touch(w))
	w &= wayMask
	m := b.meta[w]
	prov := Provenance(m >> metaProvShift & 3)
	// SRRIP: near re-reference on a hit (RRPV 0); provenance demotes to
	// FillDemand; a write marks the line dirty.
	m &= metaDirtyBit
	if write {
		m |= metaDirtyBit
	}
	b.meta[w] = m
	return true, prov
}

// Contains peeks for p without disturbing LRU.
func (c *Cache) Contains(p mem.PAddr) bool {
	b, _, tag := c.index(p)
	return c.find(b, tag) >= 0
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

// fill is Fill; absent says the caller knows p is not resident (it
// missed this cache and nothing has touched the cache since), so the
// set is not searched for it.
func (c *Cache) fill(p mem.PAddr, prov Provenance, dirty, absent bool) (out Victim, evicted bool) {
	b, set, tag := c.index(p)
	order := c.order(b)
	if !absent {
		if w := c.find(b, tag); w >= 0 {
			c.setOrder(b, order.Touch(w))
			if dirty {
				b.meta[w&wayMask] |= metaDirtyBit
			}
			return Victim{}, false
		}
	}
	// The LRU way is the first empty way while the set has one, so a
	// valid LRU way means the set is full.
	w := order.LRU(c.ways) & wayMask
	if b.fps[w] != 0 {
		if c.replace == ReplaceSRRIP {
			w = c.srripVictim(b) & wayMask
		}
		line := uint64(b.tags[w])<<c.setShift | set
		out = Victim{Addr: mem.PAddr(line << mem.LineShift), Dirty: b.meta[w]&metaDirtyBit != 0}
		evicted = true
	}
	rrpv := uint8(2) // SRRIP: long re-reference interval on insertion
	if prov != FillDemand {
		rrpv = 3 // prefetches insert at a distant interval
	}
	m := rrpv<<metaRrpvShift | uint8(prov)<<metaProvShift
	if dirty {
		m |= metaDirtyBit
	}
	b.fps[w] = uint8(fingerprint(tag))
	b.meta[w] = m
	b.tags[w] = tag
	c.setOrder(b, order.Touch(w))
	return out, evicted
}

// srripVictim runs SRRIP victim selection on a full set: evict the
// first way at the distant interval (RRPV 3), aging the whole set
// until one reaches it. Computed in one pass instead of repeated
// aging sweeps — the first way holding the set's maximum RRPV is the
// first to reach 3, and every way ages by the same shortfall.
func (c *Cache) srripVictim(b *block) int {
	meta := b.meta[:c.ways]
	maxW, maxV := 0, meta[0]>>metaRrpvShift&3
	if maxV >= 3 {
		return 0
	}
	for w := 1; w < len(meta); w++ {
		r := meta[w] >> metaRrpvShift & 3
		if r >= 3 {
			return w
		}
		if r > maxV {
			maxW, maxV = w, r
		}
	}
	// Every RRPV in the set is at most maxV, so adding the shortfall
	// cannot carry out of the packed field.
	age := 3 - maxV
	for w := range meta {
		meta[w] += age << metaRrpvShift
	}
	return maxW
}
