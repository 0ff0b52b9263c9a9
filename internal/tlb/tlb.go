// Package tlb models the core-side translation structures: a
// two-level, page-size-aware TLB (per-class set-associative arrays,
// Skylake-like geometry by default) and the MMU page-walk caches that
// let the hardware walker skip upper radix levels. TLB misses are what
// start the page walks TEMPO piggybacks on, so the package sits at the
// head of the request lifecycle OBSERVABILITY.md documents; Instrument
// exposes per-page-size-class hit counters through internal/obsv.
package tlb

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/assoc"
	"repro/internal/mem"
	"repro/internal/obsv"
	"repro/internal/vm"
)

// HitLevel reports where a TLB lookup was satisfied.
type HitLevel uint8

const (
	// HitL1 is a first-level TLB hit (free, overlapped with L1 cache).
	HitL1 HitLevel = iota
	// HitL2 is a second-level (STLB) hit.
	HitL2
	// Miss means the page table walker must run.
	Miss
)

// String implements fmt.Stringer.
func (h HitLevel) String() string {
	switch h {
	case HitL1:
		return "L1-TLB"
	case HitL2:
		return "L2-TLB"
	default:
		return "TLB-miss"
	}
}

// Geometry describes one TLB level for one page-size class as
// sets × ways.
type Geometry = assoc.Geometry

// Config sizes the two TLB levels per page-size class. The defaults
// mirror a Skylake-class core.
type Config struct {
	L1 [3]Geometry // indexed by mem.PageSizeClass
	L2 [3]Geometry
}

// DefaultConfig returns Skylake-like TLB geometry: 64-entry 4-way L1
// for 4KB pages, 32-entry 4-way for 2MB, 4-entry for 1GB, and a
// 1536-entry 12-way STLB for 4KB/2MB plus 16 entries for 1GB.
func DefaultConfig() Config {
	return Config{
		L1: [3]Geometry{
			mem.Page4K: {Sets: 16, Ways: 4},
			mem.Page2M: {Sets: 8, Ways: 4},
			mem.Page1G: {Sets: 1, Ways: 4},
		},
		L2: [3]Geometry{
			mem.Page4K: {Sets: 128, Ways: 12},
			mem.Page2M: {Sets: 128, Ways: 12},
			mem.Page1G: {Sets: 1, Ways: 16},
		},
	}
}

// classNames labels the page-size classes in errors and metric names.
var classNames = [3]string{"4k", "2m", "1g"}

// Validate reports the first level and page-size class whose geometry
// an array cannot have (see assoc.Geometry.Validate).
func (cfg Config) Validate() error {
	for c, name := range classNames {
		for l, g := range [2]Geometry{cfg.L1[c], cfg.L2[c]} {
			if err := g.Validate(); err != nil {
				return fmt.Errorf("tlb: L%d %s: %w", l+1, name, err)
			}
		}
	}
	return nil
}

// HostBytes returns the host memory a TLB of this shape takes,
// saturating at math.MaxUint64. cfg must be valid.
func (cfg Config) HostBytes() uint64 {
	return hostBytes(append(cfg.L1[:], cfg.L2[:]...), unsafe.Sizeof(vm.Translation{}))
}

// hostBytes totals the host memory of arrays of the given shapes and
// value size, saturating at math.MaxUint64.
func hostBytes(gs []Geometry, valueBytes uintptr) uint64 {
	var n uint64
	for _, g := range gs {
		var carry uint64
		if n, carry = bits.Add64(n, g.HostBytes(valueBytes), 0); carry != 0 {
			return math.MaxUint64
		}
	}
	return n
}

// TLB is a two-level, page-size-aware translation lookaside buffer.
// Each level keeps one set-associative array per page-size class,
// probed in parallel (as hardware does with size-partitioned TLBs).
//
// The TLB remembers the L1 entry its last Lookup or Insert left most
// recent in its set, and answers a lookup of that entry's page straight
// from the memo. That is exact: touching a set's most recent way
// changes nothing, every change to an L1 array goes through Lookup or
// Insert and moves the memo, and a virtual page keeps one page size for
// the whole run, so no other class's L1 array, probed first, holds it.
type TLB struct {
	l1 [3]*assoc.Assoc[vm.Translation]
	l2 [3]*assoc.Assoc[vm.Translation]

	// memo is the remembered L1 entry, memoKey its key and memoShift
	// its class's page shift; memoKey starts at ^0, which no address
	// shifts to.
	memo      vm.Translation
	memoKey   uint64
	memoShift uint

	// Per-page-size-class hit/miss counters (nil unless Instrument was
	// called; obsv counters discard updates through nil pointers, so
	// the uninstrumented lookup path pays only the pointer test).
	obsL1Hits [3]*obsv.Counter
	obsL2Hits [3]*obsv.Counter
	obsMisses *obsv.Counter
}

// New builds a TLB with the given geometry.
func New(cfg Config) *TLB {
	t := &TLB{memoKey: ^uint64(0), memoShift: mem.PageShift}
	for c := 0; c < 3; c++ {
		t.l1[c] = assoc.New[vm.Translation](cfg.L1[c].Sets, cfg.L1[c].Ways)
		t.l2[c] = assoc.New[vm.Translation](cfg.L2[c].Sets, cfg.L2[c].Ways)
	}
	return t
}

func key(v mem.VAddr, c mem.PageSizeClass) uint64 {
	return uint64(v) >> c.Shift()
}

// remember makes tr, just left most recent in its L1 set under key k,
// the memo.
func (t *TLB) remember(k uint64, tr vm.Translation) {
	t.memo, t.memoKey, t.memoShift = tr, k, tr.Class.Shift()
}

// Lookup probes both levels for a translation of v. An L2 hit is
// promoted into the L1 array of its class.
func (t *TLB) Lookup(v mem.VAddr) (vm.Translation, HitLevel) {
	if uint64(v)>>t.memoShift == t.memoKey {
		t.obsL1Hits[t.memo.Class].Inc()
		return t.memo, HitL1
	}
	for c := mem.Page4K; c <= mem.Page1G; c++ {
		k := key(v, c)
		if tr, ok := t.l1[c].Lookup(k); ok {
			t.remember(k, tr)
			t.obsL1Hits[c].Inc()
			return tr, HitL1
		}
	}
	for c := mem.Page4K; c <= mem.Page1G; c++ {
		k := key(v, c)
		if tr, ok := t.l2[c].Lookup(k); ok {
			t.l1[c].Insert(k, tr)
			t.remember(k, tr)
			t.obsL2Hits[c].Inc()
			return tr, HitL2
		}
	}
	t.obsMisses.Inc()
	return vm.Translation{}, Miss
}

// Instrument registers per-page-size-class hit counters and a miss
// counter under prefix in reg ("<prefix>/l1_hits/2m", ...). The
// per-class split is visibility the aggregate stats counters lack:
// it shows which page sizes carry a workload's TLB locality, the
// quantity Figure 13's page-size sweep varies.
func (t *TLB) Instrument(reg *obsv.Registry, prefix string) {
	for c := 0; c < 3; c++ {
		t.obsL1Hits[c] = reg.Counter(fmt.Sprintf("%s/l1_hits/%s", prefix, classNames[c]))
		t.obsL2Hits[c] = reg.Counter(fmt.Sprintf("%s/l2_hits/%s", prefix, classNames[c]))
	}
	t.obsMisses = reg.Counter(prefix + "/misses")
}

// Insert fills both levels with a translation returned by a walk.
func (t *TLB) Insert(tr vm.Translation) {
	c := tr.Class
	k := key(tr.VBase, c)
	t.l1[c].Insert(k, tr)
	t.l2[c].Insert(k, tr)
	t.remember(k, tr)
}

// Reach4K returns how many bytes the 4KB L2 array can map — useful for
// sizing workloads so they exceed TLB reach, as the paper's do.
func (t *TLB) Reach4K() uint64 {
	return uint64(t.l2[mem.Page4K].Entries()) * mem.PageSize
}
