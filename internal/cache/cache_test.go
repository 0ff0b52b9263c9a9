package cache

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/stats"
)

func small() *Cache {
	// 4 sets × 2 ways × 64B = 512B.
	return New(Config{Name: "t", SizeB: 512, Ways: 2, LatencyC: 4})
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	bad := []Config{
		{Name: "a", SizeB: 0, Ways: 2},
		{Name: "b", SizeB: 512, Ways: 0},
		{Name: "c", SizeB: 512 + 64, Ways: 2}, // non power-of-two sets
		{Name: "d", SizeB: 64, Ways: 2},       // fewer lines than ways
		{Name: "e", SizeB: 17 * 64, Ways: 17}, // wider than a recency stack
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) should panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestAccessHitMissCounters(t *testing.T) {
	c := small()
	if hit, _ := c.Access(0x1000, false); hit {
		t.Fatal("cold cache should miss")
	}
	c.Fill(0x1000, FillDemand, false)
	if hit, _ := c.Access(0x1000, false); !hit {
		t.Fatal("filled line should hit")
	}
	// Same line, different offset.
	if hit, _ := c.Access(0x103F, false); !hit {
		t.Fatal("same line should hit at any offset")
	}
	if hit, _ := c.Access(0x1040, false); hit {
		t.Fatal("next line should miss")
	}
}

func TestLRUEvictionWithinSet(t *testing.T) {
	c := small() // 4 sets, 2 ways; set stride is 4 lines = 256B
	a := mem.PAddr(0x0000)
	b := mem.PAddr(0x0100) // same set (line addr differs by 4 lines)
	d := mem.PAddr(0x0200) // same set again
	c.Fill(a, FillDemand, false)
	c.Fill(b, FillDemand, false)
	c.Access(a, false) // promote a
	v, evicted := c.Fill(d, FillDemand, false)
	if !evicted || v.Addr != b {
		t.Errorf("victim = %+v (evicted=%v), want %#x", v, evicted, uint64(b))
	}
	if !c.Contains(a) || !c.Contains(d) || c.Contains(b) {
		t.Error("wrong residency after eviction")
	}
}

func TestDirtyWritebackOnEviction(t *testing.T) {
	c := small()
	a, b, d := mem.PAddr(0x0000), mem.PAddr(0x0100), mem.PAddr(0x0200)
	c.Fill(a, FillDemand, false)
	c.Access(a, true) // dirty it
	c.Fill(b, FillDemand, false)
	c.Access(b, false)
	v, evicted := c.Fill(d, FillDemand, false) // evicts a (LRU, dirty)
	if !evicted || !v.Dirty || v.Addr != a {
		t.Errorf("victim = %+v, want dirty %#x", v, uint64(a))
	}
}

func TestFillInPlaceKeepsResidency(t *testing.T) {
	c := small()
	c.Fill(0x1000, FillTempo, false)
	if _, evicted := c.Fill(0x1000, FillDemand, true); evicted {
		t.Error("refilling a resident line must not evict")
	}
	// The refill with dirty=true must stick.
	full := 0
	c.Fill(0x1100, FillDemand, false)
	v, evicted := c.Fill(0x1200, FillDemand, false)
	if evicted && v.Dirty {
		full++
	}
	if full != 1 {
		t.Error("dirty refresh lost")
	}
}

func TestProvenanceConsumedOnce(t *testing.T) {
	c := small()
	c.Fill(0x2000, FillTempo, false)
	hit, prov := c.Access(0x2000, false)
	if !hit || prov != FillTempo {
		t.Fatalf("first access: hit=%v prov=%v", hit, prov)
	}
	hit, prov = c.Access(0x2000, false)
	if !hit || prov != FillDemand {
		t.Errorf("second access should see demand provenance, got %v", prov)
	}
}

func TestHierarchyPromotionPath(t *testing.T) {
	var st stats.Stats
	h := NewHierarchy(DefaultHierarchyConfig(), &st)
	p := mem.PAddr(0xABC000)
	r := h.Access(p, false)
	if r.Served != ServedDRAM {
		t.Fatalf("cold access served by %v", r.Served)
	}
	h.FillFromDRAM(p, false)
	if r := h.Access(p, false); r.Served != ServedL1 {
		t.Errorf("after fill, served by %v", r.Served)
	}
	// Evict from L1 by filling its set; line stays in L2.
	for i := 0; i < 16; i++ {
		conflict := p + mem.PAddr((i+1)*32<<10) // same L1 set (32KB stride covers 8-way)
		h.L1.Fill(conflict, FillDemand, false)
	}
	if r := h.Access(p, false); r.Served != ServedL2 {
		t.Errorf("after L1 eviction, served by %v", r.Served)
	}
	// And the L2 hit refills L1.
	if r := h.Access(p, false); r.Served != ServedL1 {
		t.Errorf("L2 hit should promote to L1, got %v", r.Served)
	}
	if st.L1Hits == 0 || st.L1Misses == 0 || st.L2Hits == 0 {
		t.Error("stats not recorded")
	}
}

func TestHierarchyLLCHitReportsProvenance(t *testing.T) {
	var st stats.Stats
	h := NewHierarchy(DefaultHierarchyConfig(), &st)
	p := mem.PAddr(0x555000)
	h.LLC.Fill(p, FillTempo, false)
	r := h.Access(p, false)
	if r.Served != ServedLLC || r.Provenance != FillTempo {
		t.Errorf("served=%v prov=%v", r.Served, r.Provenance)
	}
}

func TestHierarchySharedLLC(t *testing.T) {
	var s1, s2 stats.Stats
	cfg := DefaultHierarchyConfig()
	llc := New(cfg.LLC)
	h1 := NewHierarchyShared(cfg, llc, &s1)
	h2 := NewHierarchyShared(cfg, llc, &s2)
	p := mem.PAddr(0x777000)
	h1.FillFromDRAM(p, false)
	// Core 2 misses privately but hits the shared LLC.
	if r := h2.Access(p, false); r.Served != ServedLLC {
		t.Errorf("core 2 served by %v, want LLC", r.Served)
	}
	if !h1.PeekLLC(p) || !h2.PeekLLC(p) {
		t.Error("both views should see the shared line")
	}
}

func TestServedString(t *testing.T) {
	if ServedL1.String() != "L1" || ServedL2.String() != "L2" ||
		ServedLLC.String() != "LLC" || ServedDRAM.String() != "DRAM" {
		t.Error("Served strings wrong")
	}
}

// Property: a cache never reports more residents than its capacity and
// Contains agrees with Access hits.
func TestCacheCapacityProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := small()
		for _, a := range addrs {
			p := mem.PAddr(a) &^ (mem.LineSize - 1)
			if c.Contains(p) {
				if hit, _ := c.Access(p, false); !hit {
					return false
				}
			} else {
				c.Fill(p, FillDemand, false)
				if !c.Contains(p) {
					return false
				}
			}
		}
		resident := 0
		seen := map[mem.PAddr]bool{}
		for _, a := range addrs {
			p := mem.PAddr(a) &^ (mem.LineSize - 1)
			if !seen[p] && c.Contains(p) {
				resident++
				seen[p] = true
			}
		}
		return resident <= 8 // 4 sets × 2 ways
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWritebackCascade(t *testing.T) {
	var st stats.Stats
	// Tiny hierarchy so evictions are easy to force.
	cfg := HierarchyConfig{
		L1:  Config{Name: "L1", SizeB: 128, Ways: 2, LatencyC: 1},
		L2:  Config{Name: "L2", SizeB: 256, Ways: 2, LatencyC: 2},
		LLC: Config{Name: "LLC", SizeB: 512, Ways: 2, LatencyC: 3},
	}
	h := NewHierarchy(cfg, &st)
	// Dirty a line everywhere, then flood every level with conflicting
	// fills; the dirty line must eventually surface as a DRAM-bound
	// writeback address, not vanish.
	dirtyAddr := mem.PAddr(0x10000)
	h.FillFromDRAM(dirtyAddr, true)
	var wbs []mem.PAddr
	for i := 1; i < 64; i++ {
		p := mem.PAddr(0x10000 + i*0x10000) // same sets at every level
		wbs = append(wbs, h.FillFromDRAM(p, false)...)
	}
	found := false
	for _, a := range wbs {
		if a == dirtyAddr {
			found = true
		}
	}
	if !found {
		t.Errorf("dirty line never written back; writebacks = %v", wbs)
	}
}

func TestCleanEvictionsProduceNoWritebacks(t *testing.T) {
	var st stats.Stats
	h := NewHierarchy(DefaultHierarchyConfig(), &st)
	var wbs []mem.PAddr
	for i := 0; i < 100_000; i += 64 {
		wbs = append(wbs, h.FillFromDRAM(mem.PAddr(i*64), false)...)
	}
	if len(wbs) != 0 {
		t.Errorf("clean traffic produced %d writebacks", len(wbs))
	}
}

// HostBytes counts each set as blockBytes, so that must be a block's
// size.
func TestBlockBytes(t *testing.T) {
	if got := unsafe.Sizeof(block{}); got != blockBytes {
		t.Errorf("a block takes %d bytes, blockBytes says %d", got, blockBytes)
	}
}

// A tag is the line address above the set bits and must fit in 32
// bits: the largest such tag is an ordinary line, and an address one
// line above it panics.
func TestTagRange(t *testing.T) {
	c := New(Config{Name: "one-set", SizeB: 2 * mem.LineSize, Ways: 2, LatencyC: 1})
	top := mem.PAddr(math.MaxUint32) << mem.LineShift
	c.Fill(top, FillDemand, false)
	if hit, _ := c.Access(top, false); !hit {
		t.Error("the largest tag should be cached like any other")
	}
	defer func() {
		want := `cache "one-set": physical address 0x4000000000 exceeds the representable tag range`
		if got := fmt.Sprint(recover()); got != want {
			t.Errorf("panic %q, want %q", got, want)
		}
	}()
	c.Access(top+mem.LineSize, false)
}
