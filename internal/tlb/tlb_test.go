package tlb

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/vm"
)

func tr4k(vpn uint64) vm.Translation {
	return vm.Translation{
		VBase: mem.VAddr(vpn << mem.PageShift),
		Frame: mem.Frame(vpn + 1000),
		Class: mem.Page4K,
	}
}

func TestTLBHitPromotion(t *testing.T) {
	tl := New(DefaultConfig())
	tr := tr4k(0x1234)
	if _, lvl := tl.Lookup(tr.VBase); lvl != Miss {
		t.Fatal("cold TLB should miss")
	}
	tl.Insert(tr)
	if _, lvl := tl.Lookup(tr.VBase); lvl != HitL1 {
		t.Fatal("fresh insert should hit L1")
	}
	// Evict from L1 (64 4KB entries) but not L2 (1536) by filling.
	for i := uint64(0); i < 512; i++ {
		tl.Insert(tr4k(0x9000 + i))
	}
	got, lvl := tl.Lookup(tr.VBase)
	if lvl != HitL2 {
		t.Fatalf("expected L2 hit after L1 eviction, got %v", lvl)
	}
	if got.Frame != tr.Frame {
		t.Error("wrong translation returned")
	}
	// The L2 hit promotes back into L1.
	if _, lvl := tl.Lookup(tr.VBase); lvl != HitL1 {
		t.Error("L2 hit should refill L1")
	}
}

func TestTLBCapacityMiss(t *testing.T) {
	tl := New(DefaultConfig())
	// Fill far beyond STLB capacity; the earliest entries must miss.
	n := uint64(tl.Reach4K()/mem.PageSize) * 4
	for i := uint64(0); i < n; i++ {
		tl.Insert(tr4k(i))
	}
	if _, lvl := tl.Lookup(mem.VAddr(0)); lvl != Miss {
		t.Error("entry 0 should have been evicted everywhere")
	}
}

func TestTLBPageSizeClasses(t *testing.T) {
	tl := New(DefaultConfig())
	tr2m := vm.Translation{VBase: 0x4000_0000, Frame: 512, Class: mem.Page2M}
	tr1g := vm.Translation{VBase: 0x8000_0000, Frame: 1 << 18, Class: mem.Page1G}
	tl.Insert(tr2m)
	tl.Insert(tr1g)
	// Any address within the superpage hits.
	if got, lvl := tl.Lookup(0x4000_0000 + 0x1F_FFFF); lvl != HitL1 || got != tr2m {
		t.Errorf("2MB lookup = %+v, %v", got, lvl)
	}
	if got, lvl := tl.Lookup(0x8000_0000 + 0x3FFF_FFFF); lvl != HitL1 || got != tr1g {
		t.Errorf("1GB lookup = %+v, %v", got, lvl)
	}
	// Outside misses.
	if _, lvl := tl.Lookup(0x4020_0000); lvl != Miss {
		t.Error("address past the 2MB page should miss")
	}
}

func TestMMUCacheLongestPrefixWins(t *testing.T) {
	m := NewMMUCache(DefaultMMUCacheConfig())
	v := mem.VAddr(0x7F12_3456_7000)
	if _, _, ok := m.Lookup(v); ok {
		t.Fatal("cold MMU cache should miss")
	}
	m.Insert(v, 4, 100) // L4 entry → frame of L3 table
	lvl, f, ok := m.Lookup(v)
	if !ok || lvl != 4 || f != 100 {
		t.Fatalf("lookup = %d, %d, %v", lvl, f, ok)
	}
	m.Insert(v, 3, 200)
	m.Insert(v, 2, 300) // deepest: L2 entry → frame of L1 table
	lvl, f, ok = m.Lookup(v)
	if !ok || lvl != 2 || f != 300 {
		t.Fatalf("deepest entry should win: %d, %d, %v", lvl, f, ok)
	}
}

func TestMMUCachePrefixGranularity(t *testing.T) {
	m := NewMMUCache(DefaultMMUCacheConfig())
	v := mem.VAddr(0x7F12_3456_7000)
	m.Insert(v, 2, 300)
	// Another address in the same 2MB region (same L2 index path) hits...
	same := v.PageBase(mem.Page2M) + 0x12_3000
	if lvl, _, ok := m.Lookup(same); !ok || lvl != 2 {
		t.Error("same-region lookup should hit the L2-PT entry")
	}
	// ...but the next 2MB region needs a different L1 table pointer.
	next := v.PageBase(mem.Page2M) + 0x20_0000
	if lvl, _, ok := m.Lookup(next); ok && lvl == 2 {
		t.Error("next 2MB region must not hit the same L2-PT entry")
	}
}

func TestMMUCacheInsertPanicsOnBadLevel(t *testing.T) {
	m := NewMMUCache(DefaultMMUCacheConfig())
	for _, lvl := range []int{1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Insert level %d should panic", lvl)
				}
			}()
			m.Insert(0, lvl, 0)
		}()
	}
}

// Property: inserting a translation always makes its whole page
// hit at L1, and never makes unrelated pages hit.
func TestTLBInsertLookupProperty(t *testing.T) {
	f := func(raw uint64, off uint32) bool {
		tl := New(DefaultConfig())
		vpn := raw & (1<<36 - 1)
		tr := tr4k(vpn)
		tl.Insert(tr)
		inside := tr.VBase + mem.VAddr(off&0xFFF)
		_, lvl := tl.Lookup(inside)
		if lvl != HitL1 {
			return false
		}
		outside := tr.VBase + mem.PageSize
		_, lvl = tl.Lookup(outside)
		return lvl == Miss
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHitLevelString(t *testing.T) {
	if HitL1.String() != "L1-TLB" || HitL2.String() != "L2-TLB" || Miss.String() != "TLB-miss" {
		t.Error("HitLevel strings wrong")
	}
}
