package vm

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func newTestTable(t *testing.T) (*PageTable, *Buddy) {
	t.Helper()
	b := NewBuddy(1 << 20)
	pt, err := NewPageTable(b.AllocFrame)
	if err != nil {
		t.Fatal(err)
	}
	return pt, b
}

func TestPageTableMapLookup4K(t *testing.T) {
	pt, b := newTestTable(t)
	f, _ := b.AllocFrame()
	v := mem.VAddr(0x7F12_3456_7000)
	if err := pt.Map(v, mem.Page4K, f); err != nil {
		t.Fatal(err)
	}
	tr, ok := pt.Lookup(v + 0xABC)
	if !ok {
		t.Fatal("lookup failed")
	}
	if tr.Frame != f || tr.Class != mem.Page4K || tr.VBase != v {
		t.Errorf("translation = %+v", tr)
	}
	if got := tr.Translate(v + 0xABC); got != f.Addr()+0xABC {
		t.Errorf("Translate = %#x", got)
	}
	if !tr.Contains(v + 0xFFF) {
		t.Error("Contains should include the whole page")
	}
	if tr.Contains(v + 0x1000) {
		t.Error("Contains should exclude the next page")
	}
	// Unmapped neighbours fail.
	if _, ok := pt.Lookup(v + mem.PageSize); ok {
		t.Error("adjacent page should be unmapped")
	}
}

func TestPageTableMapSuperpages(t *testing.T) {
	pt, b := newTestTable(t)
	f2, err := b.Alloc(9)
	if err != nil {
		t.Fatal(err)
	}
	v2 := mem.VAddr(0x10_0000_0000)
	if err := pt.Map(v2, mem.Page2M, f2); err != nil {
		t.Fatal(err)
	}
	tr, ok := pt.Lookup(v2 + 0x12_3456)
	if !ok || tr.Class != mem.Page2M || tr.Frame != f2 {
		t.Fatalf("2MB lookup = %+v ok=%v", tr, ok)
	}
	if got := tr.Translate(v2 + 0x12_3456); got != f2.Addr()+0x12_3456 {
		t.Errorf("2MB Translate = %#x", got)
	}

	f1, err := b.Alloc(18)
	if err != nil {
		t.Fatal(err)
	}
	v1 := mem.VAddr(0x80_0000_0000)
	if err := pt.Map(v1, mem.Page1G, f1); err != nil {
		t.Fatal(err)
	}
	tr, ok = pt.Lookup(v1 + 0x3FFF_FFFF)
	if !ok || tr.Class != mem.Page1G {
		t.Fatalf("1GB lookup = %+v ok=%v", tr, ok)
	}
}

func TestPageTableMapErrors(t *testing.T) {
	pt, b := newTestTable(t)
	f, _ := b.AllocFrame()
	v := mem.VAddr(0x1000)
	if err := pt.Map(v, mem.Page4K, f); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(v, mem.Page4K, f); err == nil {
		t.Error("remapping should fail")
	}
	if err := pt.Map(mem.VAddr(1<<48), mem.Page4K, f); err == nil {
		t.Error("non-canonical address should fail")
	}
	if err := pt.Map(0x40_0000, mem.Page2M, mem.Frame(3)); err == nil {
		t.Error("misaligned superpage frame should fail")
	}
	// Mapping a 4KB page under an existing 2MB superpage must fail.
	f2, _ := b.Alloc(9)
	if err := pt.Map(0x8000_0000, mem.Page2M, f2); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x8000_1000, mem.Page4K, f); err == nil {
		t.Error("mapping under a superpage should fail")
	}
}

// A packed entry holds any frame with a 64-bit physical address; Map
// and table-page allocation reject the frames beyond.
func TestPageTableFrameLimit(t *testing.T) {
	pt, _ := newTestTable(t)
	v := mem.VAddr(0x7F12_3456_7000)
	if err := pt.Map(v, mem.Page4K, maxPTEFrame); err != nil {
		t.Fatal(err)
	}
	if tr, ok := pt.Lookup(v); !ok || tr.Frame != maxPTEFrame {
		t.Fatalf("Lookup = %+v %v, want frame %#x", tr, ok, uint64(maxPTEFrame))
	}
	steps, n, _ := pt.Walk(v)
	if pte, _, ok := pt.ReadPTE(steps[n-1].PTEAddr); !ok || pte != (PTE{Present: true, Leaf: true, Frame: maxPTEFrame}) {
		t.Fatalf("ReadPTE = %+v %v", pte, ok)
	}
	if err := pt.Map(v+mem.PageSize, mem.Page4K, maxPTEFrame+1); err == nil {
		t.Error("a frame past the 64-bit physical address space should fail")
	}
	if _, err := NewPageTable(func() (mem.Frame, error) { return maxPTEFrame + 1, nil }); err == nil {
		t.Error("a table page past the 64-bit physical address space should fail")
	}
}

func TestPageTableWalkSteps(t *testing.T) {
	pt, b := newTestTable(t)
	f, _ := b.AllocFrame()
	v := mem.VAddr(0x7F12_3456_7000)
	if err := pt.Map(v, mem.Page4K, f); err != nil {
		t.Fatal(err)
	}
	steps, n, ok := pt.Walk(v)
	if !ok || n != 4 {
		t.Fatalf("walk: n=%d ok=%v", n, ok)
	}
	for i, want := range []int{4, 3, 2, 1} {
		if steps[i].Level != want {
			t.Errorf("step %d level = %d, want %d", i, steps[i].Level, want)
		}
		if i < 3 && steps[i].IsLeaf {
			t.Errorf("step %d should not be leaf", i)
		}
	}
	if !steps[3].IsLeaf {
		t.Error("L1 step must be leaf for 4KB page")
	}
	// First step reads the root frame at the L4 index.
	wantAddr := pt.RootFrame().PTEAddr(v.Index(4))
	if steps[0].PTEAddr != wantAddr {
		t.Errorf("L4 PTE addr = %#x, want %#x", steps[0].PTEAddr, wantAddr)
	}
}

func TestPageTableWalkSuperpageStopsAtLeafLevel(t *testing.T) {
	pt, b := newTestTable(t)
	f2, _ := b.Alloc(9)
	v := mem.VAddr(0x10_0000_0000)
	if err := pt.Map(v, mem.Page2M, f2); err != nil {
		t.Fatal(err)
	}
	steps, n, ok := pt.Walk(v + 0x1234)
	if !ok || n != 3 {
		t.Fatalf("2MB walk: n=%d ok=%v", n, ok)
	}
	if steps[2].Level != 2 || !steps[2].IsLeaf {
		t.Errorf("2MB leaf step = %+v", steps[2])
	}
}

func TestPageTableWalkUnmapped(t *testing.T) {
	pt, _ := newTestTable(t)
	steps, n, ok := pt.Walk(0x1234_5000)
	if ok {
		t.Fatal("walk of unmapped address should fail")
	}
	if n != 1 || steps[0].Level != 4 {
		t.Errorf("unmapped walk should stop after the root probe: n=%d", n)
	}
}

func TestReadPTE(t *testing.T) {
	pt, b := newTestTable(t)
	f, _ := b.AllocFrame()
	v := mem.VAddr(0x7F12_3456_7000)
	if err := pt.Map(v, mem.Page4K, f); err != nil {
		t.Fatal(err)
	}
	steps, n, _ := pt.Walk(v)
	leaf := steps[n-1]
	pte, lvl, ok := pt.ReadPTE(leaf.PTEAddr)
	if !ok || lvl != 1 {
		t.Fatalf("ReadPTE: lvl=%d ok=%v", lvl, ok)
	}
	if !pte.Present || !pte.Leaf || pte.Frame != f {
		t.Errorf("PTE = %+v", pte)
	}
	// A non-table address yields no PTE.
	if _, _, ok := pt.ReadPTE(f.Addr()); ok {
		t.Error("data frame should not read as a PTE")
	}
	if !pt.IsTableFrame(leaf.PTEAddr.Frame()) {
		t.Error("leaf PTE frame should be a table frame")
	}
	if pt.IsTableFrame(f) {
		t.Error("data frame is not a table frame")
	}
}

func TestTablePagesGrowth(t *testing.T) {
	pt, b := newTestTable(t)
	if pt.TablePages() != 1 {
		t.Fatalf("fresh table should have 1 page, got %d", pt.TablePages())
	}
	f, _ := b.AllocFrame()
	if err := pt.Map(0x1000, mem.Page4K, f); err != nil {
		t.Fatal(err)
	}
	if pt.TablePages() != 4 {
		t.Errorf("one 4KB mapping needs 4 table pages, got %d", pt.TablePages())
	}
	// A second mapping in the same region reuses the interior nodes.
	f2, _ := b.AllocFrame()
	if err := pt.Map(0x2000, mem.Page4K, f2); err != nil {
		t.Fatal(err)
	}
	if pt.TablePages() != 4 {
		t.Errorf("sibling mapping should reuse tables, got %d", pt.TablePages())
	}
	if pt.L1TablePages() != 1 {
		t.Errorf("two 4KB mappings in one 2MB region need 1 level-1 page, got %d", pt.L1TablePages())
	}
}

// Property: for random sets of mapped pages, Lookup returns exactly the
// installed frame and Walk's leaf PTE agrees with Lookup.
func TestPageTableLookupWalkAgreement(t *testing.T) {
	pt, b := newTestTable(t)
	installed := make(map[mem.VAddr]mem.Frame)
	f := func(raw uint64) bool {
		v := mem.VAddr(raw & (1<<48 - 1)).PageBase(mem.Page4K)
		if _, dup := installed[v]; dup {
			return true
		}
		fr, err := b.AllocFrame()
		if err != nil {
			return true
		}
		if err := pt.Map(v, mem.Page4K, fr); err != nil {
			return false
		}
		installed[v] = fr
		tr, ok := pt.Lookup(v)
		if !ok || tr.Frame != fr {
			return false
		}
		steps, n, ok := pt.Walk(v + 0x123)
		if !ok || n != 4 {
			return false
		}
		pte, lvl, ok := pt.ReadPTE(steps[n-1].PTEAddr)
		return ok && lvl == 1 && pte.Frame == fr && pte.Leaf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
