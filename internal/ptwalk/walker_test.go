package ptwalk

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/vm"
)

// recordingPort logs every PTE read and serves configured addresses
// "from DRAM".
type recordingPort struct {
	reads []portRead
	dram  map[mem.PAddr]bool
	lat   uint64
}

type portRead struct {
	addr       mem.PAddr
	level      int
	isLeaf     bool
	replayLine uint64
	at         uint64
}

func (p *recordingPort) ReadPTE(paddr mem.PAddr, level int, isLeaf bool, replayLine uint64, at uint64) (uint64, bool) {
	p.reads = append(p.reads, portRead{paddr, level, isLeaf, replayLine, at})
	if p.lat == 0 {
		p.lat = 10
	}
	return p.lat, p.dram[paddr]
}

func setup(t *testing.T) (*vm.AddressSpace, *Walker, *stats.Stats) {
	t.Helper()
	cfg := vm.DefaultOSConfig(1 << 18)
	cfg.Mode = vm.Mode4KOnly
	as, err := vm.NewAddressSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := &stats.Stats{}
	w := New(as.Table(), tlb.NewMMUCache(tlb.DefaultMMUCacheConfig()), st)
	return as, w, st
}

func TestWalkColdIssuesFourReads(t *testing.T) {
	as, w, st := setup(t)
	v := mem.VAddr(0x7F12_3456_7ABC)
	if _, _, err := as.Touch(v); err != nil {
		t.Fatal(err)
	}
	port := &recordingPort{}
	res := w.Walk(v, 1000, port)
	if !res.OK {
		t.Fatal("walk failed")
	}
	if len(port.reads) != 4 {
		t.Fatalf("reads = %d, want 4", len(port.reads))
	}
	for i, want := range []int{4, 3, 2, 1} {
		if port.reads[i].level != want {
			t.Errorf("read %d level = %d, want %d", i, port.reads[i].level, want)
		}
		if (port.reads[i].level == 1) != port.reads[i].isLeaf {
			t.Errorf("read %d leaf flag wrong", i)
		}
	}
	// Reads are serialised: timestamps strictly increase.
	for i := 1; i < 4; i++ {
		if port.reads[i].at <= port.reads[i-1].at {
			t.Error("walk reads must be serialised")
		}
	}
	if res.LeafPTE != port.reads[3].addr {
		t.Errorf("LeafPTE = %#x, want the leaf read's %#x", uint64(res.LeafPTE), uint64(port.reads[3].addr))
	}
	// The appended replay line matches the virtual address.
	if got := port.reads[3].replayLine & 0x3F; got != v.LineInPage() {
		t.Errorf("replay line low bits = %#x, want %#x", got, v.LineInPage())
	}
	// Latency covers 4 reads plus overheads.
	if res.Latency != 4*(10+w.StepOverhead) {
		t.Errorf("latency = %d", res.Latency)
	}
	tr, _ := as.Table().Lookup(v)
	if res.Translation != tr {
		t.Error("walker translation disagrees with software lookup")
	}
	if st.WalksStarted != 1 || st.MMUCacheMisses != 1 {
		t.Error("stats wrong")
	}
}

func TestWalkUsesMMUCacheToSkipLevels(t *testing.T) {
	as, w, st := setup(t)
	v := mem.VAddr(0x7F12_3456_7000)
	if _, _, err := as.Touch(v); err != nil {
		t.Fatal(err)
	}
	port := &recordingPort{}
	w.Walk(v, 0, port) // cold: 4 reads, fills MMU caches
	port.reads = nil
	// Neighbouring page in the same 2MB region: the L2-PT entry is
	// cached, so only the leaf is read.
	v2 := v + mem.PageSize
	if _, _, err := as.Touch(v2); err != nil {
		t.Fatal(err)
	}
	res := w.Walk(v2, 100, port)
	if !res.OK {
		t.Fatal("second walk failed")
	}
	if len(port.reads) != 1 || port.reads[0].level != 1 || !port.reads[0].isLeaf {
		t.Fatalf("reads = %+v, want single leaf read", port.reads)
	}
	if res.LeafPTE != port.reads[0].addr {
		t.Errorf("LeafPTE = %#x, want the leaf read's %#x", uint64(res.LeafPTE), uint64(port.reads[0].addr))
	}
	if st.MMUCacheHits != 1 {
		t.Errorf("MMU cache hits = %d", st.MMUCacheHits)
	}
}

func TestWalkLeafFromDRAMSetsTrigger(t *testing.T) {
	as, w, st := setup(t)
	v := mem.VAddr(0x1234_5000)
	if _, _, err := as.Touch(v); err != nil {
		t.Fatal(err)
	}
	steps, n, _ := as.Table().Walk(v)
	leafAddr := steps[n-1].PTEAddr
	port := &recordingPort{dram: map[mem.PAddr]bool{leafAddr: true}}
	res := w.Walk(v, 0, port)
	// One of the four 10-cycle reads came from DRAM.
	if !res.LeafFromDRAM || res.DRAMLatency != 10 || res.CacheLatency != 30 {
		t.Errorf("result = %+v", res)
	}
	if st.WalkDRAMTouched != 1 {
		t.Error("WalkDRAMTouched not counted")
	}
	// Upper-level DRAM access alone must not set the leaf trigger.
	w2Port := &recordingPort{dram: map[mem.PAddr]bool{steps[0].PTEAddr: true}}
	w2mmu := tlb.NewMMUCache(tlb.DefaultMMUCacheConfig())
	w2 := New(as.Table(), w2mmu, &stats.Stats{})
	res = w2.Walk(v, 0, w2Port)
	if res.LeafFromDRAM {
		t.Error("upper-level DRAM read must not trigger TEMPO")
	}
	if res.DRAMLatency != 10 {
		t.Errorf("DRAMLatency = %d, want one 10-cycle DRAM read", res.DRAMLatency)
	}
}

func TestWalkSuperpageLeafIsTagged(t *testing.T) {
	cfg := vm.DefaultOSConfig(1 << 18)
	cfg.Mode = vm.ModeTHP
	cfg.THPEligibility = 1.0
	as, err := vm.NewAddressSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := &stats.Stats{}
	w := New(as.Table(), tlb.NewMMUCache(tlb.DefaultMMUCacheConfig()), st)
	v := mem.VAddr(0x4000_0000)
	tr, _, err := as.Touch(v)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Class != mem.Page2M {
		t.Fatalf("expected a 2MB page, got %v", tr.Class)
	}
	port := &recordingPort{}
	res := w.Walk(v+0x12_3456, 0, port)
	if !res.OK || len(port.reads) != 3 {
		t.Fatalf("2MB walk reads = %d, want 3", len(port.reads))
	}
	last := port.reads[2]
	if last.level != 2 || !last.isLeaf || res.LeafPTE != last.addr {
		t.Errorf("2MB leaf read = %+v, LeafPTE %#x", last, uint64(res.LeafPTE))
	}
}

func TestWalkUnmappedReturnsNotOK(t *testing.T) {
	_, w, _ := setup(t)
	port := &recordingPort{}
	res := w.Walk(0xDEAD_BEEF_000, 0, port)
	if res.OK {
		t.Error("walk of unmapped address must fail")
	}
	// It still read the root entry before discovering the fault.
	if len(port.reads) != 1 {
		t.Errorf("reads = %d, want 1", len(port.reads))
	}
}

func TestReplayLineOf(t *testing.T) {
	v := mem.VAddr(0x4000_0000 + 3*64)
	if got := ReplayLineOf(v); got != 3 {
		t.Errorf("ReplayLineOf = %d", got)
	}
	// Stays within ReplayLineBits.
	if got := ReplayLineOf(0xFFFF_FFFF_FFFF); got >= 1<<ReplayLineBits {
		t.Errorf("replay line overflow: %#x", got)
	}
}
