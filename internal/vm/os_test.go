package vm

import (
	"testing"

	"repro/internal/mem"
)

// footprint frames for a small test machine: 256MB of physical memory.
const testPhysFrames = 256 << 8 // 65536 frames

func TestPageModeString(t *testing.T) {
	names := map[PageMode]string{
		Mode4KOnly:      "4KB-only",
		ModeTHP:         "THP-2MB",
		ModeHugetlbfs2M: "hugetlbfs-2MB",
		ModeHugetlbfs1G: "hugetlbfs-1GB",
	}
	for m, want := range names {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", m, got, want)
		}
	}
	if PageMode(9).String() == "" {
		t.Error("unknown mode should stringify")
	}
}

func TestTouchFaultsOnceAndTranslatesConsistently(t *testing.T) {
	cfg := DefaultOSConfig(testPhysFrames)
	cfg.Mode = Mode4KOnly
	as, err := NewAddressSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := mem.VAddr(0x1234_5000)
	tr1, faulted, err := as.Touch(v)
	if err != nil || !faulted {
		t.Fatalf("first touch: faulted=%v err=%v", faulted, err)
	}
	tr2, faulted, err := as.Touch(v + 0x10)
	if err != nil || faulted {
		t.Fatalf("second touch should not fault: faulted=%v err=%v", faulted, err)
	}
	if tr1 != tr2 {
		t.Errorf("translations differ: %+v vs %+v", tr1, tr2)
	}
	if got := as.FootprintBytes()[mem.Page4K]; got != mem.PageSize {
		t.Errorf("4KB footprint = %d", got)
	}
}

func Test4KOnlyNeverCreatesSuperpages(t *testing.T) {
	cfg := DefaultOSConfig(testPhysFrames)
	cfg.Mode = Mode4KOnly
	as, _ := NewAddressSpace(cfg)
	for i := 0; i < 2000; i++ {
		v := mem.VAddr(uint64(i) * 0x20_0000) // one touch per 2MB region
		if _, _, err := as.Touch(v); err != nil {
			t.Fatal(err)
		}
	}
	if f := as.SuperpageFraction(); f != 0 {
		t.Errorf("4K-only superpage fraction = %v", f)
	}
}

func TestTHPCreatesSuperpagesAtEligibilityRate(t *testing.T) {
	cfg := DefaultOSConfig(testPhysFrames)
	cfg.THPEligibility = 0.60
	as, _ := NewAddressSpace(cfg)
	// Touch every 4KB page of 50 regions: ineligible regions then
	// accumulate a full 2MB of 4KB-backed footprint, so the byte
	// fraction tracks the region eligibility rate.
	for i := 0; i < 50; i++ {
		for p := 0; p < 512; p++ {
			v := mem.VAddr(uint64(i)*0x20_0000 + uint64(p)*mem.PageSize)
			if _, _, err := as.Touch(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	f := as.SuperpageFraction()
	if f < 0.4 || f > 0.9 {
		t.Errorf("THP superpage fraction = %v, want near eligibility 0.6", f)
	}
}

func TestTHPFragmentationReducesSuperpages(t *testing.T) {
	frac := func(memhog float64) float64 {
		cfg := DefaultOSConfig(testPhysFrames)
		cfg.THPEligibility = 1.0
		cfg.MemhogFraction = memhog
		as, err := NewAddressSpace(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Touch 64MB worth of 2MB regions (half the remaining room).
		for i := 0; i < 32; i++ {
			v := mem.VAddr(uint64(i) * 0x20_0000)
			if _, _, err := as.Touch(v); err != nil {
				t.Fatal(err)
			}
		}
		return as.SuperpageFraction()
	}
	f0, f50, f90 := frac(0), frac(0.5), frac(0.9)
	if f0 < 0.95 {
		t.Errorf("unfragmented fully-eligible THP fraction = %v, want ~1", f0)
	}
	if !(f0 >= f50 && f50 >= f90) {
		t.Errorf("fragmentation should monotonically erode THP: %v %v %v", f0, f50, f90)
	}
	if f90 > 0.7 {
		t.Errorf("heavy fragmentation fraction = %v, want well below 1", f90)
	}
}

func TestHugetlbfs2MReservationSurvivesFragmentation(t *testing.T) {
	cfg := DefaultOSConfig(testPhysFrames)
	cfg.Mode = ModeHugetlbfs2M
	cfg.MemhogFraction = 0.75
	cfg.ReserveFraction = 0.5
	as, err := NewAddressSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		v := mem.VAddr(uint64(i) * 0x20_0000)
		if _, _, err := as.Touch(v); err != nil {
			t.Fatal(err)
		}
	}
	if f := as.SuperpageFraction(); f < 0.95 {
		t.Errorf("hugetlbfs 2MB fraction = %v despite reservation", f)
	}
}

func TestHugetlbfs1G(t *testing.T) {
	// 1GB pages need a big physical memory: 2GB.
	cfg := DefaultOSConfig(2 << 18)
	cfg.Mode = ModeHugetlbfs1G
	cfg.ReserveFraction = 0.6
	as, err := NewAddressSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, faulted, err := as.Touch(0x4000_0000)
	if err != nil || !faulted {
		t.Fatal(err)
	}
	if tr.Class != mem.Page1G {
		t.Errorf("class = %v, want 1GB", tr.Class)
	}
	// Pool of 1 exhausted (2GB * 0.6 -> one 1GB page); next region
	// falls back to 4KB.
	tr2, _, err := as.Touch(0x8000_0000)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Class != mem.Page4K {
		t.Errorf("fallback class = %v, want 4KB", tr2.Class)
	}
}

func TestSharedBuddyContention(t *testing.T) {
	buddy := NewBuddy(testPhysFrames)
	cfg := DefaultOSConfig(testPhysFrames)
	cfg.THPEligibility = 1.0
	as1, err := NewAddressSpaceShared(cfg, buddy)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Seed = 2
	as2, err := NewAddressSpaceShared(cfg2, buddy)
	if err != nil {
		t.Fatal(err)
	}
	// Both spaces allocate; combined footprint must not exceed
	// physical memory and the allocator must never hand out the same
	// frame twice (checked implicitly by buddy invariants).
	for i := 0; i < 40; i++ {
		if _, _, err := as1.Touch(mem.VAddr(uint64(i) * 0x20_0000)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := as2.Touch(mem.VAddr(uint64(i) * 0x20_0000)); err != nil {
			t.Fatal(err)
		}
	}
	t1, _ := as1.Table().Lookup(0)
	t2, _ := as2.Table().Lookup(0)
	if t1.Frame == t2.Frame {
		t.Error("two address spaces share a physical frame")
	}
}

func TestDeterministicAddressSpace(t *testing.T) {
	run := func() []Translation {
		cfg := DefaultOSConfig(testPhysFrames)
		cfg.MemhogFraction = 0.25
		as, err := NewAddressSpace(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []Translation
		for i := 0; i < 100; i++ {
			tr, _, err := as.Touch(mem.VAddr(uint64(i) * 0x3F_1000))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, tr)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("translation %d differs between identical runs", i)
		}
	}
}

func TestOutOfMemory(t *testing.T) {
	cfg := DefaultOSConfig(16) // 64KB of physical memory
	cfg.Mode = Mode4KOnly
	as, err := NewAddressSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 64 && lastErr == nil; i++ {
		_, _, lastErr = as.Touch(mem.VAddr(uint64(i) * mem.PageSize))
	}
	if lastErr == nil {
		t.Error("expected out-of-memory after exhausting 16 frames")
	}
	if _, err := NewAddressSpace(DefaultOSConfig(MaxPhysFrames + 1)); err == nil {
		t.Error("physical memory past MaxPhysFrames should be refused")
	}
}
