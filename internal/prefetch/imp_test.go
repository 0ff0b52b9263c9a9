package prefetch

import (
	"testing"

	"repro/internal/mem"
)

// index trains p on an index load at pc that read value.
func index(p *IMP, pc, value uint64) {
	p.Train(Observation{PC: pc, VAddr: 0x1000, Value: value, HasValue: true})
}

// miss trains p on an access at pc to addr that missed the L1.
func miss(p *IMP, pc, addr uint64) {
	p.Train(Observation{PC: pc, VAddr: mem.VAddr(addr), Missed: true})
}

// feedPattern drives IMP with an A[B[i]] stream: index loads at pc
// with the given values, each followed by a missing indirect access at
// base + coef*value.
func feedPattern(p *IMP, pc uint64, base, coef uint64, values []uint64) {
	for _, v := range values {
		index(p, pc, v)
		miss(p, pc+4, base+coef*v)
	}
}

func TestIMPLearnsIndirectPattern(t *testing.T) {
	p := New()
	const pc, base, coef = 0x400, 0x7000_0000, 8
	feedPattern(p, pc, base, coef, []uint64{10, 20, 30})
	if !p.Confirmed(pc) {
		t.Fatal("pattern should be confirmed after 3 pairs")
	}
	// The next index value produces an exact prefetch.
	out := p.AppendPrefetches(nil, pc, 999)
	want := mem.VAddr(base + coef*999).Line()
	if len(out) != 1 || out[0] != want {
		t.Errorf("prefetch = %v, want %#x", out, uint64(want))
	}
}

func TestIMPRejectsNoise(t *testing.T) {
	p := New()
	const pc = 0x400
	// Random, unrelated miss addresses never confirm a pattern.
	addrs := []uint64{0x1234000, 0x9ABC000, 0x5555000, 0x2222000}
	for i, a := range addrs {
		index(p, pc, uint64(i*7))
		miss(p, pc+4, a)
	}
	if p.Confirmed(pc) {
		t.Error("noise must not confirm a pattern")
	}
}

func TestIMPMultipleWays(t *testing.T) {
	p := New()
	const pc = 0x400
	// Two indirect arrays off the same index stream: A (coef 8) and C
	// (coef 4). Alternate the misses so both get learned.
	values := []uint64{5, 6, 7, 8, 9, 10, 11, 12}
	for _, v := range values {
		index(p, pc, v)
		miss(p, pc+4, 0x10000000+8*v)
		index(p, pc, v)
		miss(p, pc+8, 0x40000000+4*v)
	}
	out := p.AppendPrefetches(nil, pc, 100)
	if len(out) != 2 {
		t.Fatalf("ways emitted = %d, want 2 (got %v)", len(out), out)
	}
	seen := map[mem.VAddr]bool{}
	for _, a := range out {
		seen[a] = true
	}
	if !seen[mem.VAddr(0x10000000+8*100).Line()] || !seen[mem.VAddr(0x40000000+4*100).Line()] {
		t.Errorf("wrong way targets: %v", out)
	}
}

// A 17th confirmed index PC evicts the least recently used of the 16
// table entries: a prefetch lookup makes the oldest entry recent again,
// so the second oldest goes.
func TestIMPTableEviction(t *testing.T) {
	p := New()
	pc := func(i int) uint64 { return uint64(0x400 + i*0x100) }
	confirm := func(i int) { feedPattern(p, pc(i), uint64(i+1)<<28, 8, []uint64{1, 2, 3}) }
	for i := 0; i < TableEntries; i++ {
		confirm(i)
	}
	p.AppendPrefetches(nil, pc(0), 7)
	confirm(TableEntries)
	for i := 0; i <= TableEntries; i++ {
		if got, want := p.Confirmed(pc(i)), i != 1; got != want {
			t.Errorf("PC %d confirmed = %v, want %v", i, got, want)
		}
	}
}

func TestIMPNonIndexMissesAreHarmless(t *testing.T) {
	p := New()
	// Misses with no preceding index value must not panic or learn.
	for i := 0; i < 10; i++ {
		miss(p, 0x800, uint64(i*4096))
	}
	if out := p.AppendPrefetches(nil, 0x800, 1); len(out) != 0 {
		t.Errorf("no prefetches expected, got %v", out)
	}
}

func TestIMPHitsDoNotTrain(t *testing.T) {
	p := New()
	const pc, base = 0x400, 0x7000_0000
	for _, v := range []uint64{1, 2, 3, 4} {
		index(p, pc, v)
		// Indirect access hits the cache: Missed false.
		p.Train(Observation{PC: pc + 4, VAddr: mem.VAddr(base + 8*v)})
	}
	if p.Confirmed(pc) {
		t.Error("cache hits should not train the IPD")
	}
}
