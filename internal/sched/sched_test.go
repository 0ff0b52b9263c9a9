package sched

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/stats"
)

// noCutoff lets every queued request qualify for a Pick.
const noCutoff = ^uint64(0)

// fakeRows marks a fixed set of addresses as row hits.
type fakeRows map[mem.PAddr]bool

func (f fakeRows) WouldRowHit(a mem.PAddr) bool { return f[a] }

func (f fakeRows) WouldRowHitReq(r *dram.Request) bool { return f[r.Addr] }

func TestFRFCFSPrefersRowHits(t *testing.T) {
	s := NewFRFCFS()
	q := []*dram.Request{
		{Addr: 0x100, Enqueue: 0},
		{Addr: 0x200, Enqueue: 10}, // newer but row hit
	}
	rows := fakeRows{0x200: true}
	if got := s.Pick(q, 20, noCutoff, rows); got != 1 {
		t.Errorf("Pick = %d, want row hit", got)
	}
}

func TestFRFCFSAgeBreaksTies(t *testing.T) {
	s := NewFRFCFS()
	q := []*dram.Request{
		{Addr: 0x100, Enqueue: 50},
		{Addr: 0x200, Enqueue: 10},
	}
	if got := s.Pick(q, 60, noCutoff, fakeRows{}); got != 1 {
		t.Errorf("Pick = %d, want oldest", got)
	}
}

func TestFRFCFSStarvationGuard(t *testing.T) {
	s := NewFRFCFS()
	q := []*dram.Request{
		{Addr: 0x100, Enqueue: 0},     // ancient, no row hit
		{Addr: 0x200, Enqueue: 9_000}, // fresh row hit
	}
	rows := fakeRows{0x200: true}
	if got := s.Pick(q, 10_000, noCutoff, rows); got != 0 {
		t.Errorf("Pick = %d, starving request must win", got)
	}
}

func TestTempoFRFCFSPriorities(t *testing.T) {
	s := NewTempoFRFCFS()
	rows := fakeRows{0x10: true, 0x20: true, 0x60: true}
	q := []*dram.Request{
		{Addr: 0x30, Enqueue: 0},                 // plain demand, cold, oldest
		{Addr: 0x20, Enqueue: 5, Prefetch: true}, // prefetch row-hit
		{Addr: 0x40, Enqueue: 6, IsLeafPT: true}, // PT, cold
		{Addr: 0x10, Enqueue: 7, IsLeafPT: true}, // PT row-hit
		{Addr: 0x60, Enqueue: 8},                 // demand row-hit
	}
	order := []int{}
	remaining := append([]*dram.Request{}, q...)
	for len(remaining) > 0 {
		i := s.Pick(remaining, 50, noCutoff, rows)
		order = append(order, int(remaining[i].Addr))
		remaining = append(remaining[:i], remaining[i+1:]...)
	}
	// PT row hits group first, then row-hit prefetches, then other row
	// hits; cold requests finish in pure age order (no starvation).
	want := []int{0x10, 0x20, 0x60, 0x30, 0x40}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order = %#x, want %#x", order, want)
		}
	}
}

func TestBLISSBlacklisting(t *testing.T) {
	b := NewBLISS()
	// Core 0 streams 4 consecutive requests (weight 2 → streak 8).
	for i := 0; i < 4; i++ {
		b.OnServed(&dram.Request{CoreID: 0, Enqueue: uint64(i)}, uint64(100+i))
	}
	if !b.Blacklisted(0) {
		t.Fatal("core 0 should be blacklisted after 4 consecutive requests")
	}
	// Blacklisted core loses to a non-blacklisted one.
	q := []*dram.Request{
		{Addr: 0x100, CoreID: 0, Enqueue: 0},
		{Addr: 0x200, CoreID: 1, Enqueue: 50},
	}
	if got := b.Pick(q, 200, noCutoff, fakeRows{}); got != 1 {
		t.Errorf("Pick = %d, want non-blacklisted core", got)
	}
}

func TestBLISSStreakResetsOnSwitch(t *testing.T) {
	b := NewBLISS()
	b.OnServed(&dram.Request{CoreID: 0}, 100)
	b.OnServed(&dram.Request{CoreID: 0}, 101)
	b.OnServed(&dram.Request{CoreID: 1}, 102) // switch resets streak
	b.OnServed(&dram.Request{CoreID: 0}, 103)
	b.OnServed(&dram.Request{CoreID: 0}, 104)
	if b.Blacklisted(0) {
		t.Error("interleaved core 0 should not be blacklisted")
	}
}

func TestBLISSClearInterval(t *testing.T) {
	b := NewBLISS()
	for i := 0; i < 4; i++ {
		b.OnServed(&dram.Request{CoreID: 0}, uint64(100+i))
	}
	if !b.Blacklisted(0) {
		t.Fatal("precondition: blacklisted")
	}
	// Crossing the clear interval forgives everyone.
	b.Pick([]*dram.Request{{Addr: 1}}, 100+b.ClearInterval+1, noCutoff, fakeRows{})
	if b.Blacklisted(0) {
		t.Error("blacklist should clear periodically")
	}
}

func TestBLISSPrefetchWeight(t *testing.T) {
	b := NewTempoBLISS() // prefetch weight 1, threshold 8
	// 4 prefetches = streak 4 < 8: not blacklisted.
	for i := 0; i < 4; i++ {
		b.OnServed(&dram.Request{CoreID: 0, Prefetch: true}, uint64(100+i))
	}
	if b.Blacklisted(0) {
		t.Error("half-weight prefetches must not blacklist at 4")
	}
	// 4 more reach 8: now blacklisted.
	for i := 0; i < 4; i++ {
		b.OnServed(&dram.Request{CoreID: 0, Prefetch: true}, uint64(104+i))
	}
	if !b.Blacklisted(0) {
		t.Error("8 half-weight prefetches should blacklist")
	}
}

func TestBLISSPrefetchBonding(t *testing.T) {
	b := NewTempoBLISS()
	pt := &dram.Request{CoreID: 2, IsLeafPT: true, Enqueue: 0}
	b.OnServed(pt, 100)
	pf := &dram.Request{CoreID: 2, Prefetch: true, PairedWith: pt, Enqueue: 100}
	q := []*dram.Request{
		{Addr: 0x900, CoreID: 1, Enqueue: 1}, // older demand from another core
		pf,
	}
	if got := b.Pick(q, 105, noCutoff, fakeRows{}); got != 1 {
		t.Errorf("Pick = %d, want the bonded prefetch", got)
	}
}

func TestBLISSGracePeriod(t *testing.T) {
	b := NewTempoBLISS()
	pf := &dram.Request{CoreID: 3, Prefetch: true}
	b.OnServed(pf, 1000)
	// Within the grace period, core 3's requests win even against an
	// older request from another core.
	q := []*dram.Request{
		{Addr: 0x100, CoreID: 1, Enqueue: 0},
		{Addr: 0x200, CoreID: 3, Enqueue: 900},
	}
	if got := b.Pick(q, 1010, noCutoff, fakeRows{}); got != 1 {
		t.Errorf("within grace: Pick = %d, want core 3", got)
	}
	// After the grace period, age wins again.
	if got := b.Pick(q, 1000+b.GracePeriod+1, noCutoff, fakeRows{}); got != 0 {
		t.Errorf("after grace: Pick = %d, want oldest", got)
	}
}

func TestBLISSBaselineIgnoresTempoState(t *testing.T) {
	b := NewBLISS()
	pt := &dram.Request{CoreID: 2, IsLeafPT: true}
	b.OnServed(pt, 100)
	pf := &dram.Request{CoreID: 2, Prefetch: true, PairedWith: pt, Enqueue: 100}
	q := []*dram.Request{
		{Addr: 0x900, CoreID: 1, Enqueue: 1},
		pf,
	}
	if got := b.Pick(q, 105, noCutoff, fakeRows{}); got != 0 {
		t.Errorf("baseline BLISS must not bond prefetches, picked %d", got)
	}
}

// Integration: a TEMPO-aware FR-FCFS behind a real controller groups a
// row-hitting PT access ahead of an older cold demand.
func TestTempoFRFCFSWithController(t *testing.T) {
	var st stats.Stats
	c := dram.NewController(dram.DefaultConfig(), NewTempoFRFCFS(), &st)
	// Open a PT row first.
	warm := &dram.Request{Addr: 0x5000, IsLeafPT: true, Enqueue: 0}
	c.Submit(warm)
	c.RunUntil(warm)
	// Now an older cold demand competes with a row-hitting PT access.
	demand := &dram.Request{Addr: 0x9000000, Enqueue: warm.Complete}
	pt := &dram.Request{Addr: 0x5040, IsLeafPT: true, Enqueue: warm.Complete + 5}
	c.Submit(demand)
	c.Submit(pt)
	c.RunUntil(pt)
	if demand.Done {
		t.Error("row-hitting PT access should have been served before the older cold demand")
	}
	c.Drain()
	if !demand.Done {
		t.Error("drain must finish the demand")
	}
}
