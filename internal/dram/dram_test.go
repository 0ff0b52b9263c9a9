package dram

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/stats"
)

func TestDecodeMappingProperties(t *testing.T) {
	g := DefaultGeometry()
	// Two addresses in the same 8KB-aligned block share a row; in
	// particular two adjacent 4KB pages share one (paper Figure 8).
	a := mem.PAddr(0x10000)
	b := a + 4096
	la, lb := g.Decode(a), g.Decode(b)
	if la.Channel != lb.Channel || la.Bank != lb.Bank || la.Row != lb.Row {
		t.Errorf("adjacent pages should share a row: %+v vs %+v", la, lb)
	}
	if la.Col != 0 || lb.Col != 4096 {
		t.Errorf("cols = %d, %d", la.Col, lb.Col)
	}
	// Consecutive rows interleave across channels.
	c := a + mem.PAddr(g.RowBytes)
	lc := g.Decode(c)
	if lc.Channel == la.Channel && lc.Bank == la.Bank && lc.Row == la.Row {
		t.Error("next 8KB block must move to another channel/bank/row")
	}
}

// Property: Decode is injective per cache line and fields stay in range.
func TestDecodeInjective(t *testing.T) {
	g := DefaultGeometry()
	seen := make(map[Location]uint64)
	f := func(raw uint32) bool {
		p := mem.PAddr(raw) &^ (mem.LineSize - 1)
		l := g.Decode(p)
		if l.Channel >= g.Channels || l.Bank >= g.BanksPerCh || l.Col >= g.RowBytes {
			return false
		}
		if prev, dup := seen[l]; dup && prev != uint64(p) {
			return false
		}
		seen[l] = uint64(p)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSegmentMapping(t *testing.T) {
	g := DefaultGeometry()
	g.SubRows = 8 // 1KB segments
	l := g.Decode(0x10000 + 3*1024)
	if got := l.Segment(g); got != 3 {
		t.Errorf("segment = %d, want 3", got)
	}
	g1 := DefaultGeometry()
	if got := l.Segment(g1); got != 0 {
		t.Error("single buffer has only segment 0")
	}
}

func TestTimingLatencies(t *testing.T) {
	tm := DefaultTiming()
	if !(tm.HitLatency() < tm.MissLatency() && tm.MissLatency() < tm.ConflictLatency()) {
		t.Error("latency ordering violated")
	}
	// Paper envelope at 3.2GHz: hits 10–15ns ≈ 32–48cyc (we are at the
	// generous end), conflicts 30–50ns ≈ 96–160cyc.
	if tm.HitLatency() > 80 || tm.ConflictLatency() < 96 || tm.ConflictLatency() > 170 {
		t.Errorf("latencies out of envelope: hit=%d conflict=%d", tm.HitLatency(), tm.ConflictLatency())
	}
}

// Refresh needs an interval of at least one cycle; with refresh off
// (TRFC = 0) the interval is unused.
func TestTimingValidate(t *testing.T) {
	for _, tc := range []struct {
		trefi, trfc uint64
		ok          bool
	}{{25_000, 1_120, true}, {1, 1_120, true}, {0, 0, true}, {7, 0, true}, {0, 1, false}, {0, 1_120, false}} {
		tm := DefaultTiming()
		tm.TREFI, tm.TRFC = tc.trefi, tc.trfc
		if err := tm.Validate(); (err == nil) != tc.ok {
			t.Errorf("TREFI %d, TRFC %d: Validate = %v, want ok %v", tc.trefi, tc.trfc, err, tc.ok)
		}
	}
}

func TestBankHitMissConflict(t *testing.T) {
	var st stats.Stats
	g := DefaultGeometry()
	b := NewBank(g, DefaultTiming(), PolicyOpen)
	// Cold bank: miss.
	out, done := b.Access(5, 0, 100, nil, &st)
	if out != stats.RowMiss {
		t.Errorf("cold access = %v", out)
	}
	// Same row: hit.
	out, done2 := b.Access(5, 0, done, nil, &st)
	if out != stats.RowHit {
		t.Errorf("same row = %v", out)
	}
	if done2-done != DefaultTiming().HitLatency() {
		t.Errorf("hit latency = %d", done2-done)
	}
	// Different row while open: conflict.
	out, done3 := b.Access(9, 0, done2, nil, &st)
	if out != stats.RowConflict {
		t.Errorf("different row = %v", out)
	}
	if done3-done2 != DefaultTiming().ConflictLatency() {
		t.Errorf("conflict latency = %d", done3-done2)
	}
	if st.ActCount != 2 || st.PreCount != 1 {
		t.Errorf("ACT=%d PRE=%d", st.ActCount, st.PreCount)
	}
}

func TestClosedPolicyNeverConflicts(t *testing.T) {
	var st stats.Stats
	b := NewBank(DefaultGeometry(), DefaultTiming(), PolicyClosed)
	rows := []uint64{1, 1, 2, 2, 3, 1}
	now := uint64(0)
	for _, r := range rows {
		out, done := b.Access(r, 0, now, nil, &st)
		if out == stats.RowConflict {
			t.Errorf("closed-row policy produced a conflict on row %d", r)
		}
		if out == stats.RowHit {
			t.Errorf("closed-row policy produced a hit on row %d", r)
		}
		now = done
	}
}

func TestOpenPolicyBackToBackHits(t *testing.T) {
	var st stats.Stats
	b := NewBank(DefaultGeometry(), DefaultTiming(), PolicyOpen)
	_, done := b.Access(7, 0, 0, nil, &st)
	// Very long idle gap: open policy still hits.
	out, _ := b.Access(7, 0, done+1_000_000, nil, &st)
	if out != stats.RowHit {
		t.Errorf("open row after long idle = %v", out)
	}
}

func TestAdaptivePolicyClosesAfterWindow(t *testing.T) {
	var st stats.Stats
	b := NewBank(DefaultGeometry(), DefaultTiming(), PolicyAdaptive)
	_, done := b.Access(7, 0, 0, nil, &st)
	// Within the initial window: hit.
	out, done2 := b.Access(7, 0, done+50, nil, &st)
	if out != stats.RowHit {
		t.Errorf("within-window access = %v", out)
	}
	// Far beyond the window: the policy closed the row → miss, and a
	// different row suffers no conflict either.
	out, _ = b.Access(9, 0, done2+100_000, nil, &st)
	if out != stats.RowConflict {
		// It must be a miss: precharge happened off critical path.
		if out != stats.RowMiss {
			t.Errorf("post-window access = %v", out)
		}
	} else {
		t.Errorf("adaptive policy should have closed the idle row")
	}
}

func TestAdaptivePredictorLearns(t *testing.T) {
	b := NewBank(DefaultGeometry(), DefaultTiming(), PolicyAdaptive)
	p := &b.pred
	w0 := p.window(42)
	b.retune(42, true)
	if p.window(42) <= w0 {
		t.Error("reopened should grow the window")
	}
	b.retune(42, false)
	b.retune(42, false)
	b.retune(42, false)
	if p.window(42) >= w0 {
		t.Error("conflicts should shrink the window")
	}
	for i := 0; i < 20; i++ {
		b.retune(42, false)
	}
	if p.window(42) < predMin {
		t.Error("window under floor")
	}
	for i := 0; i < 20; i++ {
		b.retune(42, true)
	}
	if p.window(42) > predMax {
		t.Error("window over cap")
	}
}

func TestBankPinKeepsRowOpen(t *testing.T) {
	var st stats.Stats
	b := NewBank(DefaultGeometry(), DefaultTiming(), PolicyClosed)
	_, done := b.Access(7, 0, 0, nil, &st)
	_ = done
	// Closed policy would have dropped it; re-access and pin.
	_, done = b.Access(7, 0, done, nil, &st)
	b.Pin(7, 0, done, done+500)
	out, _ := b.Access(7, 0, done+400, nil, &st)
	if out != stats.RowHit {
		t.Errorf("pinned row should hit, got %v", out)
	}
}

func TestSubRowsIndependentSegments(t *testing.T) {
	var st stats.Stats
	g := DefaultGeometry()
	g.SubRows = 8
	b := NewBank(g, DefaultTiming(), PolicyOpen)
	// Fill segments 0..7 of row 3: all misses, no conflicts (8 buffers).
	now := uint64(0)
	for seg := 0; seg < 8; seg++ {
		out, done := b.Access(3, seg, now, nil, &st)
		if out != stats.RowMiss {
			t.Errorf("segment %d first access = %v", seg, out)
		}
		now = done
	}
	// All 8 segments now hit.
	for seg := 0; seg < 8; seg++ {
		out, done := b.Access(3, seg, now, nil, &st)
		if out != stats.RowHit {
			t.Errorf("segment %d second access = %v", seg, out)
		}
		now = done
	}
	// A ninth distinct segment conflicts with the LRU one (seg 0).
	out, done := b.Access(4, 0, now, nil, &st)
	if out != stats.RowConflict {
		t.Errorf("ninth segment = %v", out)
	}
	now = done
	if !b.WouldHit(4, 0, now) {
		t.Error("new segment should be latched")
	}
	if b.WouldHit(3, 0, now) {
		t.Error("victim segment should be gone")
	}
}

func TestSubRowAllowedSetRestrictsVictims(t *testing.T) {
	var st stats.Stats
	g := DefaultGeometry()
	g.SubRows = 4
	b := NewBank(g, DefaultTiming(), PolicyOpen)
	now := uint64(0)
	// Latch rows 1..4 across the four sub-rows.
	for i := uint64(1); i <= 4; i++ {
		_, now = b.Access(i, 0, now, []int{int(i - 1)}, &st)
	}
	// New row restricted to sub-row 2 must evict row 3 only.
	_, now = b.Access(9, 0, now, []int{2}, &st)
	if b.WouldHit(3, 0, now) {
		t.Error("row 3 (sub-row 2) should be evicted")
	}
	for _, r := range []uint64{1, 2, 4, 9} {
		if !b.WouldHit(r, 0, now) {
			t.Errorf("row %d should still be latched", r)
		}
	}
}

func newTestController(policy RowPolicy, sched Scheduler, st *stats.Stats) *Controller {
	cfg := DefaultConfig()
	cfg.Policy = policy
	return NewController(cfg, sched, st)
}

func TestControllerServesAndTimes(t *testing.T) {
	var st stats.Stats
	c := newTestController(PolicyOpen, FCFS{}, &st)
	r := &Request{Addr: 0x12345, Category: stats.DRAMOther, Enqueue: 100}
	c.Submit(r)
	done := c.RunUntil(r)
	if !r.Done || done != r.Complete || r.Issue < 100 {
		t.Errorf("request = %+v", r)
	}
	if r.Outcome != stats.RowMiss {
		t.Errorf("cold outcome = %v", r.Outcome)
	}
	if st.DRAMRefs[stats.DRAMOther] != 1 {
		t.Error("stats not recorded")
	}
}

func TestControllerBankQueueing(t *testing.T) {
	var st stats.Stats
	c := newTestController(PolicyOpen, FCFS{}, &st)
	// Two requests to the same bank, different rows: the second must
	// wait for the first and then pay a conflict.
	a := &Request{Addr: 0x0, Enqueue: 0}
	g := DefaultGeometry()
	conflictAddr := mem.PAddr(g.RowBytes * uint64(g.Channels) * uint64(g.BanksPerCh))
	if l1, l2 := g.Decode(0x0), g.Decode(conflictAddr); l1.Channel != l2.Channel || l1.Bank != l2.Bank || l1.Row == l2.Row {
		t.Fatal("test addresses must share a bank with different rows")
	}
	b := &Request{Addr: conflictAddr, Enqueue: 0}
	c.Submit(a)
	c.Submit(b)
	c.RunUntil(b)
	if b.Issue < a.Complete {
		t.Errorf("b issued at %d before a completed at %d", b.Issue, a.Complete)
	}
	if b.Outcome != stats.RowConflict {
		t.Errorf("b outcome = %v", b.Outcome)
	}
}

func TestControllerChannelParallelism(t *testing.T) {
	var st stats.Stats
	c := newTestController(PolicyOpen, FCFS{}, &st)
	g := DefaultGeometry()
	// Same enqueue time, different channels: both issue at ~enqueue.
	a := &Request{Addr: 0, Enqueue: 50}
	b := &Request{Addr: mem.PAddr(g.RowBytes), Enqueue: 50} // next row → other channel
	if g.Decode(a.Addr).Channel == g.Decode(b.Addr).Channel {
		t.Fatal("addresses should map to different channels")
	}
	c.Submit(a)
	c.Submit(b)
	c.Drain()
	if a.Issue != 50 || b.Issue != 50 {
		t.Errorf("issues = %d, %d; channels should run in parallel", a.Issue, b.Issue)
	}
}

// fakeObserver returns a canned prefetch for every leaf-PT request.
type fakeObserver struct {
	target   mem.PAddr
	enqueued []*Request
	suppress bool
}

func (f *fakeObserver) OnLeafPTServed(r *Request, completion uint64) *Request {
	if f.suppress {
		return nil
	}
	pf := &Request{Addr: f.target, CoreID: r.CoreID, Enqueue: completion}
	f.enqueued = append(f.enqueued, pf)
	return pf
}

func TestControllerTempoTriggering(t *testing.T) {
	var st stats.Stats
	c := newTestController(PolicyOpen, FCFS{}, &st)
	obs := &fakeObserver{target: 0xABC000}
	var doneFills []*Request
	c.Observer = obs
	c.OnPrefetchDone = func(r *Request) { doneFills = append(doneFills, r) }

	pt := &Request{Addr: 0x555000, IsLeafPT: true, ReplayLine: 3, Category: stats.DRAMPTW, Enqueue: 0}
	c.Submit(pt)
	c.RunUntil(pt)
	if len(obs.enqueued) != 1 {
		t.Fatal("observer should have been consulted once")
	}
	pf := obs.enqueued[0]
	if c.QueueLen() != 1 {
		t.Fatal("prefetch should be queued")
	}
	// The prefetch respects the PT-row wait.
	c.Drain()
	if pf.Enqueue < pt.Complete+c.cfg.PTRowWait {
		t.Errorf("prefetch enqueue %d < PT completion %d + wait", pf.Enqueue, pt.Complete)
	}
	if !pf.Done || !pf.Prefetch || pf.Category != stats.DRAMPrefetch || pf.PairedWith != pt {
		t.Errorf("prefetch = %+v", pf)
	}
	if len(doneFills) != 1 || doneFills[0] != pf {
		t.Error("OnPrefetchDone not invoked")
	}
	if st.DRAMPTWLeaf != 1 {
		t.Error("leaf PT counter missing")
	}
	// A later demand to the prefetched line's row must row-hit.
	replay := &Request{Addr: 0xABC040, Category: stats.DRAMReplay, Enqueue: pf.Complete + 50}
	c.Submit(replay)
	c.RunUntil(replay)
	if replay.Outcome != stats.RowHit {
		t.Errorf("replay outcome = %v, want row hit from prefetch", replay.Outcome)
	}
}

func TestControllerTempoSuppressed(t *testing.T) {
	var st stats.Stats
	c := newTestController(PolicyOpen, FCFS{}, &st)
	c.Observer = &fakeObserver{suppress: true}
	pt := &Request{Addr: 0x555000, IsLeafPT: true, Enqueue: 0}
	c.Submit(pt)
	c.RunUntil(pt)
	if c.QueueLen() != 0 {
		t.Error("suppressed trigger must not enqueue a prefetch")
	}
}

func TestControllerPTRowWaitPinsRow(t *testing.T) {
	var st stats.Stats
	cfg := DefaultConfig()
	cfg.Policy = PolicyClosed // would normally close instantly
	cfg.PTRowWait = 50
	c := NewController(cfg, FCFS{}, &st)
	pt := &Request{Addr: 0x555000, IsLeafPT: true, Enqueue: 0}
	c.Submit(pt)
	c.RunUntil(pt)
	// A second PT access to the same row within the wait hits.
	pt2 := &Request{Addr: 0x555040, IsLeafPT: true, Enqueue: pt.Complete + 20}
	c.Submit(pt2)
	c.RunUntil(pt2)
	if pt2.Outcome != stats.RowHit {
		t.Errorf("PT access within wait window = %v, want hit", pt2.Outcome)
	}
}

func TestControllerDrainUpTo(t *testing.T) {
	var st stats.Stats
	c := newTestController(PolicyOpen, FCFS{}, &st)
	early := &Request{Addr: 0x1000, Enqueue: 10}
	late := &Request{Addr: 0x2000, Enqueue: 5000}
	c.Submit(early)
	c.Submit(late)
	c.DrainUpTo(100)
	if !early.Done {
		t.Error("early request should be drained")
	}
	if late.Done {
		t.Error("late request must stay queued")
	}
	c.Drain()
	if !late.Done {
		t.Error("Drain should finish everything")
	}
}

func TestControllerPanicsOnBadUse(t *testing.T) {
	var st stats.Stats
	c := newTestController(PolicyOpen, FCFS{}, &st)
	r := &Request{Addr: 0x1000}
	c.Submit(r)
	c.RunUntil(r)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("resubmitting a done request should panic")
			}
		}()
		c.Submit(r)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RunUntil on missing request should panic")
			}
		}()
		c.RunUntil(&Request{Addr: 0x9999})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil scheduler should panic")
			}
		}()
		NewController(DefaultConfig(), nil, &st)
	}()
}

func TestFCFSPicksOldest(t *testing.T) {
	q := []*Request{{Enqueue: 30}, {Enqueue: 10}, {Enqueue: 20}}
	if got := (FCFS{}).Pick(q, 0, ^uint64(0), nil); got != 1 {
		t.Errorf("Pick = %d, want 1", got)
	}
}

func TestEnergyModelAccounting(t *testing.T) {
	m := DefaultEnergyModel()
	st := &stats.Stats{Cycles: 3_200_000, Instructions: 1_000_000,
		ActCount: 1000, PreCount: 500, RdCount: 1500, WrCount: 100}
	e := m.Account(st, false)
	if e.TempoJ != 0 {
		t.Error("TEMPO energy charged while off")
	}
	wantStatic := (m.StaticW + m.BackgroundW) * 0.001
	if diff := e.StaticJ - wantStatic; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("static = %v, want %v", e.StaticJ, wantStatic)
	}
	if e.DRAMDynJ <= 0 || e.CPUDynJ <= 0 {
		t.Error("dynamic energies must be positive")
	}
	eOn := m.Account(st, true)
	if eOn.TempoJ <= 0 || eOn.Total() <= e.Total() {
		t.Error("TEMPO hardware must add energy at equal runtime")
	}
	// A 20% faster run with the same ops saves energy overall.
	faster := *st
	faster.Cycles = 2_560_000
	b, r := m.Account(st, false).Total(), m.Account(&faster, true).Total()
	if imp := (b - r) / b; imp <= 0 || imp >= 0.2 {
		t.Errorf("improvement = %v, want in (0, 0.2)", imp)
	}
}

func TestRowPolicyString(t *testing.T) {
	if PolicyAdaptive.String() != "adaptive-row" || PolicyOpen.String() != "open-row" ||
		PolicyClosed.String() != "closed-row" {
		t.Error("RowPolicy strings wrong")
	}
}

func TestFOAAllocation(t *testing.T) {
	f := NewFOA(4)
	// Before any epoch: everyone shares the demand pool.
	r := &Request{CoreID: 1}
	got := f.Allowed(r, 8, 2)
	if len(got) != 6 || got[0] != 2 {
		t.Errorf("shared pool = %v", got)
	}
	// Prefetches use the dedicated reservation.
	pf := &Request{Prefetch: true}
	if got := f.Allowed(pf, 8, 2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("prefetch pool = %v", got)
	}
	// Make core 3 the biggest conflict sufferer, then cross an epoch.
	for i := uint64(0); i < f.epoch; i++ {
		f.OnServed(&Request{CoreID: 3}, stats.RowConflict)
	}
	got = f.Allowed(&Request{CoreID: 3}, 8, 2)
	if len(got) != 1 {
		t.Errorf("core 3 should have a dedicated sub-row, got %v", got)
	}
	// Others must not use core 3's dedicated sub-row.
	other := f.Allowed(&Request{CoreID: 0}, 8, 2)
	for _, s := range other {
		if s == got[0] {
			t.Error("dedicated sub-row leaked into the shared pool")
		}
	}
}

func TestPOAProportionalAllocation(t *testing.T) {
	p := NewPOA(2)
	// Core 0 generates 15× the demand of core 1.
	for i := uint64(0); i < p.epoch; i++ {
		core := 0
		if i%16 == 15 {
			core = 1
		}
		p.OnServed(&Request{CoreID: core}, stats.RowHit)
	}
	a0 := p.Allowed(&Request{CoreID: 0}, 8, 2)
	a1 := p.Allowed(&Request{CoreID: 1}, 8, 2)
	if len(a0) <= len(a1) {
		t.Errorf("heavy core got %v, light core %v", a0, a1)
	}
	// Spans stay within the demand pool.
	for _, s := range append(a0, a1...) {
		if s < 2 || s >= 8 {
			t.Errorf("sub-row %d outside demand pool", s)
		}
	}
}
