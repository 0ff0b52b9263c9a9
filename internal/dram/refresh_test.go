package dram

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
)

func TestBankRefreshClosesRowsAndStalls(t *testing.T) {
	var st stats.Stats
	b := NewBank(DefaultGeometry(), DefaultTiming(), PolicyOpen)
	_, done := b.Access(7, 0, 0, nil, &st)
	b.Pin(7, 0, done, done+10_000) // even pinned rows must refresh
	b.Refresh(done, 1_000, &st)
	if b.WouldHit(7, 0, done+1) {
		t.Error("refresh must precharge every row buffer")
	}
	if b.ReadyAt() < done+1_000 {
		t.Errorf("bank ready at %d during tRFC window", b.ReadyAt())
	}
	if st.PreCount == 0 {
		t.Error("refresh precharges not counted")
	}
}

func TestControllerRefreshCadence(t *testing.T) {
	var st stats.Stats
	cfg := DefaultConfig()
	cfg.Policy = PolicyOpen
	cfg.Timing.TREFI = 1_000
	cfg.Timing.TRFC = 200
	c := NewController(cfg, FCFS{}, &st)
	// An access before the first deadline sees no refresh.
	r1 := &Request{Addr: 0x40, Enqueue: 100}
	c.Submit(r1)
	c.RunUntil(r1)
	if st.RefCount != 0 {
		t.Fatalf("refresh fired early: %d", st.RefCount)
	}
	// An access far in the future triggers the due refreshes on its
	// channel, and the previously open row is gone.
	r2 := &Request{Addr: 0x40, Enqueue: 3_100}
	c.Submit(r2)
	c.RunUntil(r2)
	if st.RefCount != 3 {
		t.Errorf("RefCount = %d, want 3 (deadlines 1000, 2000, 3000)", st.RefCount)
	}
	if r2.Outcome != stats.RowMiss {
		t.Errorf("post-refresh access = %v, want row-miss", r2.Outcome)
	}
}

func TestRefreshDisabled(t *testing.T) {
	var st stats.Stats
	cfg := DefaultConfig()
	cfg.Policy = PolicyOpen
	cfg.Timing.TRFC = 0 // disabled
	c := NewController(cfg, FCFS{}, &st)
	r1 := &Request{Addr: 0x40, Enqueue: 0}
	c.Submit(r1)
	c.RunUntil(r1)
	r2 := &Request{Addr: 0x40, Enqueue: 10_000_000}
	c.Submit(r2)
	c.RunUntil(r2)
	if st.RefCount != 0 {
		t.Error("refresh fired while disabled")
	}
	if r2.Outcome != stats.RowHit {
		t.Errorf("open row should survive forever without refresh: %v", r2.Outcome)
	}
}

func TestRefreshEnergyAccounted(t *testing.T) {
	m := DefaultEnergyModel()
	a := &stats.Stats{Cycles: 1000}
	b := &stats.Stats{Cycles: 1000, RefCount: 100}
	if m.Account(b, false).DRAMDynJ <= m.Account(a, false).DRAMDynJ {
		t.Error("refreshes must consume energy")
	}
}

func TestRefreshDelaysInFlightRequest(t *testing.T) {
	var st stats.Stats
	cfg := DefaultConfig()
	cfg.Timing.TREFI = 500
	cfg.Timing.TRFC = 300
	c := NewController(cfg, FCFS{}, &st)
	// Enqueued right at the refresh deadline: must wait out tRFC.
	r := &Request{Addr: 0x40, Enqueue: 500}
	c.Submit(r)
	c.RunUntil(r)
	if r.Issue < 800 {
		t.Errorf("issued at %d during refresh (deadline 500 + tRFC 300)", r.Issue)
	}
}

func TestTFAWLimitsActivateRate(t *testing.T) {
	var st stats.Stats
	cfg := DefaultConfig()
	cfg.Policy = PolicyClosed // every access activates
	cfg.Timing.TFAW = 500
	cfg.Timing.TRFC = 0
	c := NewController(cfg, FCFS{}, &st)
	g := cfg.Geometry
	// Five same-channel accesses to distinct banks at time 0: the
	// fifth ACT must wait for the tFAW window.
	var reqs []*Request
	for i := 0; i < 5; i++ {
		addr := mem.PAddr(uint64(i) * g.RowBytes * uint64(g.Channels))
		if got := g.Decode(addr).Channel; got != 0 {
			t.Fatalf("address %d not on channel 0", i)
		}
		r := &Request{Addr: addr, Enqueue: 0}
		reqs = append(reqs, r)
		c.Submit(r)
	}
	c.Drain()
	if reqs[3].Issue >= 500 {
		t.Errorf("fourth ACT at %d should be inside the window", reqs[3].Issue)
	}
	if reqs[4].Issue < 500 {
		t.Errorf("fifth ACT at %d violates tFAW", reqs[4].Issue)
	}
}

func TestTFAWIgnoresRowHits(t *testing.T) {
	var st stats.Stats
	cfg := DefaultConfig()
	cfg.Policy = PolicyOpen
	cfg.Timing.TFAW = 10_000
	cfg.Timing.TRFC = 0
	c := NewController(cfg, FCFS{}, &st)
	// One ACT opens the row; dozens of hits afterwards never touch
	// the activate budget.
	prev := &Request{Addr: 0x0, Enqueue: 0}
	c.Submit(prev)
	c.RunUntil(prev)
	for i := 1; i < 20; i++ {
		r := &Request{Addr: mem.PAddr(i * 64), Enqueue: prev.Complete}
		c.Submit(r)
		c.RunUntil(r)
		if r.Outcome != stats.RowHit {
			t.Fatalf("access %d = %v", i, r.Outcome)
		}
		prev = r
	}
}
