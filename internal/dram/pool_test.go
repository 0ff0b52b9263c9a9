package dram

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
)

// dirty fills every externally visible field of a request, modelling a
// transaction that went through the controller with all the TEMPO
// bells attached.
func dirty(r *Request, pair *Request) {
	r.Addr = 0xDEAD_BEEF_000
	r.Write = true
	r.Category = stats.DRAMWriteback
	r.CoreID = 3
	r.IsLeafPT = true
	r.ReplayLine = 0x2A
	r.Prefetch = true
	r.PairedWith = pair
	r.Enqueue = 12345
	r.AutoRelease = true
	r.Done = true
	r.Issue = 23456
	r.Complete = 34567
	r.Outcome = stats.RowConflict
}

// TestPoolRecycledRequestIsClean is the regression test for stale-field
// bugs: a recycled request must come back indistinguishable from a
// fresh one — no leftover category, row outcome, TEMPO leaf/replay
// tags, pairing pointer, or auto-release flag from its previous life.
func TestPoolRecycledRequestIsClean(t *testing.T) {
	var p Pool
	first := p.Get()
	dirty(first, p.Get())
	p.Release(first)
	if p.FreeLen() != 1 {
		t.Fatalf("FreeLen = %d, want 1", p.FreeLen())
	}

	second := p.Get()
	if second != first {
		t.Fatalf("expected the freed request back, got a new one")
	}
	want := Request{pooled: true, refs: 1}
	if *second != want {
		t.Errorf("recycled request carries stale state: %+v", *second)
	}
	// Field-by-field for readable failures on future additions.
	if second.Addr != 0 || second.Write || second.Category != stats.DRAMCategory(0) ||
		second.CoreID != 0 || second.IsLeafPT || second.ReplayLine != 0 ||
		second.Prefetch || second.PairedWith != nil || second.Enqueue != 0 ||
		second.AutoRelease || second.Done || second.Issue != 0 ||
		second.Complete != 0 || second.Outcome != stats.RowOutcome(0) {
		t.Errorf("stale fields on recycled request: %+v", *second)
	}
}

// TestPoolRefCounting checks the shared-ownership path used by paired
// leaf-PT requests: the request must survive until every owner
// releases it, and only then be recycled.
func TestPoolRefCounting(t *testing.T) {
	var p Pool
	r := p.Get()
	r.Ref() // second owner (e.g. the paired TEMPO prefetch)
	p.Release(r)
	if p.FreeLen() != 0 {
		t.Fatal("request recycled while still referenced")
	}
	p.Release(r)
	if p.FreeLen() != 1 {
		t.Fatal("request not recycled after last release")
	}
}

// TestPoolIgnoresForeignRequests: requests built with &Request{} (tests,
// external callers) are garbage-collected, not pooled; Ref/Release must
// leave them alone.
func TestPoolIgnoresForeignRequests(t *testing.T) {
	var p Pool
	r := &Request{Addr: 0x40, Category: stats.DRAMPTW}
	r.Ref()
	p.Release(r)
	p.Release(nil)
	if p.FreeLen() != 0 {
		t.Fatalf("foreign request entered the pool (FreeLen=%d)", p.FreeLen())
	}
	if r.Addr != 0x40 || r.Category != stats.DRAMPTW {
		t.Error("foreign request mutated")
	}
}

// TestPoolDoubleReleasePanics: over-releasing corrupts future reuse, so
// it must fail loudly.
func TestPoolDoubleReleasePanics(t *testing.T) {
	var p Pool
	r := p.Get()
	p.Release(r)
	defer func() {
		if recover() == nil {
			t.Error("double release must panic")
		}
	}()
	p.Release(r)
}

// TestPoolReuseStats: in steady state every Get is a reuse — only the
// first Get allocates, and each later one hands back the request the
// previous iteration released.
func TestPoolReuseStats(t *testing.T) {
	var p Pool
	first := p.Get()
	p.Release(first)
	for i := 1; i < 100; i++ {
		r := p.Get()
		if r != first {
			t.Fatalf("Get %d allocated instead of reusing the released request", i)
		}
		p.Release(r)
	}
	if p.FreeLen() != 1 {
		t.Errorf("FreeLen = %d, want 1", p.FreeLen())
	}
}

// TestControllerRecyclesThroughFullServeCycle runs pooled requests
// through a real controller serve — Submit, RunUntil, Release — and
// checks the next Get starts clean even though the controller filled
// in results and outcomes.
func TestControllerRecyclesThroughFullServeCycle(t *testing.T) {
	var st stats.Stats
	ctrl := NewController(DefaultConfig(), FCFS{}, &st)
	pool := ctrl.Pool()
	for i := 0; i < 8; i++ {
		r := pool.Get()
		r.Addr = mem.PAddr(uint64(i) << 14)
		r.Category = stats.DRAMPTW
		r.Enqueue = uint64(i) * 100
		ctrl.Submit(r)
		ctrl.RunUntil(r)
		if !r.Done {
			t.Fatalf("request %d not served", i)
		}
		pool.Release(r)
		next := pool.Get()
		if next.Done || next.Outcome != stats.RowOutcome(0) || next.Category != stats.DRAMCategory(0) {
			t.Fatalf("iteration %d: recycled request carries serve results: %+v", i, *next)
		}
		pool.Release(next)
	}
}
