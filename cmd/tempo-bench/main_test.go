package main

import (
	"sync"
	"testing"

	tempo "repro"
	"repro/internal/obsv"
)

// Snapshots of -http's sweep totals, taken while runs are added
// concurrently, always audit clean: a run is added, and the sum read,
// under one lock, so no snapshot holds part of a run.
func TestSweepTotalsAuditCleanUnderConcurrentRuns(t *testing.T) {
	cfg := tempo.DefaultConfig("xsbench")
	cfg.Records = 2000
	cfg.Workloads[0].Footprint = 64 << 20
	cfg.Tempo = tempo.DefaultTempo()
	totals := &sweepTotals{}
	reg := obsv.NewRegistry()
	reg.Source(obsv.StatsSource(totals.read))
	res, err := observedExec(0, t.TempDir(), nil, totals)(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.TempoPrefetches == 0 {
		t.Fatal("the TEMPO run issued no prefetches")
	}
	if v := obsv.Audit(reg.Snapshot()); len(v) > 0 {
		t.Fatalf("one run's totals audit dirty: %v", v)
	}

	const adders, runs = 2, 5000
	var wg sync.WaitGroup
	for a := 0; a < adders; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				totals.add(&res.Total)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var snaps, dirty int
	var first []obsv.AuditViolation
	for adding := true; adding; {
		select {
		case <-done:
			adding = false
		default:
		}
		snaps++
		if v := obsv.Audit(reg.Snapshot()); len(v) > 0 {
			if dirty++; first == nil {
				first = v
			}
		}
	}
	if dirty > 0 {
		t.Fatalf("%d of %d snapshots failed the audit; first: %v", dirty, snaps, first)
	}
	want := (1 + adders*runs) * res.Total.TempoPrefetches
	if got := reg.Snapshot().Counters[obsv.MetricTempoPrefetches]; got != want {
		t.Fatalf("summed prefetches = %d, want %d", got, want)
	}
}
