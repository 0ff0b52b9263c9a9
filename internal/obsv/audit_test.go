package obsv

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

// consistentStats returns a Stats whose counters satisfy every audit
// invariant: a plausible end-of-run total of a TEMPO run.
func consistentStats() stats.Stats {
	var st stats.Stats
	st.TLBHits = 900
	st.TLBMisses = 100
	st.WalksStarted = 100
	st.WalkDRAMTouched = 60
	st.WalkDRAMThenReplayDRAM = 58
	st.DRAMPTWLeaf = 60
	st.TempoTriggers = 60
	st.TempoPrefetches = 55
	st.TempoSuppressed = 5
	st.TempoLLCFills = 50
	st.TempoUseful = 40
	st.DRAMRefs[stats.DRAMPTW] = 70
	st.DRAMRefs[stats.DRAMReplay] = 20
	st.DRAMRefs[stats.DRAMOther] = 200
	st.DRAMRefs[stats.DRAMPrefetch] = 55
	st.RdCount = 70 + 20 + 200 + 55
	st.WrCount = 12
	st.MemRefs = 1000
	st.Instructions = 3000
	// An attributed CPI stack: buckets sum exactly to CPICycles, and
	// the credits stay within the TLB misses that could produce them.
	for b := range st.CPIStack {
		st.CPIStack[b] = uint64(1000 * (b + 1))
		st.CPICycles += st.CPIStack[b]
	}
	st.CPIHiddenByPrefetch = 30
	st.CPIMechElided = 10
	// Replays stalled on part of the data-DRAM buckets' 30000 cycles.
	st.ReplayDRAMCycles = 12000
	return st
}

func TestAuditPassesOnConsistentStats(t *testing.T) {
	st := consistentStats()
	if v := Audit(StatsSnapshot(&st)); len(v) != 0 {
		t.Fatalf("consistent stats audited dirty: %v", v)
	}
}

func TestAuditCatchesCorruptions(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(*stats.Stats)
		check   string
	}{
		{"walks exceed misses", func(s *stats.Stats) { s.WalksStarted = s.TLBMisses + 1 },
			"walks-need-tlb-misses"},
		{"dram walks exceed walks", func(s *stats.Stats) { s.WalkDRAMTouched = s.WalksStarted + 1 },
			"walk-dram-subset"},
		{"replay chain exceeds dram walks", func(s *stats.Stats) { s.WalkDRAMThenReplayDRAM = s.WalkDRAMTouched + 1 },
			"replay-chain-subset"},
		{"lost suppression", func(s *stats.Stats) { s.TempoSuppressed-- },
			"tempo-trigger-conservation"},
		{"leaf reads drift from triggers", func(s *stats.Stats) { s.DRAMPTWLeaf += 3 },
			"leaf-reads-are-trigger-opportunities"},
		{"fills exceed prefetches", func(s *stats.Stats) { s.TempoLLCFills = s.TempoPrefetches + 1 },
			"prefetch-fill-conservation"},
		{"useful exceeds fills", func(s *stats.Stats) { s.TempoUseful = s.TempoLLCFills + 1 },
			"useful-needs-fill"},
		{"phantom prefetch traffic", func(s *stats.Stats) { s.DRAMRefs[stats.DRAMPrefetch] = s.TempoPrefetches + s.IMPPrefetches + 1 },
			"prefetch-dram-subset"},
		{"read commands drift", func(s *stats.Stats) { s.RdCount++ },
			"dram-read-conservation"},
		{"cpi stack leaks a cycle", func(s *stats.Stats) { s.CPIStack[stats.CPICompute]-- },
			"cpi-stack-sums-to-cycles"},
		{"cpi stack double-charges", func(s *stats.Stats) { s.CPIStack[stats.CPIDataDRAMService] += 7 },
			"cpi-stack-sums-to-cycles"},
		{"hidden credits exceed misses", func(s *stats.Stats) { s.CPIHiddenByPrefetch = s.TLBMisses + 1 },
			"cpi-hidden-by-prefetch-bound"},
		{"elided credits exceed misses", func(s *stats.Stats) { s.CPIMechElided = s.TLBMisses + 1 },
			"cpi-mech-elided-bound"},
		{"replay stalls exceed data DRAM", func(s *stats.Stats) {
			s.ReplayDRAMCycles = s.CPIStack[stats.CPIDataDRAMQueue] + s.CPIStack[stats.CPIDataDRAMService] +
				s.CPIStack[stats.CPIRowConflictExtra] + 1
		}, "replay-dram-within-data-dram"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := consistentStats()
			tc.corrupt(&st)
			vs := Audit(StatsSnapshot(&st))
			found := false
			for _, v := range vs {
				if v.Check == tc.check {
					found = true
					if v.Detail == "" {
						t.Errorf("violation %q has no detail", v.Check)
					}
				}
			}
			if !found {
				t.Fatalf("corruption not caught; violations: %v", vs)
			}
		})
	}
}

// The read-conservation corruption above bumps RdCount, which must not
// also trip unrelated checks — each invariant isolates its own
// counters.
func TestAuditViolationsAreIndependent(t *testing.T) {
	st := consistentStats()
	st.RdCount++
	vs := Audit(StatsSnapshot(&st))
	if len(vs) != 1 || vs[0].Check != "dram-read-conservation" {
		t.Fatalf("want exactly the read-conservation violation, got %v", vs)
	}
	if !strings.Contains(vs[0].String(), "dram-read-conservation") {
		t.Fatalf("String() should lead with the check name: %q", vs[0].String())
	}
}

// Audit skips checks whose operands are absent, so partial snapshots
// (interval deltas, sparsely-attached registries) audit clean rather
// than spuriously failing.
func TestAuditSkipsAbsentOperands(t *testing.T) {
	s := Snapshot{Counters: map[string]uint64{
		MetricWalksStarted: 10, // no tlb_misses, no walk_dram_touched
	}}
	if v := Audit(s); len(v) != 0 {
		t.Fatalf("partial snapshot should audit clean, got %v", v)
	}
	if v := Audit(Snapshot{}); len(v) != 0 {
		t.Fatalf("empty snapshot should audit clean, got %v", v)
	}
}

// cpi/cycles == 0 marks an unattributed result (a pre-CPI cache entry
// decoded under the new schema): the stack law must self-skip even
// when bucket metrics are present and nonzero.
func TestAuditSkipsUnattributedCPIStack(t *testing.T) {
	st := consistentStats()
	st.CPICycles = 0
	if v := Audit(StatsSnapshot(&st)); len(v) != 0 {
		t.Fatalf("unattributed stats should audit clean, got %v", v)
	}
}

func TestRegisterStatsGaugesTracksLiveStats(t *testing.T) {
	st := consistentStats()
	reg := NewRegistry()
	reg.Source(StatsSource(func() stats.Stats { return st }))
	snap := reg.Snapshot()
	if got := snap.Counters[MetricTLBMisses]; got != st.TLBMisses {
		t.Fatalf("source read %d, want %d", got, st.TLBMisses)
	}
	if v := Audit(snap); len(v) != 0 {
		t.Fatalf("source snapshot audited dirty: %v", v)
	}
	st.TempoPrefetches += 7 // drifts from triggers+suppressed
	if v := Audit(reg.Snapshot()); len(v) == 0 {
		t.Fatal("live source snapshot should reflect the corrupted counter")
	}
}

// The stats source reads its owner's state once per snapshot and emits
// every canonical name from that one read, the same set an end-of-run
// StatsSnapshot carries.
func TestStatsSourceReadsOncePerSnapshot(t *testing.T) {
	st := consistentStats()
	reads := 0
	reg := NewRegistry()
	reg.Source(StatsSource(func() stats.Stats {
		reads++
		return st
	}))
	for i := 1; i <= 3; i++ {
		snap := reg.Snapshot()
		if reads != i {
			t.Fatalf("after %d snapshots read was called %d times", i, reads)
		}
		want := StatsSnapshot(&st).Counters
		if len(snap.Counters) != len(want) {
			t.Fatalf("source emitted %d names, StatsSnapshot has %d", len(snap.Counters), len(want))
		}
		for name, v := range want {
			if snap.Counters[name] != v {
				t.Errorf("%s = %d, want %d", name, snap.Counters[name], v)
			}
		}
	}
}

// svcCounters builds a consistent service snapshot: 10 submissions
// partitioned across lifecycle states, with cache hits bounded by
// completions.
func svcCounters() map[string]uint64 {
	return map[string]uint64{
		MetricSvcSubmitted: 10,
		MetricSvcQueued:    2,
		MetricSvcRunning:   1,
		MetricSvcCompleted: 5,
		MetricSvcFailed:    1,
		MetricSvcCanceled:  1,
		MetricSvcCacheHits: 3,
		MetricSvcDedupHits: 4, // outside the conservation law
	}
}

func TestAuditServiceJobConservation(t *testing.T) {
	if v := Audit(Snapshot{Counters: svcCounters()}); len(v) != 0 {
		t.Fatalf("consistent service counters audited dirty: %v", v)
	}

	lost := svcCounters()
	lost[MetricSvcQueued]-- // one job record vanished from every state
	vs := Audit(Snapshot{Counters: lost})
	if len(vs) != 1 || vs[0].Check != "service-job-conservation" {
		t.Fatalf("want exactly service-job-conservation, got %v", vs)
	}
	if vs[0].Detail == "" {
		t.Fatal("violation has no detail")
	}

	// Rejections and dedup hits sit outside the partition: bumping them
	// must not trip the law.
	ok := svcCounters()
	ok[MetricSvcRejectedQuota] = 7
	ok[MetricSvcRejectedQueue] = 3
	ok[MetricSvcDedupHits] = 99
	if v := Audit(Snapshot{Counters: ok}); len(v) != 0 {
		t.Fatalf("rejections should not affect conservation, got %v", v)
	}
}

func TestAuditServiceCacheHitsSubset(t *testing.T) {
	c := svcCounters()
	c[MetricSvcCacheHits] = c[MetricSvcCompleted] + 1
	vs := Audit(Snapshot{Counters: c})
	if len(vs) != 1 || vs[0].Check != "service-cache-hits-subset" {
		t.Fatalf("want exactly service-cache-hits-subset, got %v", vs)
	}
}

// A snapshot missing any one lifecycle state skips the service checks
// rather than failing on a partial view.
func TestAuditServicePartialSnapshotSkipped(t *testing.T) {
	c := svcCounters()
	delete(c, MetricSvcRunning)
	c[MetricSvcQueued] = 1 // would violate conservation if checked
	if v := Audit(Snapshot{Counters: c}); len(v) != 0 {
		t.Fatalf("partial service snapshot should audit clean, got %v", v)
	}
}
