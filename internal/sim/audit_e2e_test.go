package sim

import (
	"bytes"
	"testing"

	"repro/internal/obsv"
	"repro/internal/stats"
)

// TestAuditEndToEnd is the acceptance check for the counter audit: a
// real TEMPO simulation must satisfy every cross-subsystem
// conservation law, in all three metric views — the end-of-run result
// totals, the live registry (sources registered by Attach), and the
// last interval-boundary snapshot the introspection server scrapes.
// It also pins the strictest invariant empirically: DRAM read
// commands exactly equal the sum of the four read-reference
// categories.
func TestAuditEndToEnd(t *testing.T) {
	cfg := quickCfg("xsbench", 20_000)
	cfg.Tempo = DefaultTempo()
	var sink bytes.Buffer
	res, o := runObserved(t, cfg, obsv.Options{IntervalEvery: 5_000, IntervalSink: &sink})
	if res.Mem.TempoPrefetches == 0 {
		t.Fatal("run issued no TEMPO prefetches; audit would be vacuous")
	}

	views := map[string]obsv.Snapshot{
		// Offline view: what tempo-report audits from the result cache.
		"result-totals": obsv.StatsSnapshot(&res.Total),
		// Live view: the registry's sources, sampled after the run (the
		// simulation thread is done, so direct snapshots are safe).
		"registry-sources": o.Reg.Snapshot(),
		// Server view: the snapshot published at the last interval
		// flush, which /metrics serves during a run.
		"last-interval": o.LastSnapshot(),
	}
	for name, snap := range views {
		if snap.Counters[obsv.MetricTempoTriggers] == 0 {
			t.Errorf("%s: no TEMPO triggers in snapshot — audit inputs missing", name)
		}
		for _, v := range obsv.Audit(snap) {
			t.Errorf("%s: %s", name, v)
		}
	}

	// The equality the audit's dram-read-conservation check asserts
	// must hold exactly on a real run, not merely as an inequality.
	m := &res.Total
	sum := m.DRAMRefs[0] + m.DRAMRefs[1] + m.DRAMRefs[2] + m.DRAMRefs[3]
	if m.RdCount != sum {
		t.Fatalf("DRAM read commands %d != read references %d", m.RdCount, sum)
	}

	// A deliberately corrupted counter must be caught: drop half the
	// prefetch count so triggers != prefetches + suppressed.
	bad := obsv.StatsSnapshot(&res.Total)
	bad.Counters[obsv.MetricTempoPrefetches] /= 2
	found := false
	for _, v := range obsv.Audit(bad) {
		if v.Check == "tempo-trigger-conservation" {
			found = true
		}
	}
	if !found {
		t.Fatal("corrupted prefetch counter not flagged by the audit")
	}
}

// A result whose replay DRAM stall cycles exceed its demand-data DRAM
// buckets fails Result.Audit: Figure 1 reads other misses as those
// buckets less the replays' share, which would wrap.
func TestAuditFlagsReplayBeyondDataDRAM(t *testing.T) {
	res, err := Run(quickCfg("xsbench", 5_000))
	if err != nil {
		t.Fatal(err)
	}
	st := &res.Total
	if st.ReplayDRAMCycles == 0 {
		t.Fatal("no replay stalled on DRAM; the law would be vacuous")
	}
	if v := res.Audit(); len(v) != 0 {
		t.Fatalf("clean run flagged: %v", v)
	}
	st.ReplayDRAMCycles = st.CPIStack[stats.CPIDataDRAMQueue] +
		st.CPIStack[stats.CPIDataDRAMService] + st.CPIStack[stats.CPIRowConflictExtra] + 1
	for _, v := range res.Audit() {
		if v.Check == "replay-dram-within-data-dram" {
			return
		}
	}
	t.Fatalf("replay stalls beyond the data-DRAM buckets not flagged: %v", res.Audit())
}

// TestAuditBaselineRun checks the audit on a TEMPO-off run: the
// trigger/prefetch metrics are all zero and the walk/DRAM
// conservation laws still hold.
func TestAuditBaselineRun(t *testing.T) {
	cfg := quickCfg("graph500", 10_000)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := obsv.StatsSnapshot(&res.Total)
	if snap.Counters[obsv.MetricTempoTriggers] != 0 {
		t.Fatal("baseline run recorded TEMPO triggers")
	}
	for _, v := range obsv.Audit(snap) {
		t.Errorf("baseline: %s", v)
	}
}
