package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obsv"
	"repro/internal/translation"
)

// TestMechTempoBitIdentical pins MECHANISMS.md §1: "tempo" names the
// default machine, so a run that selects it explicitly produces a
// result identical in every field, mechanism metadata included, to a
// run that names no mechanism.
func TestMechTempoBitIdentical(t *testing.T) {
	for _, wl := range []string{"xsbench", "graph500"} {
		cfg := quickCfg(wl, 20_000)
		cfg.Tempo = DefaultTempo()
		implicit := run(t, cfg)

		cfg.Mech = "tempo"
		explicit := run(t, cfg)

		if !reflect.DeepEqual(implicit, explicit) {
			t.Errorf("%s: explicit -mech tempo diverged from the default machine", wl)
		}
	}
}

// TestMechDefaultResultCarriesNoMechanism pins the wire-format half of
// the identity: a run without Config.Mech must leave the mechanism
// fields zero, so gob-cached results from pre-seam sweeps stay valid.
func TestMechDefaultResultCarriesNoMechanism(t *testing.T) {
	cfg := quickCfg("xsbench", 5_000)
	cfg.Tempo = DefaultTempo()
	res := run(t, cfg)
	if res.Mechanism != "" || res.MechCounters != nil || res.Energy.MechJ != 0 {
		t.Errorf("default run leaked mechanism metadata: %q %v %g",
			res.Mechanism, res.MechCounters, res.Energy.MechJ)
	}
}

// TestMechGauges pins the observer wiring of MECHANISMS.md §1.3: a
// rival's mech/* counters reach the registry, through its
// CountersInto source, holding the values its Result reports, and the default machine with TEMPO on
// registers no mech/* name at all (the engine reports under
// mem/tempo_*).
func TestMechGauges(t *testing.T) {
	cfg := quickCfg("xsbench", 20_000)
	cfg.Mech = "victima"
	res, o := runObserved(t, cfg, obsv.Options{IntervalEvery: 5_000, IntervalSink: &bytes.Buffer{}})
	snap := o.Reg.Snapshot()
	names := []string{
		translation.MetricVictimaLookups, translation.MetricVictimaPTEHits,
		translation.MetricVictimaPTEMisses, translation.MetricVictimaEvicted,
		translation.MetricVictimaInserts,
	}
	if len(res.MechCounters) != len(names) || res.MechCounters[translation.MetricVictimaLookups] == 0 {
		t.Fatalf("victima result counters = %v, want %d names and some lookups", res.MechCounters, len(names))
	}
	for _, name := range names {
		got, ok := snap.Counters[name]
		if want, inRes := res.MechCounters[name]; !ok || !inRes || got != want {
			t.Errorf("victima series %s = %d (emitted %v), result %d (reported %v)", name, got, ok, want, inRes)
		}
	}
	for _, v := range obsv.Audit(snap) {
		t.Errorf("victima snapshot: %s", v)
	}

	cfg = quickCfg("xsbench", 20_000)
	cfg.Tempo = DefaultTempo()
	var sink bytes.Buffer
	res, o = runObserved(t, cfg, obsv.Options{IntervalEvery: 5_000, IntervalSink: &sink})
	if res.Mem.TempoPrefetches == 0 {
		t.Fatal("TEMPO run issued no prefetches")
	}
	for name := range o.Reg.Snapshot().Counters {
		if strings.HasPrefix(name, "mech/") {
			t.Errorf("TEMPO run registered %s", name)
		}
	}
	if sink.Len() == 0 {
		t.Error("TEMPO run wrote no interval lines")
	}
	if strings.Contains(sink.String(), `"mech/`) {
		t.Error("TEMPO interval lines carry a mech/ name")
	}
}

// TestVictimaEngages requires the victima mechanism to demonstrably
// act on a locality-heavy config: its tag store must elide walks
// (pte_hits > 0), and its counters must satisfy the audit partitions.
func TestVictimaEngages(t *testing.T) {
	cfg := quickCfg("xsbench", 60_000)
	cfg.Mech = "victima"
	res := run(t, cfg)

	c := res.MechCounters
	if c[translation.MetricVictimaPTEHits] == 0 {
		t.Fatalf("victima never elided a walk: %v", c)
	}
	if c[translation.MetricVictimaPTEHits]+c[translation.MetricVictimaPTEMisses] != c[translation.MetricVictimaLookups] {
		t.Errorf("lookup partition broken: %v", c)
	}
	if c[translation.MetricVictimaLookups] == 0 || c[translation.MetricVictimaInserts] == 0 {
		t.Errorf("victima idle on a TLB-thrashing workload: %v", c)
	}
	// Elided walks mean fewer walks than the baseline issued.
	base := run(t, quickCfg("xsbench", 60_000))
	if res.Total.WalksStarted >= base.Total.WalksStarted {
		t.Errorf("walks not elided: %d with victima vs %d baseline",
			res.Total.WalksStarted, base.Total.WalksStarted)
	}
	if res.Energy.MechJ <= 0 {
		t.Error("victima reported no tag-store energy")
	}
}

// TestRevelatorEngages requires the revelator mechanism to issue
// speculative prefetches that its verification walks confirm
// (spec_hits > 0) and that demand accesses consume (spec_useful > 0)
// on a locality-heavy config.
func TestRevelatorEngages(t *testing.T) {
	cfg := quickCfg("xsbench", 60_000)
	cfg.Mech = "revelator"
	res := run(t, cfg)

	c := res.MechCounters
	if c[translation.MetricRevelatorSpecHits] == 0 {
		t.Fatalf("revelator never verified a speculation: %v", c)
	}
	if c[translation.MetricRevelatorSpecUseful] == 0 {
		t.Errorf("no speculative prefetch was ever consumed: %v", c)
	}
	if c[translation.MetricRevelatorSpecHits]+c[translation.MetricRevelatorSpecMisses] != c[translation.MetricRevelatorPredictions] {
		t.Errorf("verdict partition broken: %v", c)
	}
	if c[translation.MetricRevelatorSpecPrefetches] > c[translation.MetricRevelatorPredictions] {
		t.Errorf("more prefetches than predictions: %v", c)
	}
	// Revelator never elides the walk — walk counts match the baseline.
	base := run(t, quickCfg("xsbench", 60_000))
	if res.Total.WalksStarted != base.Total.WalksStarted {
		t.Errorf("revelator changed walk count: %d vs %d",
			res.Total.WalksStarted, base.Total.WalksStarted)
	}
	if res.Energy.MechJ <= 0 {
		t.Error("revelator reported no table energy")
	}
}

// TestRivalRejectsTempo pins the exclusivity law: one translation
// mechanism per run, so a rival under Config.Tempo.Enabled is a
// configuration error, not a silent stack.
func TestRivalRejectsTempo(t *testing.T) {
	for _, mech := range []string{"victima", "revelator"} {
		cfg := quickCfg("xsbench", 1_000)
		cfg.Mech = mech
		cfg.Tempo = DefaultTempo()
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: rival stacked on TEMPO without error", mech)
		}
	}
}

// TestUnknownMechanismRejected pins the registry error path.
func TestUnknownMechanismRejected(t *testing.T) {
	cfg := quickCfg("xsbench", 1_000)
	cfg.Mech = "nosuch"
	if _, err := New(cfg); err == nil {
		t.Error("unknown mechanism accepted")
	}
}
