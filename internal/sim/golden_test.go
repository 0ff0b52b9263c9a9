package sim

import (
	"maps"
	"testing"

	"repro/internal/stats"
	"repro/internal/vm"
)

// TestGoldenRun pins the exact counters of one small TEMPO run. It is
// a change detector: any edit that alters simulated behaviour — even
// through incidental iteration-order or timing changes — must show up
// here and be acknowledged by updating the constants. Pure refactors
// must not move them.
func TestGoldenRun(t *testing.T) {
	cfg := DefaultConfig("xsbench")
	cfg.Records = 5_000
	cfg.Workloads[0].Footprint = 128 << 20
	cfg.Tempo = DefaultTempo()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := &res.Total
	golden := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"Cycles", st.Cycles, 765180},
		{"Instructions", st.Instructions, 16879},
		{"TLBMisses", st.TLBMisses, 1277},
		{"WalksStarted", st.WalksStarted, 1277},
		{"WalkDRAMTouched", st.WalkDRAMTouched, 923},
		{"ReplayDRAMRefs", st.DRAMRefs[stats.DRAMReplay], 442},
		{"TempoPrefetches", st.TempoPrefetches, 923},
		{"TempoLLCFills", st.TempoLLCFills, 835},
		{"ActCount", st.ActCount, 3560},
		{"RefCount", st.RefCount, 60},
	}
	for _, g := range golden {
		if g.got != g.want {
			t.Errorf("%s = %d, want %d (behavioural change — verify and update)", g.name, g.got, g.want)
		}
	}
}

// schedulerFixture pins one run's full counter set. Those of
// TestSchedulerEquivalenceGolden were captured from the
// goroutine-coroutine coordinator that the inline state machine
// replaced. The state machine must reproduce the old scheduler's
// interleaving decision-for-decision, so every counter — including the
// interleaving-sensitive DRAM ones — must match exactly.
type schedulerFixture struct {
	name string
	cfg  func() Config
	// Total-stats expectations, in a fixed order (see checkFixture).
	total []uint64
	// Per-core (Cycles, Instructions, TLBMisses) triples.
	cores [][3]uint64
	// elided is Total.CPIMechElided and mech is Result.MechCounters
	// (nil for runs that name no mechanism).
	elided uint64
	mech   map[string]uint64
}

func checkFixture(t *testing.T, fx schedulerFixture) {
	t.Helper()
	res, err := Run(fx.cfg())
	if err != nil {
		t.Fatal(err)
	}
	st := &res.Total
	got := []uint64{
		st.Cycles, st.Instructions, st.MemRefs, st.TLBHits, st.TLBMisses,
		st.WalksStarted, st.WalkDRAMTouched, st.MMUCacheHits, st.MMUCacheMisses,
		st.L1Hits, st.L2Hits, st.LLCHits, st.LLCMisses,
		st.DRAMRefs[stats.DRAMPTW], st.DRAMRefs[stats.DRAMReplay],
		st.DRAMRefs[stats.DRAMOther], st.DRAMRefs[stats.DRAMPrefetch],
		st.TempoTriggers, st.TempoPrefetches, st.TempoLLCFills, st.TempoUseful,
		st.IMPPrefetches, st.IMPUseful, st.ActCount, st.RefCount, st.RdCount,
		st.ReplayDRAMCycles, st.DRAMStallCycles(stats.DRAMOther), st.DRAMStallCycles(stats.DRAMPTW),
		st.WalkDRAMThenReplayDRAM,
		st.ReplayServiced[0], st.ReplayServiced[1], st.ReplayServiced[2],
	}
	labels := []string{
		"Cycles", "Instructions", "MemRefs", "TLBHits", "TLBMisses",
		"WalksStarted", "WalkDRAMTouched", "MMUCacheHits", "MMUCacheMisses",
		"L1Hits", "L2Hits", "LLCHits", "LLCMisses",
		"DRAMRefsPTW", "DRAMRefsReplay", "DRAMRefsOther", "DRAMRefsPrefetch",
		"TempoTriggers", "TempoPrefetches", "TempoLLCFills", "TempoUseful",
		"IMPPrefetches", "IMPUseful", "ActCount", "RefCount", "RdCount",
		"ReplayDRAMCycles", "DRAMStallCycles(other)", "DRAMStallCycles(PTW)",
		"WalkDRAMThenReplayDRAM",
		"ReplayLLC", "ReplayRowBuffer", "ReplayDRAMArray",
	}
	for i, want := range fx.total {
		if got[i] != want {
			t.Errorf("%s: %s = %d, want %d (behavioural change — verify and update)", fx.name, labels[i], got[i], want)
		}
	}
	if len(res.Cores) != len(fx.cores) {
		t.Fatalf("%s: %d cores, want %d", fx.name, len(res.Cores), len(fx.cores))
	}
	for i, want := range fx.cores {
		c := &res.Cores[i]
		if c.Cycles != want[0] || c.Instructions != want[1] || c.TLBMisses != want[2] {
			t.Errorf("%s: core %d = (%d,%d,%d), want (%d,%d,%d)",
				fx.name, i, c.Cycles, c.Instructions, c.TLBMisses, want[0], want[1], want[2])
		}
	}
	if st.CPIMechElided != fx.elided {
		t.Errorf("%s: CPIMechElided = %d, want %d", fx.name, st.CPIMechElided, fx.elided)
	}
	if !maps.Equal(res.MechCounters, fx.mech) {
		t.Errorf("%s: MechCounters = %v, want %v", fx.name, res.MechCounters, fx.mech)
	}
}

// impMixConfig is a multiprogrammed IMP mix: two cores with private
// address spaces, each issuing background walks and prefetch trains.
func impMixConfig() Config {
	cfg := DefaultConfig("spmv")
	cfg.Records = 2_000
	cfg.Workloads = []WorkloadSpec{
		{Name: "spmv", Footprint: 96 << 20, Seed: 1},
		{Name: "graph500", Footprint: 96 << 20, Seed: 2},
	}
	cfg.IMP = true
	return cfg
}

// TestSchedulerEquivalenceGolden asserts that the inline state-machine
// coordinator produces bit-identical results to the goroutine-per-core
// coordinator it replaced. The expectations below were captured by
// running these exact configurations on the channel-based scheduler
// before the rewrite; the three fixtures stress the interleavings that
// could diverge: multi-core shared-AS contention under BLISS, a
// multiprogrammed IMP mix (background walks and prefetch trains), and
// sub-row allocation with TEMPO replay drains.
func TestSchedulerEquivalenceGolden(t *testing.T) {
	fixtures := []schedulerFixture{
		{
			name: "4core-xsbench-tempo-bliss",
			cfg: func() Config {
				cfg := DefaultConfig("xsbench")
				cfg.Records = 2_000
				cfg.Workloads = nil
				for i := 0; i < 4; i++ {
					cfg.Workloads = append(cfg.Workloads,
						WorkloadSpec{Name: "xsbench", Footprint: 128 << 20, Seed: int64(i + 1)})
				}
				cfg.SharedAddressSpace = true
				cfg.Tempo = DefaultTempo()
				cfg.Scheduler = SchedBLISS
				return cfg
			},
			total: []uint64{
				408310, 27000, 8000, 5904, 2096,
				2096, 1187, 2092, 4,
				889, 176, 1475, 7797,
				1201, 1199, 5397, 1187,
				1187, 1187, 1109, 893,
				0, 0, 5189, 32, 8984,
				238968, 465886, 298043,
				1186,
				893, 265, 29,
			},
			cores: [][3]uint64{
				{399460, 6750, 520},
				{408310, 6750, 537},
				{405684, 6750, 528},
				{394301, 6750, 511},
			},
		},
		{
			name: "2core-spmv-graph500-imp",
			cfg:  impMixConfig,
			total: []uint64{
				212798, 10544, 4000, 3406, 594,
				594, 411, 592, 2,
				2348, 49, 895, 1334,
				418, 594, 322, 906,
				0, 0, 0, 0,
				906, 895, 2067, 16, 2240,
				95884, 22636, 73090,
				411,
				0, 95, 316,
			},
			cores: [][3]uint64{
				{141443, 5387, 205},
				{212798, 5157, 389},
			},
		},
		{
			name: "1core-mcf-tempo-subrows-foa",
			cfg: func() Config {
				cfg := DefaultConfig("mcf")
				cfg.Records = 2_000
				cfg.Workloads[0].Footprint = 96 << 20
				cfg.Tempo = DefaultTempo()
				cfg.OS.Mode = vm.Mode4KOnly
				cfg.SubRows = 4
				cfg.PrefetchSubRows = 1
				cfg.SubRowPolicy = SubRowFOA
				return cfg
			},
			total: []uint64{
				406676, 9343, 2000, 1145, 855,
				855, 743, 854, 1,
				429, 71, 457, 2178,
				751, 398, 1029, 743,
				743, 743, 457, 457,
				0, 0, 1647, 32, 2921,
				51014, 46234, 112874,
				743,
				457, 286, 0,
			},
			cores: [][3]uint64{
				{406676, 9343, 855},
			},
		},
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) { checkFixture(t, fx) })
	}
}

// TestRivalMechanismGolden pins one victima and one revelator run: the
// record paths through CoreHooks, where OnTLBMiss may answer a miss
// from an on-chip PTE line (victima) or issue a speculative prefetch
// (revelator) before the walk starts. Like the fixtures above, the
// expectations are a change detector for the core's record kernel.
func TestRivalMechanismGolden(t *testing.T) {
	rival := func(mech string) func() Config {
		return func() Config {
			cfg := quickCfg("xsbench", 60_000)
			cfg.Mech = mech
			return cfg
		}
	}
	fixtures := []schedulerFixture{
		{
			name: "xsbench-victima",
			cfg:  rival("victima"),
			total: []uint64{
				9045159, 202500, 60000, 46471, 13529,
				12435, 3302, 12434, 1,
				8302, 2794, 7948, 59189,
				3309, 12400, 43480, 0,
				0, 0, 0, 0,
				0, 0, 36381, 722, 59189,
				1890059, 2393518, 513074,
				3302,
				0, 19, 3283,
			},
			cores:  [][3]uint64{{9045159, 202500, 13529}},
			elided: 1094,
			mech: map[string]uint64{
				"mech/victima/inserts":      12435,
				"mech/victima/line_evicted": 0,
				"mech/victima/lookups":      13529,
				"mech/victima/pte_hits":     1094,
				"mech/victima/pte_misses":   12435,
			},
		},
		{
			name: "xsbench-revelator",
			cfg:  rival("revelator"),
			total: []uint64{
				8999261, 202500, 60000, 46471, 13529,
				13529, 3302, 13528, 1,
				8755, 2734, 9527, 57616,
				3309, 11893, 42414, 1827,
				0, 0, 0, 0,
				0, 0, 36403, 718, 59443,
				1826353, 2311326, 512592,
				3301,
				1, 20, 3281,
			},
			cores: [][3]uint64{{8999261, 202500, 13529}},
			mech: map[string]uint64{
				"mech/revelator/predictions":     1870,
				"mech/revelator/spec_hits":       1870,
				"mech/revelator/spec_misses":     0,
				"mech/revelator/spec_prefetches": 1827,
				"mech/revelator/spec_useful":     1573,
			},
		},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) { checkFixture(t, fx) })
	}
}
