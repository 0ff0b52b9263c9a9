package sim

import (
	"testing"

	"repro/internal/obsv"
	"repro/internal/stats"
	"repro/internal/vm"
)

// checkCPI asserts the cpi-stack-sums-to-cycles conservation law and
// the credit bounds on every core of res, returning the merged total
// for further checks.
func checkCPI(t *testing.T, name string, res *Result) *stats.Stats {
	t.Helper()
	for i := range res.Cores {
		c := &res.Cores[i]
		if c.CPICycles != c.Cycles {
			t.Errorf("%s: core %d: CPICycles %d != Cycles %d", name, i, c.CPICycles, c.Cycles)
		}
		if attr := c.CPIAttributed(); attr != c.CPICycles {
			t.Errorf("%s: core %d: attributed %d != cycles %d (diff %+d)",
				name, i, attr, c.CPICycles, int64(attr)-int64(c.CPICycles))
		}
		if c.CPIHiddenByPrefetch > c.TLBMisses {
			t.Errorf("%s: core %d: %d hidden-by-prefetch credits > %d TLB misses",
				name, i, c.CPIHiddenByPrefetch, c.TLBMisses)
		}
		if c.CPIMechElided > c.TLBMisses {
			t.Errorf("%s: core %d: %d mech-elided credits > %d TLB misses",
				name, i, c.CPIMechElided, c.TLBMisses)
		}
	}
	return &res.Total
}

// localCfg builds a multi-core run whose cores stay awake together:
// blackscholes.small alternates L1/L2 streaks with DRAM misses, and
// the misses keep the cores' clocks close, so the coordinator's
// run-ahead batches are cut short against each other's clocks.
func localCfg(cores int) Config {
	cfg := DefaultConfig("blackscholes.small")
	cfg.Records = 100_000
	cfg.Seed = 7
	cfg.OS.Mode = vm.ModeTHP
	cfg.Workloads = nil
	for i := 0; i < cores; i++ {
		cfg.Workloads = append(cfg.Workloads, WorkloadSpec{
			Name: "blackscholes.small", Footprint: 4 << 20, Seed: int64(i + 1),
		})
	}
	return cfg
}

// TestCPIStackConservation is the keystone law checked end to end: on
// every simulator configuration — baseline, TEMPO, IMP, each
// translation mechanism, multi-core — each core's CPI-stack buckets
// must sum exactly to its cycle count, and the merged total must pass
// the obsv audit.
func TestCPIStackConservation(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"baseline", func() Config { return quickCfg("xsbench", 20_000) }},
		{"tempo", func() Config {
			cfg := quickCfg("xsbench", 20_000)
			cfg.Tempo = DefaultTempo()
			return cfg
		}},
		{"imp", func() Config {
			cfg := quickCfg("graph500", 15_000)
			cfg.IMP = true
			return cfg
		}},
		{"mech-tempo", func() Config {
			cfg := quickCfg("xsbench", 15_000)
			cfg.Mech = "tempo"
			return cfg
		}},
		{"mech-victima", func() Config {
			cfg := quickCfg("xsbench", 15_000)
			cfg.Mech = "victima"
			return cfg
		}},
		{"mech-revelator", func() Config {
			cfg := quickCfg("xsbench", 15_000)
			cfg.Mech = "revelator"
			return cfg
		}},
		{"multicore", func() Config {
			cfg := localCfg(3)
			cfg.Records = 20_000
			return cfg
		}},
		{"multicore-workers", func() Config {
			cfg := localCfg(4)
			cfg.Records = 40_000
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := run(t, tc.cfg())
			total := checkCPI(t, tc.name, res)
			// Merged totals carry the summed stack against the summed
			// CPICycles denominator — what the audit's snapshot law sees.
			if attr := total.CPIAttributed(); attr != total.CPICycles {
				t.Errorf("total: attributed %d != CPICycles %d", attr, total.CPICycles)
			}
			if total.CPIStack[stats.CPICompute] == 0 {
				t.Error("no compute cycles attributed")
			}
			if total.CPIStack[stats.CPIDataL1] == 0 {
				t.Error("no L1 cycles attributed")
			}
			// Mech runs need their mechanism counters merged in (as
			// report.AuditAll does) or the prefetch-accounting laws
			// misfire on speculative DRAM traffic.
			snap := obsv.StatsSnapshot(total)
			for name, v := range res.MechCounters {
				snap.Counters[name] = v
			}
			if v := obsv.Audit(snap); len(v) > 0 {
				t.Errorf("audit violations: %v", v)
			}
		})
	}
}

// TestCPIStackPopulatesWalkBuckets checks the TLB-thrashing workload
// lands cycles in every translation bucket the paper's CPI figure
// plots: walk overhead, PTE reads split cache/DRAM, and DRAM stall
// decomposition including queue time.
func TestCPIStackPopulatesWalkBuckets(t *testing.T) {
	res := run(t, quickCfg("xsbench", 20_000))
	st := &res.Total
	for _, b := range []stats.CPIBucket{
		stats.CPITLBL2, stats.CPIWalkMMU, stats.CPIWalkPTECache,
		stats.CPIWalkPTEDRAM, stats.CPIDataLLC,
		stats.CPIDataDRAMQueue, stats.CPIDataDRAMService,
	} {
		if st.CPIStack[b] == 0 {
			t.Errorf("bucket %v empty on a TLB-thrashing run", b)
		}
	}
	// xsbench misses the TLB constantly; translation overhead must be a
	// visible slice, not rounding noise.
	walk := st.CPIStack[stats.CPIWalkMMU] + st.CPIStack[stats.CPIWalkPTECache] +
		st.CPIStack[stats.CPIWalkPTEDRAM]
	if frac := float64(walk) / float64(st.CPICycles); frac < 0.01 {
		t.Errorf("translation slice %.4f of cycles; expected a visible overhead", frac)
	}
}

// TestCPIHiddenByPrefetchEngages checks the credit counter fires where
// the paper says TEMPO pays off: post-walk replays served from
// prefetched LLC lines.
func TestCPIHiddenByPrefetchEngages(t *testing.T) {
	cfg := quickCfg("xsbench", 20_000)
	cfg.Tempo = DefaultTempo()
	res := run(t, cfg)
	if res.Total.CPIHiddenByPrefetch == 0 {
		t.Error("TEMPO run hid no replays: credit counter never fired")
	}
	if res.Total.CPIHiddenByPrefetch > res.Total.TempoUseful+res.Total.IMPUseful {
		t.Errorf("hidden credits %d exceed useful prefetches %d",
			res.Total.CPIHiddenByPrefetch, res.Total.TempoUseful+res.Total.IMPUseful)
	}
}

// TestCPIMechElidedEngages checks victima's mechanism-resolved
// translations are credited (and bounded by its PTE hits).
func TestCPIMechElidedEngages(t *testing.T) {
	cfg := quickCfg("xsbench", 15_000)
	cfg.Mech = "victima"
	res := run(t, cfg)
	if res.Total.CPIMechElided == 0 {
		t.Error("victima run elided no walks: credit counter never fired")
	}
	if hits := res.MechCounters[obsv.MetricMechVictimaPTEHits]; res.Total.CPIMechElided != hits {
		t.Errorf("elided credits %d != victima PTE hits %d", res.Total.CPIMechElided, hits)
	}
}

// Figure 1's runtime fractions are read off the CPI stack, whose
// stall cycles are summed over cores, so on a multi-core run they
// share its per-core-sum denominator: each is at most 1, and together
// they are at most 1, since every stall cycle is one core's cycle.
func TestRuntimeFractionsMultiCore(t *testing.T) {
	cfg := quickCfg("xsbench", 20_000)
	cfg.Tempo = DefaultTempo()
	cfg.SharedAddressSpace = true
	cfg.Workloads = nil
	for i := 0; i < 4; i++ {
		cfg.Workloads = append(cfg.Workloads, WorkloadSpec{Name: "xsbench", Footprint: 512 << 20, Seed: int64(i + 1)})
	}
	st := checkCPI(t, "4-core xsbench", run(t, cfg))
	var sum float64
	for _, c := range []stats.DRAMCategory{stats.DRAMPTW, stats.DRAMReplay, stats.DRAMOther} {
		f := st.RuntimeFraction(c)
		if f > 1 {
			t.Errorf("%v runtime fraction %.3f > 1", c, f)
		}
		sum += f
	}
	if sum > 1 || sum == 0 {
		t.Errorf("runtime fractions sum to %.3f, want (0, 1]", sum)
	}
}
