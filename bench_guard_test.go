package tempo

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// hotPathRun executes cfg and returns the process's exact
// heap-allocation count delta.
func hotPathRun(t *testing.T, cfg Config) uint64 {
	t.Helper()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// TestHotPathStaysAllocationFree is the observability layer's
// zero-overhead-when-disabled guard: with no Observer attached the
// steady-state per-record path must stay at ~0 allocations. System
// construction allocates plenty, so a single run can't isolate the
// per-record cost; instead two runs at different record counts give a
// two-point fit — (allocs(n2) - allocs(n1)) over the records between
// them, counted across all cores — in which the (equal) construction
// cost cancels. The configurations are BenchmarkHotPathTempo's and
// BenchmarkHotPathMultiTempo's, the latter also with 8 sub-rows (2 for
// prefetches) under each sub-row allocation policy: its shared DRAM
// queue is where drained serves and per-serve sub-row sets are made.
// Two more cover the record paths with core-side work: victima's
// CoreHooks (MECHANISMS.md §1.2 requires them allocation-free) and
// IMP's lookahead, background walks and prefetches.
// Run lengths keep the race-detector build within a few seconds a
// configuration while leaving each fit 100k+ records apart.
func TestHotPathStaysAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("hot-path guard runs 900k records; skipped in -short")
	}
	single := func(records int) Config {
		cfg := DefaultConfig("xsbench")
		cfg.Workloads[0].Footprint = 256 << 20
		cfg.Tempo = DefaultTempo()
		cfg.Records = records
		return cfg
	}
	victima := func(records int) Config {
		cfg := DefaultConfig("xsbench")
		cfg.Workloads[0].Footprint = 256 << 20
		cfg.Mech = "victima"
		cfg.Records = records
		return cfg
	}
	imp := func(records int) Config {
		cfg := DefaultConfig("spmv")
		cfg.Workloads[0].Footprint = 256 << 20
		cfg.IMP = true
		cfg.Records = records
		return cfg
	}
	subRows := func(policy sim.SubRowPolicyKind) func(int) Config {
		return func(records int) Config {
			cfg := multiTempoConfig(records)
			cfg.SubRows, cfg.PrefetchSubRows, cfg.SubRowPolicy = 8, 2, policy
			return cfg
		}
	}
	cases := []struct {
		name   string
		cfg    func(records int) Config
		n1, n2 int // records per core
	}{
		{"xsbench-tempo", single, 50_000, 250_000},
		{"4core-shared-tempo", multiTempoConfig, 10_000, 40_000},
		{"4core-shared-tempo-foa", subRows(SubRowFOA), 10_000, 40_000},
		{"4core-shared-tempo-poa", subRows(SubRowPOA), 10_000, 40_000},
		{"xsbench-victima", victima, 50_000, 250_000},
		{"spmv-imp", imp, 50_000, 250_000},
	}
	for _, tc := range cases {
		c1, c2 := tc.cfg(tc.n1), tc.cfg(tc.n2)
		a1, a2 := hotPathRun(t, c1), hotPathRun(t, c2)
		records := (tc.n2 - tc.n1) * len(c2.Workloads)
		perRecord := (float64(a2) - float64(a1)) / float64(records)
		// Allow a whisper of noise (GC bookkeeping, map growth in stats):
		// the budget is well under one allocation per hundred records.
		if perRecord > 0.01 {
			t.Errorf("%s: hot path allocates %.4f allocs/record with instrumentation disabled (runs: %d allocs @%d records/core, %d @%d); want ~0",
				tc.name, perRecord, a1, tc.n1, a2, tc.n2)
		} else {
			t.Logf("%s: %.4f allocs/record", tc.name, perRecord)
		}
	}
}
