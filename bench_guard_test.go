package tempo

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// hotPathRun executes cfg and returns the process's exact
// heap-allocation count delta and the wall time.
func hotPathRun(t *testing.T, cfg Config) (allocs uint64, elapsed time.Duration) {
	t.Helper()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, elapsed
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
//
// With BENCH_ASSERT=1 it additionally checks throughput against the
// pinned BENCH_hotpath.json numbers (within 5%). That comparison only
// makes sense on the machine that generated the JSON (scripts/bench.sh
// regenerates it), so it is opt-in rather than a default CI gate.
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
	var el2 time.Duration // the single-core long run, for BENCH_ASSERT
	for i, tc := range cases {
		c1, c2 := tc.cfg(tc.n1), tc.cfg(tc.n2)
		a1, _ := hotPathRun(t, c1)
		a2, el := hotPathRun(t, c2)
		if i == 0 {
			el2 = el
		}
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

	if os.Getenv("BENCH_ASSERT") != "1" {
		t.Log("set BENCH_ASSERT=1 to also check throughput against BENCH_hotpath.json")
		return
	}
	raw, err := os.ReadFile("BENCH_hotpath.json")
	if err != nil {
		t.Fatalf("BENCH_ASSERT=1 but no baseline: %v", err)
	}
	var doc struct {
		Xsbench struct {
			After struct {
				RecordsPerSec float64 `json:"records_per_sec"`
			} `json:"after"`
		} `json:"xsbench_tempo"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("BENCH_hotpath.json: %v", err)
	}
	pinned := doc.Xsbench.After.RecordsPerSec
	measured := float64(cases[0].n2) / el2.Seconds()
	if measured < 0.95*pinned {
		t.Errorf("hot-path throughput %.0f records/s is more than 5%% below the pinned %.0f (regenerate with scripts/bench.sh if the machine changed)",
			measured, pinned)
	}
}
