package sim

import (
	"sync"
	"testing"
)

// raceCfg builds a small config for concurrency tests.
func raceCfg(wl string, seed int64) Config {
	cfg := DefaultConfig(wl)
	cfg.Records = 3_000
	cfg.Workloads[0].Footprint = 96 << 20
	cfg.Seed = seed
	if seed%2 == 0 {
		cfg.Tempo = DefaultTempo()
	}
	return cfg
}

// TestConcurrentRunsAreIndependent drives several simulations
// concurrently (run under `go test -race` in CI) and checks each
// produces exactly the result of a serial run: Run must share no
// mutable state between systems — no package-level math/rand, no
// shared counters — because the experiment runner fans sims out
// across GOMAXPROCS workers. The multi-core input puts the shared
// LLC, controller and address space of one system under the same
// check.
func TestConcurrentRunsAreIndependent(t *testing.T) {
	threads := raceCfg("xsbench", 2)
	threads.Workloads = nil
	for i := 0; i < 4; i++ {
		threads.Workloads = append(threads.Workloads, WorkloadSpec{
			Name: "xsbench", Footprint: 96 << 20, Seed: int64(i + 1),
		})
	}
	threads.SharedAddressSpace = true
	cfgs := []Config{
		raceCfg("xsbench", 1),
		raceCfg("xsbench", 2),
		raceCfg("mcf", 1),
		raceCfg("graph500", 2),
		threads,
	}
	// Serial reference results.
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("serial %d: %v", i, err)
		}
		want[i] = res
	}
	// The same configs, all in flight at once (twice each, so
	// identical configs also race against themselves).
	var wg sync.WaitGroup
	errs := make([]error, 2*len(cfgs))
	got := make([]*Result, 2*len(cfgs))
	for rep := 0; rep < 2; rep++ {
		for i, cfg := range cfgs {
			wg.Add(1)
			go func(slot int, cfg Config) {
				defer wg.Done()
				got[slot], errs[slot] = Run(cfg)
			}(rep*len(cfgs)+i, cfg)
		}
	}
	wg.Wait()
	for slot, err := range errs {
		if err != nil {
			t.Fatalf("concurrent %d: %v", slot, err)
		}
	}
	for slot, res := range got {
		ref := want[slot%len(cfgs)]
		if res.Total != ref.Total {
			t.Errorf("concurrent run %d diverged from serial (cycles %d vs %d)",
				slot, res.Total.Cycles, ref.Total.Cycles)
		}
		if len(res.Cores) != len(ref.Cores) {
			t.Fatalf("concurrent run %d core count %d vs %d", slot, len(res.Cores), len(ref.Cores))
		}
		for c := range res.Cores {
			if res.Cores[c] != ref.Cores[c] {
				t.Errorf("concurrent run %d core %d stats diverged", slot, c)
			}
		}
	}
}
