package sim

import (
	"math/rand"
	"testing"

	"repro/internal/dram"
	"repro/internal/obsv"
	"repro/internal/vm"
	"repro/internal/workload"
)

// randomConfig draws an arbitrary-but-valid configuration: any mix of
// workloads, page modes, schedulers, row policies, TEMPO/IMP switches,
// sub-row organisations, thread sharing and translation mechanisms.
func randomConfig(rng *rand.Rand) Config {
	all := workload.All()
	cfg := DefaultConfig(all[rng.Intn(len(all))])
	cfg.Records = 300 + rng.Intn(1200)
	cfg.Seed = rng.Int63n(1000) + 1

	cores := 1 + rng.Intn(3)
	cfg.Workloads = nil
	name := all[rng.Intn(len(all))]
	for i := 0; i < cores; i++ {
		if rng.Intn(2) == 0 { // heterogeneous mixes half the time
			name = all[rng.Intn(len(all))]
		}
		cfg.Workloads = append(cfg.Workloads, WorkloadSpec{
			Name: name, Footprint: 64 << 20, Seed: int64(i + 1),
		})
	}
	// Threads only make sense for homogeneous mixes.
	homo := true
	for _, w := range cfg.Workloads {
		if w.Name != cfg.Workloads[0].Name {
			homo = false
		}
	}
	cfg.SharedAddressSpace = homo && rng.Intn(2) == 0

	switch rng.Intn(4) {
	case 0:
		cfg.OS.Mode = vm.Mode4KOnly
	case 1:
		cfg.OS.Mode = vm.ModeTHP
		cfg.OS.MemhogFraction = []float64{0, 0.25, 0.5}[rng.Intn(3)]
	case 2:
		cfg.OS.Mode = vm.ModeHugetlbfs2M
		cfg.OS.ReserveFraction = 0.5
	case 3:
		cfg.OS.Mode = vm.ModeTHP
	}
	if rng.Intn(2) == 0 {
		cfg.Tempo = DefaultTempo()
		cfg.Tempo.LLCPrefetch = rng.Intn(4) != 0
		cfg.Tempo.SchedulerAware = rng.Intn(4) != 0
		cfg.Tempo.PTRowWait = uint64(rng.Intn(16))
	}
	cfg.IMP = rng.Intn(3) == 0
	if rng.Intn(2) == 0 {
		cfg.Scheduler = SchedBLISS
	}
	cfg.Machine.DRAM.Policy = dram.RowPolicy(rng.Intn(3))
	if rng.Intn(3) == 0 {
		cfg.SubRows = 8
		cfg.PrefetchSubRows = rng.Intn(3)
		cfg.SubRowPolicy = SubRowPolicyKind(rng.Intn(3))
	}
	// The rival mechanisms replace TEMPO, so they are drawn only with
	// it off.
	mechs := []string{"", "tempo"}
	if !cfg.Tempo.Enabled {
		mechs = append(mechs, "victima", "revelator")
	}
	cfg.Mech = mechs[rng.Intn(len(mechs))]
	return cfg
}

// checkInvariants asserts the properties every run must satisfy,
// whatever the configuration: the checks below, the per-core CPI
// stack law, and the obsv conservation audit over the totals merged
// with the mechanism's counters.
func checkInvariants(t *testing.T, cfg Config, res *Result) {
	t.Helper()
	var refs uint64
	for i, c := range res.Cores {
		refs += c.MemRefs
		if c.MemRefs != uint64(cfg.Records) {
			t.Errorf("core %d consumed %d of %d records", i, c.MemRefs, cfg.Records)
		}
		if c.TLBHits+c.TLBMisses != c.MemRefs {
			t.Errorf("core %d: TLB lookups %d != refs %d", i, c.TLBHits+c.TLBMisses, c.MemRefs)
		}
		// A mechanism that resolves a miss itself (victima's cached
		// PTE) elides its walk. IMP issues background walks for its
		// prefetch targets, so walks can exceed demand TLB misses only
		// when IMP is on.
		walks := c.WalksStarted + c.CPIMechElided
		if !cfg.IMP && walks != c.TLBMisses {
			t.Errorf("core %d: walks %d + elided %d != TLB misses %d", i, c.WalksStarted, c.CPIMechElided, c.TLBMisses)
		}
		if walks < c.TLBMisses {
			t.Errorf("core %d: walks %d + elided %d < TLB misses %d", i, c.WalksStarted, c.CPIMechElided, c.TLBMisses)
		}
		if c.Cycles == 0 {
			t.Errorf("core %d: zero cycles", i)
		}
	}
	st := &res.Total
	if st.PTWDRAMCycles+st.ReplayDRAMCycles+st.OtherDRAMCycles > st.Cycles*uint64(len(res.Cores)) {
		t.Error("attributed more cycles than exist across all cores")
	}
	if !cfg.Tempo.Enabled && (st.TempoPrefetches != 0 || st.TempoLLCFills != 0) {
		t.Error("TEMPO activity while disabled")
	}
	if cfg.Tempo.Enabled && !cfg.Tempo.LLCPrefetch && st.TempoLLCFills != 0 {
		t.Error("LLC fills in row-buffer-only mode")
	}
	if st.TempoPrefetches+st.TempoSuppressed != st.TempoTriggers {
		t.Errorf("trigger accounting: %d + %d != %d",
			st.TempoPrefetches, st.TempoSuppressed, st.TempoTriggers)
	}
	if !cfg.IMP && st.IMPPrefetches != 0 {
		t.Error("IMP activity while disabled")
	}
	// Every leaf-PT DRAM access triggers the engine exactly once.
	if cfg.Tempo.Enabled && st.TempoTriggers != res.Mem.DRAMPTWLeaf {
		t.Errorf("triggers %d != leaf PT DRAM refs %d", st.TempoTriggers, res.Mem.DRAMPTWLeaf)
	}
	// Row outcome counts match category counts.
	for c := 0; c < 4; c++ {
		var sum uint64
		for o := 0; o < 3; o++ {
			sum += res.Mem.DRAMOutcomes[c][o]
		}
		if sum != res.Mem.DRAMRefs[c] {
			t.Errorf("category %d: outcomes %d != refs %d", c, sum, res.Mem.DRAMRefs[c])
		}
	}
	for i, f := range res.Superpage {
		if f < 0 || f > 1 {
			t.Errorf("core %d coverage %v out of range", i, f)
		}
	}
	if res.Energy.Total() <= 0 {
		t.Error("non-positive energy")
	}
	snap := obsv.StatsSnapshot(checkCPI(t, "mech="+cfg.Mech, res))
	for name, v := range res.MechCounters {
		snap.Counters[name] = v
	}
	if v := obsv.Audit(snap); len(v) > 0 {
		t.Errorf("audit violations: %v", v)
	}
}

// TestFuzzConfigurations runs dozens of random configurations and
// checks the cross-cutting invariants plus determinism on a sample.
func TestFuzzConfigurations(t *testing.T) {
	rng := rand.New(rand.NewSource(20260704))
	n := 40
	if testing.Short() {
		n = 8
	}
	for i := 0; i < n; i++ {
		cfg := randomConfig(rng)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("config %d (%+v): %v", i, cfg.Workloads, err)
		}
		checkInvariants(t, cfg, res)
		if i%10 == 0 {
			again, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if again.Total.Cycles != res.Total.Cycles ||
				again.Total.DRAMRefs != res.Total.DRAMRefs {
				t.Fatalf("config %d nondeterministic", i)
			}
		}
	}
}
