package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/vm"
)

// quickCfg returns a fast single-core configuration.
func quickCfg(wl string, records int) Config {
	cfg := DefaultConfig(wl)
	cfg.Records = records
	// Shrink footprints so tests run in milliseconds while keeping
	// footprint >> TLB reach and LLC.
	cfg.Workloads[0].Footprint = 256 << 20
	return cfg
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunBasicInvariants(t *testing.T) {
	cfg := quickCfg("xsbench", 20_000)
	res := run(t, cfg)
	st := &res.Total
	if st.MemRefs != 20_000 {
		t.Errorf("MemRefs = %d", st.MemRefs)
	}
	if st.Cycles == 0 || st.Instructions == 0 {
		t.Error("no cycles/instructions recorded")
	}
	if st.TLBMisses == 0 {
		t.Error("xsbench must thrash the TLB")
	}
	if st.DRAMRefs[stats.DRAMPTW] == 0 || st.DRAMRefs[stats.DRAMOther] == 0 {
		t.Errorf("DRAM categories empty: %v", st.DRAMRefs)
	}
	// Runtime attribution must not exceed total runtime.
	attr := st.DRAMStallCycles(stats.DRAMPTW) + st.DRAMStallCycles(stats.DRAMReplay) +
		st.DRAMStallCycles(stats.DRAMOther)
	if attr > st.Cycles {
		t.Errorf("attributed %d > total %d cycles", attr, st.Cycles)
	}
	// Baseline run must not touch TEMPO counters.
	if st.TempoPrefetches != 0 || st.TempoLLCFills != 0 {
		t.Error("TEMPO counters nonzero in baseline run")
	}
	if res.Energy.Total() <= 0 {
		t.Error("energy must be positive")
	}
}

func TestLeafPTWDominatesAndReplaysFollow(t *testing.T) {
	res := run(t, quickCfg("xsbench", 30_000))
	st := &res.Total
	// Paper: 96%+ of DRAM PTW refs are leaf-level; 98%+ of DRAM leaf
	// walks are followed by DRAM replays. Allow slack at test scale.
	if f := st.LeafPTWFraction(); f < 0.90 {
		t.Errorf("leaf PTW fraction = %.3f, want >= 0.90", f)
	}
	if f := st.ReplayAfterPTWFraction(); f < 0.90 {
		t.Errorf("replay-after-PTW fraction = %.3f, want >= 0.90", f)
	}
}

func TestTempoImprovesBigWorkload(t *testing.T) {
	base := run(t, quickCfg("xsbench", 30_000))
	cfgT := quickCfg("xsbench", 30_000)
	cfgT.Tempo = DefaultTempo()
	tempo := run(t, cfgT)

	if tempo.Mem.TempoPrefetches == 0 {
		t.Fatal("TEMPO never prefetched")
	}
	if tempo.Total.Cycles >= base.Total.Cycles {
		t.Errorf("TEMPO run slower: %d vs %d cycles", tempo.Total.Cycles, base.Total.Cycles)
	}
	imp := 1 - float64(tempo.Total.Cycles)/float64(base.Total.Cycles)
	if imp < 0.03 {
		t.Errorf("TEMPO improvement only %.1f%%", imp*100)
	}
	// Replays should now be served mostly by the LLC or row buffer.
	llc := tempo.Total.ReplayServiceFraction(stats.ReplayLLC)
	rb := tempo.Total.ReplayServiceFraction(stats.ReplayRowBuffer)
	if llc+rb < 0.7 {
		t.Errorf("TEMPO rescued only %.2f of replays (LLC %.2f, RB %.2f)", llc+rb, llc, rb)
	}
	if tempo.Mem.TempoLLCFills == 0 || tempo.Total.TempoUseful == 0 {
		t.Error("LLC fills / usefulness not recorded")
	}
}

func TestTempoRowBufferOnlyAblation(t *testing.T) {
	cfg := quickCfg("xsbench", 20_000)
	cfg.Tempo = DefaultTempo()
	cfg.Tempo.LLCPrefetch = false
	res := run(t, cfg)
	if res.Mem.TempoLLCFills != 0 {
		t.Error("row-buffer-only ablation must not fill the LLC")
	}
	if f := res.Total.ReplayServiceFraction(stats.ReplayRowBuffer); f < 0.5 {
		t.Errorf("row-buffer service fraction = %.2f, want most replays", f)
	}
}

func TestSmallWorkloadUnharmed(t *testing.T) {
	base := run(t, quickCfg("blackscholes.small", 20_000))
	cfgT := quickCfg("blackscholes.small", 20_000)
	cfgT.Tempo = DefaultTempo()
	tempo := run(t, cfgT)
	// TEMPO must not slow small-footprint workloads (paper: +1-2%).
	ratio := float64(tempo.Total.Cycles) / float64(base.Total.Cycles)
	if ratio > 1.01 {
		t.Errorf("TEMPO slowed a small workload by %.1f%%", (ratio-1)*100)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := run(t, quickCfg("graph500", 5_000))
	b := run(t, quickCfg("graph500", 5_000))
	if a.Total.Cycles != b.Total.Cycles || a.Total.DRAMRefs != b.Total.DRAMRefs {
		t.Errorf("identical configs diverged: %d vs %d cycles", a.Total.Cycles, b.Total.Cycles)
	}
	cfgT := quickCfg("graph500", 5_000)
	cfgT.Tempo = DefaultTempo()
	c := run(t, cfgT)
	d := run(t, cfgT)
	if c.Total.Cycles != d.Total.Cycles {
		t.Error("TEMPO runs nondeterministic")
	}
}

func TestMultiCoreSharedMemory(t *testing.T) {
	cfg := quickCfg("graph500", 4_000)
	cfg.Workloads = []WorkloadSpec{
		{Name: "graph500", Footprint: 128 << 20},
		{Name: "xsbench", Footprint: 128 << 20},
		{Name: "mcf", Footprint: 128 << 20},
		{Name: "canneal", Footprint: 128 << 20},
	}
	res := run(t, cfg)
	if len(res.Cores) != 4 {
		t.Fatalf("cores = %d", len(res.Cores))
	}
	for i, c := range res.Cores {
		if c.MemRefs != 4_000 {
			t.Errorf("core %d refs = %d", i, c.MemRefs)
		}
		if c.Cycles == 0 {
			t.Errorf("core %d never ran", i)
		}
	}
	// Total cycles is the slowest core.
	var maxC uint64
	for _, c := range res.Cores {
		if c.Cycles > maxC {
			maxC = c.Cycles
		}
	}
	if res.Total.Cycles != maxC {
		t.Errorf("Total.Cycles = %d, want max %d", res.Total.Cycles, maxC)
	}
}

func TestMultiCoreContentionSlowsCores(t *testing.T) {
	alone := run(t, quickCfg("xsbench", 6_000))
	cfg := quickCfg("xsbench", 6_000)
	cfg.Workloads = []WorkloadSpec{
		{Name: "xsbench", Footprint: 256 << 20},
		{Name: "xsbench", Footprint: 256 << 20, Seed: 99},
		{Name: "xsbench", Footprint: 256 << 20, Seed: 98},
		{Name: "xsbench", Footprint: 256 << 20, Seed: 97},
	}
	shared := run(t, cfg)
	if shared.Cores[0].Cycles <= alone.Cores[0].Cycles {
		t.Errorf("no contention: shared %d <= alone %d cycles",
			shared.Cores[0].Cycles, alone.Cores[0].Cycles)
	}
}

func TestBLISSSchedulerRuns(t *testing.T) {
	cfg := quickCfg("xsbench", 5_000)
	cfg.Workloads = []WorkloadSpec{
		{Name: "xsbench", Footprint: 128 << 20},
		{Name: "gcc.small"},
	}
	cfg.Scheduler = SchedBLISS
	cfg.Tempo = DefaultTempo()
	res := run(t, cfg)
	if res.Total.Cycles == 0 || res.Mem.TempoPrefetches == 0 {
		t.Error("BLISS+TEMPO run produced no activity")
	}
}

func TestSubRowConfigurations(t *testing.T) {
	for _, pol := range []SubRowPolicyKind{SubRowShared, SubRowFOA, SubRowPOA} {
		cfg := quickCfg("xsbench", 4_000)
		cfg.Workloads = append(cfg.Workloads, WorkloadSpec{Name: "mcf", Footprint: 128 << 20})
		cfg.SubRows = 8
		cfg.PrefetchSubRows = 2
		cfg.SubRowPolicy = pol
		cfg.Tempo = DefaultTempo()
		res := run(t, cfg)
		if res.Total.Cycles == 0 {
			t.Errorf("policy %d produced no run", pol)
		}
	}
}

func TestIMPGeneratesWalksAndPrefetches(t *testing.T) {
	cfg := quickCfg("spmv", 20_000)
	cfg.IMP = true
	res := run(t, cfg)
	if res.Total.IMPPrefetches == 0 {
		t.Fatal("IMP never prefetched on spmv")
	}
	if res.Total.IMPUseful == 0 {
		t.Error("IMP prefetches never useful on spmv")
	}
	if res.Mem.DRAMRefs[stats.DRAMPrefetch] == 0 {
		t.Error("IMP prefetch DRAM traffic missing")
	}
}

func TestRowPoliciesAllWork(t *testing.T) {
	for _, pol := range []struct {
		name string
		set  func(*Config)
	}{
		{"adaptive", func(c *Config) {}},
		{"open", func(c *Config) { c.Machine.DRAM.Policy = 1 }},
		{"closed", func(c *Config) { c.Machine.DRAM.Policy = 2 }},
	} {
		cfg := quickCfg("mcf", 5_000)
		pol.set(&cfg)
		base := run(t, cfg)
		cfgT := cfg
		cfgT.Tempo = DefaultTempo()
		tempo := run(t, cfgT)
		if tempo.Total.Cycles > base.Total.Cycles {
			t.Errorf("%s: TEMPO slower (%d vs %d)", pol.name, tempo.Total.Cycles, base.Total.Cycles)
		}
	}
}

func TestPageModesRun(t *testing.T) {
	for _, mode := range []vm.PageMode{vm.Mode4KOnly, vm.ModeTHP, vm.ModeHugetlbfs2M} {
		cfg := quickCfg("graph500", 5_000)
		cfg.OS.Mode = mode
		res := run(t, cfg)
		switch mode {
		case vm.Mode4KOnly:
			if res.Superpage[0] != 0 {
				t.Error("4K-only run has superpages")
			}
		case vm.ModeHugetlbfs2M:
			if res.Superpage[0] < 0.5 {
				t.Errorf("hugetlbfs coverage = %.2f", res.Superpage[0])
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config should fail")
	}
	cfg := DefaultConfig("xsbench")
	cfg.Records = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero records should fail")
	}
	cfg = DefaultConfig("nosuchworkload")
	cfg.Records = 10
	if _, err := Run(cfg); err == nil {
		t.Error("unknown workload should fail")
	}
}

// Physical memory is bounded by vm.MaxPhysFrames whether it is given
// explicitly or derived from the footprints, and an oversized machine
// is a configuration error rather than an allocation.
func TestPhysicalMemoryLimit(t *testing.T) {
	big := func(fps ...uint64) Config {
		cfg := quickCfg("xsbench", 10)
		cfg.Workloads = nil
		for _, fp := range fps {
			cfg.Workloads = append(cfg.Workloads, WorkloadSpec{Name: "xsbench", Footprint: fp})
		}
		return cfg
	}
	const limitBytes = vm.MaxPhysFrames * mem.PageSize / 2 // derived memory is twice the footprint
	for name, cfg := range map[string]Config{
		"PhysFrames over": func() Config { c := quickCfg("xsbench", 10); c.PhysFrames = vm.MaxPhysFrames + 1; return c }(),
		"PhysFrames huge": func() Config { c := quickCfg("xsbench", 10); c.PhysFrames = 1 << 40; return c }(),
		"footprint over":  big(limitBytes + mem.PageSize/2),
		"footprint max":   big(^uint64(0)),
		"footprints sum":  big(limitBytes/2+mem.PageSize, limitBytes/2),
		"footprints wrap": big(1<<63, 1<<63),
	} {
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "limit") {
			t.Errorf("%s: New error = %v, want the physical memory limit", name, err)
		}
	}
	for name, cfg := range map[string]Config{
		"PhysFrames at limit": func() Config { c := quickCfg("xsbench", 10); c.PhysFrames = vm.MaxPhysFrames; return c }(),
		"footprint at limit":  big(limitBytes),
	} {
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := s.cores[0].as.Buddy().TotalFrames(); got != vm.MaxPhysFrames {
			t.Errorf("%s: %d frames, want %d", name, got, uint64(vm.MaxPhysFrames))
		}
	}
}

// A machine no cache, TLB, MMU cache or DRAM controller can be built
// from, one whose core timing would divide by zero or step the clock
// back, or one whose structures would take more than MaxMachineBytes
// of host memory, is a configuration error from New, not a panic, a
// hang or an exhausted host: machines arrive in tempo-serve job JSON.
func TestBadMachineGeometryIsError(t *testing.T) {
	subRows := func(n, prefetch int, policy SubRowPolicyKind) func(*Config) {
		return func(c *Config) {
			c.Tempo = DefaultTempo()
			c.SubRows, c.PrefetchSubRows, c.SubRowPolicy = n, prefetch, policy
		}
	}
	for _, tc := range []struct {
		name, want string
		edit       func(*Config)
	}{
		{"17-way LLC", `cache "LLC": 4456448B/17-way: assoc: 17 ways is outside 1..16`, func(c *Config) {
			c.Machine.Caches.LLC.Ways, c.Machine.Caches.LLC.SizeB = 17, 17*4096*mem.LineSize
		}},
		{"LLC set count", `cache "LLC": 3145728B/16-way: assoc: 3072 sets is not a positive power of two`, func(c *Config) {
			c.Machine.Caches.LLC.SizeB = 3 << 20
		}},
		{"0-way L1", `cache "L1D": 32768B/0-way: assoc: 0 ways`, func(c *Config) { c.Machine.Caches.L1.Ways = 0 }},
		{"0-way STLB", "tlb: L2 4k: assoc: 0 ways", func(c *Config) { c.Machine.TLB.L2[mem.Page4K].Ways = 0 }},
		{"17-way 1GB STLB", "tlb: L2 1g: assoc: 17 ways", func(c *Config) { c.Machine.TLB.L2[mem.Page1G].Ways = 17 }},
		{"3-set L1 TLB", "tlb: L1 2m: assoc: 3 sets", func(c *Config) { c.Machine.TLB.L1[mem.Page2M].Sets = 3 }},
		{"0-set MMU cache", "tlb: L3 MMU cache: assoc: 0 sets", func(c *Config) { c.Machine.MMU.L3.Sets = 0 }},
		{"0 DRAM channels", "dram: invalid geometry", func(c *Config) { c.Machine.DRAM.Geometry.Channels = 0 }},
		{"refresh every 0 cycles", "dram: refresh of 1120 cycles needs a TREFI of at least 1", func(c *Config) {
			c.Machine.DRAM.Timing.TREFI = 0
		}},
		{"sub-rows below a line", "dram: 256 sub-rows of a 8192B row", func(c *Config) { c.SubRows = 256 }},
		{"32 sub-rows of 256B", "dram: 32 sub-rows is over the limit of 16 per bank", subRows(32, 1, SubRowFOA)},
		{"FOA reserving -1 of 4 sub-rows", "dram: -1 prefetch sub-rows is outside 0..4", subRows(4, -1, SubRowFOA)},
		{"FOA reserving 4 of 2 sub-rows", "dram: 4 prefetch sub-rows is outside 0..2", subRows(2, 4, SubRowFOA)},
		{"FOA reserving 9 of 8 sub-rows", "dram: 9 prefetch sub-rows is outside 0..8", subRows(8, 9, SubRowFOA)},
		{"POA reserving -1 of 4 sub-rows", "dram: -1 prefetch sub-rows is outside 0..4", subRows(4, -1, SubRowPOA)},
		{"negative OtherOverlap", "OtherOverlap -5 is outside [0, 1]", func(c *Config) { c.Machine.OtherOverlap = -5 }},
		{"zero NonMemIPC", "NonMemIPC 0 is below 1", func(c *Config) { c.Machine.NonMemIPC = 0 }},
		{"2^62-cycle interconnect", "Interconnect of 4611686018427387904 cycles is over the 1048576-cycle limit", func(c *Config) {
			c.Machine.Interconnect = 1 << 62
		}},
		{"16 GiB LLC", "need 2148590980 bytes of host memory, over the 268435456-byte limit", func(c *Config) {
			c.Machine.Caches.LLC.SizeB = 16 << 30
		}},
		{"4096 cores", "bytes of host memory, over the 268435456-byte limit", func(c *Config) {
			for len(c.Workloads) < 4096 {
				c.Workloads = append(c.Workloads, c.Workloads[0])
			}
		}},
		{"2^80 DRAM banks", "need 18446744073709551615 bytes of host memory", func(c *Config) {
			c.Machine.DRAM.Geometry.Channels, c.Machine.DRAM.Geometry.BanksPerCh = 1<<40, 1<<40
		}},
	} {
		cfg := quickCfg("xsbench", 10)
		tc.edit(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: New error = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// Every latency a run adds to a clock is rejected one cycle over
// MaxLatency, and a machine with all of them at MaxLatency still
// completes a run: the ceiling bounds the refresh catch-up that a
// 2^62-cycle interconnect turned into a hang.
func TestLatencyCeiling(t *testing.T) {
	latencies := func(c *Config) map[string]*uint64 {
		m, tm := &c.Machine, &c.Machine.DRAM.Timing
		return map[string]*uint64{
			"L1 LatencyC": &m.Caches.L1.LatencyC, "L2 LatencyC": &m.Caches.L2.LatencyC,
			"LLC LatencyC": &m.Caches.LLC.LatencyC, "L2TLBPenalty": &m.L2TLBPenalty,
			"ReplayRestart": &m.ReplayRestart, "Interconnect": &m.Interconnect,
			"LLCFillExtra": &m.LLCFillExtra, "DRAM TRCD": &tm.TRCD, "DRAM TRP": &tm.TRP,
			"DRAM TCL": &tm.TCL, "DRAM TBurst": &tm.TBurst, "DRAM TFAW": &tm.TFAW,
			"DRAM TRFC": &tm.TRFC, "PTRowWait": &c.Tempo.PTRowWait,
		}
	}
	base := quickCfg("xsbench", 200)
	base.Tempo = DefaultTempo()
	for name := range latencies(&base) {
		cfg := base
		*latencies(&cfg)[name] = MaxLatency + 1
		want := fmt.Sprintf("%s of %d cycles is over the %d-cycle limit", name, MaxLatency+1, MaxLatency)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: New error = %v, want %q", name, err, want)
		}
	}
	cfg := base
	for _, l := range latencies(&cfg) {
		*l = MaxLatency
	}
	run(t, cfg)
}

// Building the default machine must cost memory only for what its run
// writes: the adaptive row predictor's chunks materialise on first
// write, so New allocates about 0.85MB (0.6MB of it the caches' set
// blocks), where sixteen predictors allocated in full took it to 1.5MB.
func TestNewAllocationIsLazy(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := New(DefaultConfig("xsbench")); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("New allocated %d bytes for the default machine, want < 1MB", got)
	}
}
