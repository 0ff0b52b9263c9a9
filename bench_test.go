package tempo

import (
	"fmt"
	"testing"

	"repro/internal/assoc"
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/vm"
)

// ---------------------------------------------------------------------
// Figure benchmarks: each regenerates one paper figure at quick scale
// and reports its headline metric. `go test -bench Fig -benchtime 1x`
// reproduces the whole evaluation in miniature; cmd/tempo-bench runs
// the full-scale version.
// ---------------------------------------------------------------------

// benchScale trims quick scale a little further so the full bench
// suite stays tractable on one core.
func benchScale() Scale {
	s := QuickScale()
	s.Records = 10_000
	s.Footprint = 384 << 20
	return s
}

func benchFigure(b *testing.B, id, metricLabel, rowLabel, column string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := RunFigure(id, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if rowLabel != "" {
			if v, ok := rep.Value(rowLabel, column); ok {
				b.ReportMetric(v, metricLabel)
			}
		}
	}
}

func BenchmarkFig01RuntimeBreakdown(b *testing.B) {
	benchFigure(b, "fig01", "xsbench-PTW-frac", "xsbench", "DRAM-PTW")
}

func BenchmarkFig04DRAMRefBreakdown(b *testing.B) {
	benchFigure(b, "fig04", "xsbench-PTW-frac", "xsbench", "DRAM-PTW")
}

func BenchmarkFig10TempoImprovement(b *testing.B) {
	benchFigure(b, "fig10", "xsbench-perf-improvement", "xsbench", "perf")
}

func BenchmarkFig11ReplayService(b *testing.B) {
	benchFigure(b, "fig11", "xsbench-LLC-frac", "xsbench", "LLC")
}

func BenchmarkFig12TempoWithIMP(b *testing.B) {
	benchFigure(b, "fig12", "spmv-perf-with-IMP", "spmv", "perf+IMP")
}

func BenchmarkFig13SuperpageSweep(b *testing.B) {
	benchFigure(b, "fig13", "xsbench-4K-improvement", "xsbench/4KB-only", "perf")
}

func BenchmarkFig14RowPolicies(b *testing.B) {
	benchFigure(b, "fig14", "xsbench-closed-improvement", "xsbench", "closed")
}

func BenchmarkFig15PTRowWait(b *testing.B) {
	benchFigure(b, "fig15", "xsbench-wait10-improvement", "xsbench", "wait10")
}

func BenchmarkFig16BLISS(b *testing.B) {
	benchFigure(b, "fig16", "weight1-wspeedup-improvement", "weight=1", "wspeedup")
}

func BenchmarkFig17SubRows(b *testing.B) {
	benchFigure(b, "fig17", "FOA2-wspeedup-improvement", "FOA/dedicated=2", "wspeedup")
}

// ---------------------------------------------------------------------
// Ablation bench: TEMPO's two prefetch destinations separately (the
// design choice DESIGN.md calls out). Reports the improvement of
// row-buffer-only prefetching and of the full mechanism.
// ---------------------------------------------------------------------

func BenchmarkAblationTempoComponents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig("xsbench")
		cfg.Records = 10_000
		cfg.Workloads[0].Footprint = 384 << 20
		base, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Tempo = DefaultTempo()
		cfg.Tempo.LLCPrefetch = false
		rowOnly, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Tempo.LLCPrefetch = true
		full, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		bc := float64(base.Total.Cycles)
		b.ReportMetric((bc-float64(rowOnly.Total.Cycles))/bc, "rowbuf-only-improvement")
		b.ReportMetric((bc-float64(full.Total.Cycles))/bc, "full-tempo-improvement")
	}
}

// ---------------------------------------------------------------------
// Microbenchmarks of the core structures, for profiling the simulator
// itself.
// ---------------------------------------------------------------------

func BenchmarkTLBLookup(b *testing.B) {
	t := tlb.New(tlb.DefaultConfig())
	for i := uint64(0); i < 2048; i++ {
		t.Insert(vm.Translation{VBase: mem.VAddr(i << 12), Frame: mem.Frame(i), Class: mem.Page4K})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(mem.VAddr(uint64(i%4096) << 12))
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(cache.Config{Name: "bench", SizeB: 1 << 20, Ways: 8, LatencyC: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := mem.PAddr(uint64(i%100000) << 6)
		if hit, _ := c.Access(p, false); !hit {
			c.Fill(p, cache.FillDemand, false)
		}
	}
}

// BenchmarkHierarchyLLCHit sweeps a 1 MB working set that overflows
// L2 and fits the LLC, so every access takes small-fastpath's dominant
// path: an L1 miss, an L2 miss, an LLC hit and promotion fills into L2
// and L1.
func BenchmarkHierarchyLLCHit(b *testing.B) {
	var st stats.Stats
	h := cache.NewHierarchy(cache.DefaultHierarchyConfig(), &st)
	const lines = (1 << 20) / mem.LineSize
	for i := uint64(0); i < lines; i++ {
		h.FillFromDRAM(mem.PAddr(i<<mem.LineShift), false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(mem.PAddr(uint64(i)%lines<<mem.LineShift), false)
	}
	b.StopTimer()
	if st.LLCHits != uint64(b.N) {
		b.Fatalf("%d of %d accesses hit the LLC", st.LLCHits, b.N)
	}
}

// BenchmarkAssocInsertEvict inserts a stream of new keys into an array
// of the 4KB STLB's 128-set, 12-way geometry: after the first 1536
// inserts, every insert evicts.
func BenchmarkAssocInsertEvict(b *testing.B) {
	a := assoc.New[vm.Translation](128, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.InsertEvict(uint64(i), vm.Translation{VBase: mem.VAddr(i << 12), Frame: mem.Frame(i)})
	}
}

func BenchmarkBuddyAllocFree(b *testing.B) {
	bd := vm.NewBuddy(1 << 18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := bd.AllocFrame()
		if err != nil {
			b.Fatal(err)
		}
		if err := bd.Free(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageTableWalkSW(b *testing.B) {
	bd := vm.NewBuddy(1 << 18)
	pt, err := vm.NewPageTable(bd.AllocFrame)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < 1024; i++ {
		f, _ := bd.AllocFrame()
		if err := pt.Map(mem.VAddr(i<<12), mem.Page4K, f); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.Walk(mem.VAddr(uint64(i%1024) << 12))
	}
}

func BenchmarkDRAMControllerAccess(b *testing.B) {
	var st stats.Stats
	ctrl := dram.NewController(dram.DefaultConfig(), sched.NewFRFCFS(), &st)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &dram.Request{Addr: mem.PAddr(uint64(i) * 4096), Enqueue: uint64(i) * 10}
		ctrl.Submit(r)
		ctrl.RunUntil(r)
	}
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := DefaultConfig("graph500")
	cfg.Workloads[0].Footprint = 256 << 20
	cfg.Records = b.N
	if cfg.Records < 100 {
		cfg.Records = 100
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(cfg.Records)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkHotPathTempo is the per-record hot-path microbenchmark the
// state-machine coordinator is measured by: one op is one trace record
// through the full TEMPO pipeline (TLB, walker, caches, DRAM, prefetch
// engine), so ns/op is the per-record cost and allocs/op is
// allocations per record (~0 in steady state; system construction
// amortises across b.N). Run with -benchmem for bytes and allocations
// per record; the repository's benchmark (bench/README.md) times the
// same run end to end as its xsbench-tempo workload.
func BenchmarkHotPathTempo(b *testing.B) {
	cfg := DefaultConfig("xsbench")
	cfg.Workloads[0].Footprint = 256 << 20
	cfg.Tempo = DefaultTempo()
	cfg.Records = b.N
	if cfg.Records < 100 {
		cfg.Records = 100
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(cfg.Records)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkHotPathMultiTempo is the multi-programmed counterpart of
// BenchmarkHotPathTempo: four xsbench cores (distinct seeds) over a
// shared LLC and memory controller with TEMPO on, so the coordinator's
// min-clock core picking, run-ahead batching and the scheduler's
// indexed queue scans are all exercised under contention. One op is
// one trace record across all cores; records/s is the total simulation
// throughput and records/s/core the per-core share. The benchmark's
// mc4-tempo workload times the same machine end to end.
func BenchmarkHotPathMultiTempo(b *testing.B) {
	// Records is per core; round b.N up so every core gets equal work.
	cfg := multiTempoConfig(max((b.N+3)/4, 100))
	cores := len(cfg.Workloads)
	total := cfg.Records * cores
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(total)/float64(cores)/b.Elapsed().Seconds(), "records/s/core")
}

// multiTempoConfig is BenchmarkHotPathMultiTempo's machine with the
// given records per core: four xsbench cores (distinct seeds) sharing
// one address space, the LLC and the memory controller, TEMPO on.
func multiTempoConfig(records int) Config {
	cfg := DefaultConfig("xsbench")
	cfg.Workloads = nil
	for i := 0; i < 4; i++ {
		cfg.Workloads = append(cfg.Workloads, WorkloadSpec{
			Name: "xsbench", Footprint: 256 << 20, Seed: int64(i + 1),
		})
	}
	cfg.SharedAddressSpace = true
	cfg.Tempo = DefaultTempo()
	cfg.Records = records
	return cfg
}

// BenchmarkAblationSchedulerAware isolates TEMPO's Section 4.3
// transaction-queue policies from its prefetching on a 4-core run.
func BenchmarkAblationSchedulerAware(b *testing.B) {
	mk := func(aware bool) Config {
		cfg := DefaultConfig("xsbench")
		cfg.Records = 3_000
		cfg.Workloads = nil
		for i := 0; i < 4; i++ {
			cfg.Workloads = append(cfg.Workloads, WorkloadSpec{
				Name: "xsbench", Footprint: 256 << 20, Seed: int64(i + 1),
			})
		}
		cfg.SharedAddressSpace = true
		cfg.Tempo = DefaultTempo()
		cfg.Tempo.SchedulerAware = aware
		return cfg
	}
	for i := 0; i < b.N; i++ {
		base := mk(true)
		base.Tempo = TempoConfig{}
		bres, err := Run(base)
		if err != nil {
			b.Fatal(err)
		}
		bc := float64(bres.Total.Cycles)
		aware, err := Run(mk(true))
		if err != nil {
			b.Fatal(err)
		}
		plain, err := Run(mk(false))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((bc-float64(aware.Total.Cycles))/bc, "aware-improvement")
		b.ReportMetric((bc-float64(plain.Total.Cycles))/bc, "prefetch-only-improvement")
	}
}

// BenchmarkAblationRowBufferSize sweeps the row-buffer size (the
// paper's "alternative row buffer organisations").
func BenchmarkAblationRowBufferSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, kb := range []uint64{4, 8, 16} {
			cfg := DefaultConfig("xsbench")
			cfg.Records = 10_000
			cfg.Workloads[0].Footprint = 384 << 20
			cfg.Machine.DRAM.Geometry.RowBytes = kb << 10
			base, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			cfg.Tempo = DefaultTempo()
			tempo, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			imp := 1 - float64(tempo.Total.Cycles)/float64(base.Total.Cycles)
			b.ReportMetric(imp, fmt.Sprintf("row%dKB-improvement", kb))
		}
	}
}

// BenchmarkAblationLLCReplacement compares TEMPO under LRU and SRRIP
// last-level caches (SRRIP inserts prefetches at a distant interval,
// probing pollution sensitivity).
func BenchmarkAblationLLCReplacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, rep := range []cache.Replacement{cache.ReplaceLRU, cache.ReplaceSRRIP} {
			cfg := DefaultConfig("xsbench")
			cfg.Records = 10_000
			cfg.Workloads[0].Footprint = 384 << 20
			cfg.Machine.Caches.LLC.Replace = rep
			base, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			cfg.Tempo = DefaultTempo()
			tempo, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			imp := 1 - float64(tempo.Total.Cycles)/float64(base.Total.Cycles)
			b.ReportMetric(imp, rep.String()+"-improvement")
		}
	}
}
