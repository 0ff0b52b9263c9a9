package main

import (
	"flag"
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/ptwalk"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/vm"
)

// microBenchtime is how long testing.Benchmark times each layer call;
// the microbenchmarks ride along with every traced run, so they are
// kept short.
const microBenchtime = "100ms"

// micro is one layer microbenchmark: a metric name, the nanoseconds in
// one of its units, and the body.
type micro struct {
	name   string
	unitNS float64
	unit   string
	fn     func(b *testing.B)
}

// micros time single calls into each layer's public functions, from
// outside the layer. The first five mirror the repository's
// bench_test.go microbenchmarks; the last times the address-space
// set-up that dominates the figure sweep's NewSystem time.
var micros = []micro{
	{"micro.tlb_lookup_ns", 1, "ns", func(b *testing.B) {
		t := tlb.New(tlb.DefaultConfig())
		for i := uint64(0); i < 2048; i++ {
			t.Insert(vm.Translation{VBase: mem.VAddr(i << 12), Frame: mem.Frame(i), Class: mem.Page4K})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Lookup(mem.VAddr(uint64(i%4096) << 12))
		}
	}},
	{"micro.cache_access_ns", 1, "ns", func(b *testing.B) {
		c := cache.New(cache.Config{Name: "bench", SizeB: 1 << 20, Ways: 8, LatencyC: 4})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := mem.PAddr(uint64(i%100000) << 6)
			if hit, _ := c.Access(p, false); !hit {
				c.Fill(p, cache.FillDemand, false)
			}
		}
	}},
	{"micro.ptwalk_walk_ns", 1, "ns", func(b *testing.B) {
		bd := vm.NewBuddy(1 << 18)
		pt, err := vm.NewPageTable(bd.AllocFrame)
		if err != nil {
			b.Fatal(err)
		}
		for i := uint64(0); i < 1024; i++ {
			f, err := bd.AllocFrame()
			if err != nil {
				b.Fatal(err)
			}
			if err := pt.Map(mem.VAddr(i<<12), mem.Page4K, f); err != nil {
				b.Fatal(err)
			}
		}
		w := ptwalk.New(pt, tlb.NewMMUCache(tlb.DefaultMMUCacheConfig()), &stats.Stats{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Walk(mem.VAddr(uint64(i%1024)<<12), 0, cachePort{})
		}
	}},
	{"micro.dram_access_ns", 1, "ns", func(b *testing.B) {
		var st stats.Stats
		ctrl := dram.NewController(dram.DefaultConfig(), sched.NewFRFCFS(), &st)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := &dram.Request{Addr: mem.PAddr(uint64(i) * 4096), Enqueue: uint64(i) * 10}
			ctrl.Submit(r)
			ctrl.RunUntil(r)
		}
	}},
	{"micro.buddy_alloc_free_ns", 1, "ns", func(b *testing.B) {
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
	}},
	{"micro.vm_memhog_setup_ms", 1e6, "ms", func(b *testing.B) {
		// Figure 13's memhog-0.5 point at quick scale: physical memory
		// twice a 512 MB footprint, half of it fragmented before the
		// application's address space is built.
		cfg := vm.OSConfig{
			PhysFrames:      2 * (512 << 20) / mem.PageSize,
			Mode:            vm.ModeTHP,
			MemhogFraction:  0.5,
			THPEligibility:  0.62,
			ReserveFraction: 0.80,
			Seed:            77,
		}
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			bd := vm.NewBuddy(cfg.PhysFrames)
			b.StartTimer()
			if _, err := vm.NewAddressSpaceShared(cfg, bd); err != nil {
				b.Fatal(err)
			}
		}
	}},
}

// cachePort answers every PTE read from the cache in 4 cycles, so the
// walk microbenchmark times the walker alone.
type cachePort struct{}

func (cachePort) ReadPTE(mem.PAddr, int, bool, uint64, uint64) (uint64, bool) { return 4, false }

// runMicros runs every microbenchmark and adds its time per operation
// to m.
func runMicros(m metrics) error {
	testing.Init()
	if err := flag.Set("test.benchtime", microBenchtime); err != nil {
		return err
	}
	for _, mb := range micros {
		r := testing.Benchmark(mb.fn)
		if r.N == 0 {
			return fmt.Errorf("%s: benchmark failed", mb.name)
		}
		m.set(mb.name, float64(r.T.Nanoseconds())/float64(r.N)/mb.unitNS, mb.unit)
	}
	return nil
}
