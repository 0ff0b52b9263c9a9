package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	tempo "repro"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

func defaults() options {
	return options{
		workload: "xsbench", records: 1000, cores: 1, llcPf: true,
		ptWait: 10, scheduler: "frfcfs", rowPolicy: "adaptive",
		pageMode: "thp", seed: 1,
	}
}

func TestBuildConfigDefaults(t *testing.T) {
	cfg, err := buildConfig(defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != 1 || cfg.Workloads[0].Name != "xsbench" {
		t.Errorf("workloads = %+v", cfg.Workloads)
	}
	if cfg.Tempo.Enabled || cfg.IMP || cfg.SharedAddressSpace {
		t.Error("features on by default")
	}
	if cfg.Scheduler != tempo.SchedFRFCFS || cfg.OS.Mode != vm.ModeTHP {
		t.Error("wrong defaults")
	}
}

func TestBuildConfigFeatureFlags(t *testing.T) {
	o := defaults()
	o.tempoOn = true
	o.llcPf = false
	o.ptWait = 5
	o.impOn = true
	o.cores = 4
	o.sharedAS = true
	o.footprint = 256
	o.scheduler = "bliss"
	o.rowPolicy = "closed"
	o.pageMode = "4k"
	o.subRows = 8
	o.pfSubRows = 2
	cfg, err := buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Tempo.Enabled || cfg.Tempo.LLCPrefetch || cfg.Tempo.PTRowWait != 5 {
		t.Errorf("tempo = %+v", cfg.Tempo)
	}
	if !cfg.IMP || !cfg.SharedAddressSpace || len(cfg.Workloads) != 4 {
		t.Error("core/prefetcher flags lost")
	}
	if cfg.Workloads[2].Footprint != 256<<20 || cfg.Workloads[2].Seed != 3 {
		t.Errorf("workload 2 = %+v", cfg.Workloads[2])
	}
	if cfg.Scheduler != tempo.SchedBLISS || cfg.Machine.DRAM.Policy != tempo.PolicyClosed {
		t.Error("scheduler/policy lost")
	}
	if cfg.OS.Mode != vm.Mode4KOnly || cfg.SubRows != 8 || cfg.PrefetchSubRows != 2 {
		t.Error("paging/sub-row flags lost")
	}
}

func TestBuildConfigHugetlbfsReservations(t *testing.T) {
	o := defaults()
	o.pageMode = "hugetlbfs2m"
	cfg, err := buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.OS.Mode != vm.ModeHugetlbfs2M || cfg.OS.ReserveFraction != 0.85 {
		t.Errorf("2MB pool config = %+v", cfg.OS)
	}
	o.pageMode = "hugetlbfs1g"
	cfg, _ = buildConfig(o)
	if cfg.OS.Mode != vm.ModeHugetlbfs1G || cfg.OS.ReserveFraction != 0.60 {
		t.Errorf("1GB pool config = %+v", cfg.OS)
	}
}

func TestBuildConfigRejectsBadEnums(t *testing.T) {
	cases := []func(*options){
		func(o *options) { o.scheduler = "fifo" },
		func(o *options) { o.rowPolicy = "sorta-open" },
		func(o *options) { o.pageMode = "64k" },
	}
	for i, mut := range cases {
		o := defaults()
		mut(&o)
		if _, err := buildConfig(o); err == nil {
			t.Errorf("case %d: bad enum accepted", i)
		}
	}
}

func TestBuildConfigRunsEndToEnd(t *testing.T) {
	o := defaults()
	o.records = 400
	o.footprint = 64
	o.tempoOn = true
	cfg, err := buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tempo.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.MemRefs != 400 {
		t.Errorf("refs = %d", res.Total.MemRefs)
	}
	// printResult must not panic on a real result.
	printResult(res, cfg)
}

func TestModeString(t *testing.T) {
	o := defaults()
	o.tempoOn = true
	o.impOn = true
	o.scheduler = "bliss"
	cfg, _ := buildConfig(o)
	got := mode(cfg)
	for _, want := range []string{"TEMPO", "IMP", "BLISS", "THP"} {
		if !strings.Contains(got, want) {
			t.Errorf("mode %q missing %q", got, want)
		}
	}
}

// -seed seeds the generators: core 0 runs the trace `tempo-trace gen
// -seed` captures, so replaying that capture gives the live run's
// numbers.
func TestSeedReachesTraces(t *testing.T) {
	o := defaults()
	o.seed = 7
	o.records = 3000
	o.footprint = 64
	o.pageMode = "4k"
	cfg, err := buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Workloads[0].Seed; got != 7 {
		t.Fatalf("-seed 7 gives core 0 seed %d", got)
	}
	live, err := tempo.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// What tempo-trace gen -workload xsbench -footprint-mb 64 -seed 7
	// -records 3000 writes.
	g, err := workload.New(o.workload, workload.Config{FootprintBytes: o.footprint << 20, Seed: o.seed})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "xs.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.Record, o.records)
	for _, rec := range recs[:g.Read(recs)] {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	o.tracePath = path
	if cfg, err = buildConfig(o); err != nil {
		t.Fatal(err)
	}
	replay, err := tempo.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replay.Total, live.Total) {
		t.Fatalf("replay of the -seed 7 capture ran %d cycles, the live -seed 7 run %d",
			replay.Total.Cycles, live.Total.Cycles)
	}
}
