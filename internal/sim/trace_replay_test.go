package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workload"
)

// writeTrace captures a generator into a temp trace file.
func writeTrace(t testing.TB, wl string, n int, footprint uint64) string {
	t.Helper()
	g, err := workload.New(wl, workload.Config{FootprintBytes: footprint, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), wl+".trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range trace.Take(g, n) {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTraceReplayMatchesLiveGenerator(t *testing.T) {
	const n = 5_000
	const fp = 192 << 20
	path := writeTrace(t, "mcf", n, fp)

	live := quickCfg("mcf", n)
	live.Workloads[0].Footprint = fp
	live.Workloads[0].Seed = 1
	liveRes := run(t, live)

	replay := quickCfg("mcf", n)
	replay.Workloads = []WorkloadSpec{{TracePath: path, Footprint: fp}}
	replayRes := run(t, replay)

	// Identical address streams through an identical machine must
	// yield identical results.
	if liveRes.Total.Cycles != replayRes.Total.Cycles {
		t.Errorf("cycles differ: live %d vs replay %d", liveRes.Total.Cycles, replayRes.Total.Cycles)
	}
	if liveRes.Total.DRAMRefs != replayRes.Total.DRAMRefs {
		t.Errorf("DRAM refs differ: %v vs %v", liveRes.Total.DRAMRefs, replayRes.Total.DRAMRefs)
	}
}

func TestTraceReplayShorterThanRecords(t *testing.T) {
	path := writeTrace(t, "mcf", 500, 128<<20)
	// The same records under a header claiming 2^40 of them: the count
	// is untrusted, so it must not size an allocation.
	hostile := filepath.Join(t.TempDir(), "hostile.trc")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(blob[8:16], 1<<40)
	if err := os.WriteFile(hostile, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, hostile} {
		cfg := quickCfg("mcf", 10_000) // asks for more than the file holds
		cfg.Workloads = []WorkloadSpec{{TracePath: p, Footprint: 128 << 20}}
		res := run(t, cfg)
		if res.Total.MemRefs != 500 {
			t.Errorf("%s: MemRefs = %d, want the file's 500", filepath.Base(p), res.Total.MemRefs)
		}
	}
}

func TestTraceReplayErrors(t *testing.T) {
	cfg := quickCfg("mcf", 100)
	cfg.Workloads = []WorkloadSpec{{TracePath: "/nonexistent/file.trc"}}
	if _, err := Run(cfg); err == nil {
		t.Error("missing trace file should fail")
	}
	// A non-trace file is rejected by the magic check.
	bad := filepath.Join(t.TempDir(), "bad.trc")
	if err := os.WriteFile(bad, []byte("this is not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Workloads = []WorkloadSpec{{TracePath: bad}}
	if _, err := Run(cfg); err == nil {
		t.Error("corrupt trace file should fail")
	}
	// A record the writer cannot produce fails the job and names its
	// index: a gap above 65,535, or a flag bit other than kind and
	// value.
	good, err := os.ReadFile(writeTrace(t, "mcf", 10, 64<<20))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		raw  []byte
		want string
	}{
		{[]byte{0, 0, 0, 0x80, 0x80, 0x04}, "record 10: gap 65536 exceeds 65535"},
		{[]byte{4, 0, 0, 0}, "record 10: flags 0x4 set bits other than kind and value"},
	} {
		path := filepath.Join(t.TempDir(), "unwritable.trc")
		if err := os.WriteFile(path, append(bytes.Clone(good), tc.raw...), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg.Workloads = []WorkloadSpec{{TracePath: path}}
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Run = %v, want an error containing %q", err, tc.want)
		}
	}
}

// TestIMPLookaheadAtTraceEnd replays spmv traces (index loads every
// third record) that end before Records with IMP on. Near the end of a
// trace, IMP's lookahead edge is the trace's last record, and no edge
// remains while that record executes. The expectations were captured
// from the lookahead ring the core's record buffer replaced; 17
// records issue prefetches from the repeated edge, and 700 records
// cross several batch refills with IMP engaged.
func TestIMPLookaheadAtTraceEnd(t *testing.T) {
	const fp = 96 << 20
	traceEnd := func(t *testing.T, n int) func() Config {
		path := writeTrace(t, "spmv", n, fp)
		return func() Config {
			cfg := quickCfg("spmv", n+100)
			cfg.Workloads = []WorkloadSpec{{TracePath: path, Footprint: fp}}
			cfg.IMP = true
			return cfg
		}
	}
	d := prefetch.Distance
	for _, tc := range []struct {
		n     int
		total []uint64
		core  [3]uint64
	}{
		{1, []uint64{979, 3, 1, 0, 1, 1, 1, 0, 1, 0, 0, 0, 5, 4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 5, 143, 0, 527, 1, 0, 0, 1}, [3]uint64{979, 3, 1}},
		{5, []uint64{2102, 13, 5, 2, 3, 3, 3, 2, 1, 2, 0, 0, 10, 7, 3, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 10, 429, 0, 956, 3, 0, 0, 3}, [3]uint64{2102, 13, 3}},
		{d, []uint64{3043, 43, 16, 11, 5, 5, 4, 4, 1, 10, 0, 0, 15, 8, 5, 2, 0, 0, 0, 0, 0, 0, 0, 13, 0, 15, 715, 120, 1054, 4, 0, 0, 4}, [3]uint64{3043, 43, 5}},
		{d + 1, []uint64{3057, 45, 17, 12, 5, 5, 4, 4, 1, 11, 0, 0, 15, 8, 5, 2, 4, 0, 0, 0, 0, 4, 0, 14, 0, 19, 715, 129, 1054, 4, 0, 0, 4}, [3]uint64{3057, 45, 5}},
		{d + 2, []uint64{3151, 48, 18, 13, 5, 5, 4, 4, 1, 11, 0, 0, 16, 8, 5, 3, 0, 0, 0, 0, 0, 0, 0, 14, 0, 16, 715, 180, 1054, 4, 0, 0, 4}, [3]uint64{3151, 48, 5}},
		{700, []uint64{51773, 1885, 700, 623, 77, 77, 63, 76, 1, 430, 0, 150, 206, 68, 77, 61, 150, 0, 0, 0, 0, 150, 150, 332, 4, 356, 13344, 3885, 10056, 63, 0, 2, 61}, [3]uint64{51773, 1885, 77}},
	} {
		checkFixture(t, schedulerFixture{
			name:  fmt.Sprintf("spmv-imp-%d-records", tc.n),
			cfg:   traceEnd(t, tc.n),
			total: tc.total,
			cores: [][3]uint64{tc.core},
		})
	}
}
