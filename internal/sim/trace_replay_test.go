package sim

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

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
	for i := 0; i < n; i++ {
		rec, _ := g.Next()
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
}
