package report

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// fakeResult builds a result with the counters the tables read.
// cycles/instr shape IPC and speedup; the memory stats get a fixed
// row-buffer profile.
func fakeResult(cycles, instr uint64) *sim.Result {
	res := &sim.Result{Cores: []stats.Stats{{Cycles: cycles, Instructions: instr}}}
	res.Cores[0].TLBMisses = 100
	res.Cores[0].WalksStarted = 90
	// An attributed CPI stack that satisfies the conservation law:
	// buckets sum exactly to CPICycles.
	res.Cores[0].CPICycles = cycles
	res.Cores[0].CPIStack[stats.CPICompute] = cycles / 2
	res.Cores[0].CPIStack[stats.CPIDataL1] = cycles / 4
	res.Cores[0].CPIStack[stats.CPIDataDRAMService] = cycles - cycles/2 - cycles/4
	res.Mem.DRAMOutcomes[stats.DRAMOther][stats.RowHit] = 30
	res.Mem.DRAMOutcomes[stats.DRAMOther][stats.RowMiss] = 10
	res.Mem.DRAMOutcomes[stats.DRAMPrefetch][stats.RowHit] = 8
	res.Mem.DRAMOutcomes[stats.DRAMPrefetch][stats.RowConflict] = 2
	res.Total = res.Cores[0]
	res.Total.Add(&res.Mem)
	res.Energy.DRAMDynJ = float64(cycles) / 1000
	return res
}

// writeSweep lays down a joined fixture: runs.jsonl, a populated disk
// cache and one interval series, returning the three paths.
func writeSweep(t *testing.T) (runsPath, cacheDir, obsDir string) {
	t.Helper()
	dir := t.TempDir()
	cacheDir = filepath.Join(dir, "cache")
	obsDir = filepath.Join(dir, "obs")
	if err := os.MkdirAll(obsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cache, err := runner.NewDiskCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}

	// base runs twice as long as tempo: speedup 2.0.
	results := map[string]*sim.Result{
		"base/xsbench":  fakeResult(2000, 1000),
		"tempo/xsbench": fakeResult(1000, 1000),
		"base/gups":     fakeResult(3000, 1000),
	}
	var runs string
	i := 0
	for key, res := range results {
		hash := fmt.Sprintf("%064d", i)
		i++
		if err := cache.Put(hash, res); err != nil {
			t.Fatal(err)
		}
		runs += fmt.Sprintf(`{"key":%q,"hash":%q,"cached":false,"wall_ms":5}`+"\n", key, hash)
		if key == "tempo/xsbench" {
			series := `{"epoch":0,"hists":{"core0/walk/latency":{"count":3,"buckets":{"15":2,"127":1}}}}` + "\n" +
				`{"epoch":1,"hists":{"core0/walk/latency":{"count":1,"buckets":{"15":1}}}}` + "\n"
			if err := os.WriteFile(filepath.Join(obsDir, hash+".jsonl"), []byte(series), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A stale earlier record for base/gups: the later line above must win.
	runs = `{"key":"base/gups","hash":"deadbeef","cached":false,"wall_ms":1}` + "\n" + runs
	runsPath = filepath.Join(dir, "runs.jsonl")
	if err := os.WriteFile(runsPath, []byte(runs), 0o644); err != nil {
		t.Fatal(err)
	}
	return runsPath, cacheDir, obsDir
}

func TestLoadJoinsArtifacts(t *testing.T) {
	runsPath, cacheDir, obsDir := writeSweep(t)
	d, err := Load(runsPath, cacheDir, obsDir)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("got %d runs, want 3", d.Len())
	}
	base := d.Get("base/xsbench")
	if base == nil || base.Result == nil {
		t.Fatal("base/xsbench did not join its cached result")
	}
	if base.Result.Total.Cycles != 2000 {
		t.Fatalf("joined wrong result: cycles %d", base.Result.Total.Cycles)
	}
	// Last record wins: base/gups must carry the valid hash, and join.
	if g := d.Get("base/gups"); g == nil || g.Result == nil || g.Hash == "deadbeef" {
		t.Fatal("stale runs.jsonl record shadowed the final one")
	}
	tempo := d.Get("tempo/xsbench")
	if tempo.Series == nil {
		t.Fatal("tempo/xsbench did not join its interval series")
	}
	if tempo.Series.Epochs != 2 {
		t.Fatalf("series epochs = %d, want 2", tempo.Series.Epochs)
	}
	h, ok := tempo.Series.SumHists("/walk/latency")
	if !ok || h.Count != 4 {
		t.Fatalf("summed walk hist count = %d (ok=%v), want 4", h.Count, ok)
	}
	// Buckets: upper 15 is index 3 (3 obs), upper 127 index 6 (1 obs).
	if h.Buckets[3] != 3 || h.Buckets[6] != 1 {
		t.Fatalf("bucket reconstruction wrong: %v", h.Buckets[:8])
	}
	if q := h.Quantile(0.50); q != 15 {
		t.Fatalf("p50 = %d, want 15", q)
	}
	if q := h.Quantile(0.99); q != 127 {
		t.Fatalf("p99 = %d, want 127", q)
	}
}

func TestSpeedupTable(t *testing.T) {
	runsPath, cacheDir, _ := writeSweep(t)
	d, err := Load(runsPath, cacheDir, "")
	if err != nil {
		t.Fatal(err)
	}
	tab := SpeedupTable(d)
	if len(tab.Rows) != 1 {
		t.Fatalf("got %d speedup rows, want 1 (only xsbench has a pair): %+v", len(tab.Rows), tab.Rows)
	}
	row := tab.Rows[0]
	if row.Label != "xsbench" {
		t.Fatalf("row label %q", row.Label)
	}
	if got := row.Values[0]; got != 2.0 {
		t.Fatalf("speedup = %v, want 2.0", got)
	}
	// Weighted speedup: one core, IPC 1.0 vs 0.5 → ratio 2.0.
	if got := row.Values[1]; got != 2.0 {
		t.Fatalf("weighted speedup = %v, want 2.0", got)
	}
}

func TestRowBufferTable(t *testing.T) {
	runsPath, cacheDir, _ := writeSweep(t)
	d, err := Load(runsPath, cacheDir, "")
	if err != nil {
		t.Fatal(err)
	}
	tab := RowBufferTable(d)
	if len(tab.Rows) != 3 {
		t.Fatalf("got %d rowbuffer rows, want 3", len(tab.Rows))
	}
	// Overall: 38 hits / 50 accesses; prefetch category: 8/10.
	for _, row := range tab.Rows {
		if row.Values[0] != 0.76 {
			t.Fatalf("%s hit_rate = %v, want 0.76", row.Label, row.Values[0])
		}
		if row.Values[3] != 0.8 {
			t.Fatalf("%s prefetch_hit_rate = %v, want 0.8", row.Label, row.Values[3])
		}
	}
}

func TestWalkLatencyTable(t *testing.T) {
	runsPath, cacheDir, obsDir := writeSweep(t)
	d, err := Load(runsPath, cacheDir, obsDir)
	if err != nil {
		t.Fatal(err)
	}
	tab := WalkLatencyTable(d)
	if len(tab.Rows) != 1 {
		t.Fatalf("got %d walklat rows, want 1", len(tab.Rows))
	}
	row := tab.Rows[0]
	if row.Label != "tempo/xsbench" {
		t.Fatalf("row label %q", row.Label)
	}
	if row.Values[0] != 15 || row.Values[2] != 127 || row.Values[3] != 4 {
		t.Fatalf("quantiles = %v, want [15 _ 127 4]", row.Values)
	}
}

// Two invocations over the same artifacts must render byte-identical
// output — the determinism contract CI diffs rely on.
func TestTablesDeterministic(t *testing.T) {
	runsPath, cacheDir, obsDir := writeSweep(t)
	render := func() string {
		d, err := Load(runsPath, cacheDir, obsDir)
		if err != nil {
			t.Fatal(err)
		}
		var out string
		for _, tab := range Tables(d) {
			out += tab.Markdown() + tab.CSV()
		}
		return out
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("non-deterministic rendering:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("no tables rendered")
	}
}

func TestAuditAllFlagsCorruption(t *testing.T) {
	runsPath, cacheDir, _ := writeSweep(t)
	d, err := Load(runsPath, cacheDir, "")
	if err != nil {
		t.Fatal(err)
	}
	if v, audited, _ := AuditAll(d); len(v) != 0 || audited != 3 {
		t.Fatalf("clean sweep: violations %v, audited %d", v, audited)
	}
	// Corrupt one result: more walks than TLB misses.
	d.Get("base/gups").Result.Total.WalksStarted = 10_000
	v, _, _ := AuditAll(d)
	if len(v["base/gups"]) == 0 {
		t.Fatal("corrupted counter not flagged")
	}
	if len(v) != 1 {
		t.Fatalf("uncorrupted runs flagged too: %v", v)
	}
}
