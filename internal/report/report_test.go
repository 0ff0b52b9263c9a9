package report

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
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

	// base runs twice as long as tempo: speedup 2.0. tempo/xsbench
	// declares base/xsbench its baseline; base/gups's line carries no
	// base field, the shape of a log that predates declared pairs.
	runs, hashes := "", map[string]string{}
	for i, r := range []struct {
		key, base string
		res       *sim.Result
	}{
		{"base/xsbench", "", fakeResult(2000, 1000)},
		{"tempo/xsbench", "base/xsbench", fakeResult(1000, 1000)},
		{"base/gups", "", fakeResult(3000, 1000)},
	} {
		hash := fmt.Sprintf("%064d", i)
		hashes[r.key] = hash
		if err := cache.Put(hash, r.res); err != nil {
			t.Fatal(err)
		}
		base := ""
		if r.base != "" {
			base = fmt.Sprintf(`"base":%q,`, hashes[r.base])
		}
		runs += fmt.Sprintf(`{"key":%q,"hash":%q,%s"cached":false,"wall_ms":5}`+"\n", r.key, hash, base)
		if r.key == "tempo/xsbench" {
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

func TestPairTable(t *testing.T) {
	runsPath, cacheDir, _ := writeSweep(t)
	d, err := Load(runsPath, cacheDir, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Get("tempo/xsbench").Base; got == "" || got != d.Get("base/xsbench").Hash {
		t.Fatalf("tempo/xsbench base = %q, want base/xsbench's hash", got)
	}
	tab := PairTable(d)
	if len(tab.Rows) != 1 {
		t.Fatalf("got %d pair rows, want 1 (only tempo/xsbench declares a base): %+v", len(tab.Rows), tab.Rows)
	}
	row := tab.Rows[0]
	if row.Label != "tempo/xsbench" {
		t.Fatalf("row label %q", row.Label)
	}
	// Speedup 2.0 by cycles; one core at IPC 1.0 against 0.5, so the
	// core speedup is 2.0 too.
	for col, want := range map[string]float64{"speedup": 2, "core_speedup": 2, "base_ipc": 0.5, "ipc": 1} {
		if got, _ := tab.Value("tempo/xsbench", col); got != want {
			t.Errorf("%s = %v, want %v", col, got, want)
		}
	}

	// A log without base fields still loads, with no pairs table.
	old, err := os.ReadFile(runsPath)
	if err != nil {
		t.Fatal(err)
	}
	stripped := regexp.MustCompile(`"base":"[0-9]*",`).ReplaceAll(old, nil)
	if err := os.WriteFile(runsPath, stripped, 0o644); err != nil {
		t.Fatal(err)
	}
	if d, err = Load(runsPath, cacheDir, ""); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("old log: got %d runs, want 3", d.Len())
	}
	for _, tab := range Tables(d) {
		if tab.ID == "pairs" {
			t.Fatalf("old log rendered a pairs table: %+v", tab.Rows)
		}
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

// A sweep's figures declare their pairs in runs.jsonl: fig10, fig14 and
// mech01 run through a pool with a result cache and a telemetry log,
// and the loaded log lists one pairs row per declared pair. mech01's
// tempo runs are fig10's, so none is keyed mech/tempo/.
func TestSweepDeclaresPairs(t *testing.T) {
	s := experiments.QuickScale()
	s.Records = 4_000
	s.Footprint = 128 << 20
	s.Big = []string{"xsbench", "graph500"}
	dir := t.TempDir()
	cache, err := runner.NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	runsPath := filepath.Join(dir, "runs.jsonl")
	log, err := os.Create(runsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	r := experiments.NewRunner(s)
	r.Engine = runner.New(runner.Options{Parallelism: 2, Cache: cache, Telemetry: &runner.Telemetry{JSONL: log}})
	for _, id := range []string{"fig10", "fig14", "mech01"} {
		f, _ := experiments.ByID(id)
		if _, err := r.RunFigure(f); err != nil {
			t.Fatal(err)
		}
	}
	d, err := Load(runsPath, dir, "")
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	for _, key := range d.Keys() {
		if b := d.Get(key).Base; b != "" {
			declared++
			if d.byHash[b] == nil {
				t.Errorf("%s: base %s names no run in the log", key, b)
			}
		}
	}
	tab := PairTable(d)
	if len(tab.Rows) != declared {
		t.Errorf("%d pairs rows for %d declared pairs", len(tab.Rows), declared)
	}
	f14 := 0
	for _, row := range tab.Rows {
		switch {
		case strings.HasPrefix(row.Label, "mech/tempo/"):
			t.Errorf("mech01's tempo run %s is not fig10's", row.Label)
		case strings.HasPrefix(row.Label, "f14/"):
			f14++
		case strings.HasPrefix(row.Label, "tempo/"):
			if v, _ := tab.Value(row.Label, "engaged"); v == 0 {
				t.Errorf("%s: TEMPO issued no prefetches", row.Label)
			}
		}
	}
	// fig10: 2 workloads; fig14: 2 × 3 row policies; mech01's rivals:
	// 2 workloads × victima and revelator.
	if f14 != 6 || declared != 12 {
		t.Errorf("%d f14 rows of %d declared pairs, want 6 of 12", f14, declared)
	}
}
