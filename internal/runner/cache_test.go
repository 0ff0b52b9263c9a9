package runner

import (
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obsv"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestConfigKeyStableAndSensitive(t *testing.T) {
	a, err := ConfigKey(sim.DefaultConfig("xsbench"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ConfigKey(sim.DefaultConfig("xsbench"))
	if a != b {
		t.Error("identical configs hash differently")
	}
	if len(a) != 64 {
		t.Errorf("key length = %d, want 64 hex chars", len(a))
	}
	// Every kind of field change must move the hash.
	mutations := []func(*sim.Config){
		func(c *sim.Config) { c.Seed = 99 },
		func(c *sim.Config) { c.Records++ },
		func(c *sim.Config) { c.Tempo = sim.DefaultTempo() },
		func(c *sim.Config) { c.Workloads[0].Name = "mcf" },
		func(c *sim.Config) { c.Machine.DRAM.Geometry.RowBytes *= 2 },
		func(c *sim.Config) { c.OS.MemhogFraction = 0.5 },
		func(c *sim.Config) { c.Scheduler = sim.SchedBLISS },
	}
	for i, mut := range mutations {
		cfg := sim.DefaultConfig("xsbench")
		mut(&cfg)
		k, err := ConfigKey(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if k == a {
			t.Errorf("mutation %d did not change the hash", i)
		}
	}
}

// TestConfigKeyIgnoresWorkers pins the cache identity of configs that
// set the deprecated Workers field: nothing reads it, so two configs
// differing only in Workers are the same simulation and must share a
// cache entry. The field is excluded from the JSON the hash covers;
// this test keeps it that way until the field is removed.
func TestConfigKeyIgnoresWorkers(t *testing.T) {
	cfg := sim.DefaultConfig("xsbench")
	a, err := ConfigKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4, 64} {
		cfg.Workers = w
		k, err := ConfigKey(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if k != a {
			t.Errorf("Workers=%d changed the config hash: cached results "+
				"would no longer be shared across worker counts", w)
		}
	}
}

// "tempo" and "" both select the default machine, so they share one
// key: the result cache and tempo-serve store and run that machine
// once. A rival mechanism still moves the key.
func TestConfigKeyFoldsDefaultMechSpellings(t *testing.T) {
	key := func(mech string) string {
		cfg := sim.DefaultConfig("xsbench")
		cfg.Tempo = sim.DefaultTempo()
		cfg.Mech = mech
		k, err := ConfigKey(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if key("tempo") != key("") {
		t.Error(`Mech "tempo" and Mech "" hash apart`)
	}
	if key("victima") == key("") {
		t.Error(`Mech "victima" hashes like the default machine`)
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	dc, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, _ := ConfigKey(sim.DefaultConfig("mcf"))
	if _, ok := dc.Get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	want := &sim.Result{
		Cores:     []stats.Stats{{Cycles: 123, Instructions: 456}},
		Total:     stats.Stats{Cycles: 123, Instructions: 456, TLBMisses: 7},
		Superpage: []float64{0.625},
		TempoOn:   true,
	}
	want.Total.DRAMRefs[stats.DRAMPTW] = 11
	if err := dc.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := dc.Get(key)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if got.Total != want.Total || got.Cores[0] != want.Cores[0] ||
		got.Superpage[0] != want.Superpage[0] || got.TempoOn != want.TempoOn {
		t.Errorf("round trip mutated the result:\n got %+v\nwant %+v", got, want)
	}
	if dc.Len() != 1 {
		t.Errorf("Len = %d", dc.Len())
	}
}

func TestDiskCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	dc, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := ConfigKey(sim.DefaultConfig("mcf"))
	if err := dc.Put(key, &sim.Result{}); err != nil {
		t.Fatal(err)
	}
	// Truncate the entry behind the cache's back.
	path := filepath.Join(dc.Dir(), key[:2], key+".gob")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := dc.Get(key); ok {
		t.Error("corrupt entry reported as hit")
	}
}

func TestDiskCacheVersionIsolation(t *testing.T) {
	dir := t.TempDir()
	dc, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(dc.Dir()) != fmt.Sprintf("v%d", SchemaVersion) {
		t.Errorf("cache root %q not versioned", dc.Dir())
	}
}

func TestDiskCacheStaleSchemaInventory(t *testing.T) {
	dir := t.TempDir()
	// A populated foreign schema root, as left by a different engine
	// version sharing the cache directory.
	foreign := filepath.Join(dir, "v999", "ab")
	if err := os.MkdirAll(foreign, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"abcd.gob", "abce.gob"} {
		if err := os.WriteFile(filepath.Join(foreign, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Non-schema siblings must not count.
	if err := os.MkdirAll(filepath.Join(dir, "vault"), 0o755); err != nil {
		t.Fatal(err)
	}
	dc, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	vers, n := dc.Stale()
	if len(vers) != 1 || vers[0] != 999 || n != 2 {
		t.Fatalf("Stale() = %v, %d; want [999], 2", vers, n)
	}
	// A cache with only the current schema reports nothing stale.
	clean, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if vers, n := clean.Stale(); len(vers) != 0 || n != 0 {
		t.Fatalf("clean cache Stale() = %v, %d", vers, n)
	}
}

func TestDiskCacheDecodeFailuresCounted(t *testing.T) {
	dir := t.TempDir()
	dc, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := ConfigKey(sim.DefaultConfig("mcf"))
	if err := dc.Put(key, &sim.Result{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dc.Dir(), key[:2], key+".gob")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	dc.Get(key)
	dc.Get(key)
	if n := dc.DecodeFailures(); n != 2 {
		t.Fatalf("DecodeFailures = %d, want 2", n)
	}
}

// A cache populated under a foreign schema (or holding undecodable
// entries) must surface as a schema mismatch — counted on the pool and
// warned once via telemetry — rather than silently reading as a cold
// cache.
func TestPoolSurfacesCacheSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	foreign := filepath.Join(dir, "v999", "ab")
	if err := os.MkdirAll(foreign, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(foreign, "abcd.gob"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	dc, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// An undecodable entry under the current schema for one of the jobs.
	badKey, _ := ConfigKey(cfgWithSeed(1))
	if err := dc.Put(badKey, &sim.Result{}); err != nil {
		t.Fatal(err)
	}
	badPath := filepath.Join(dc.Dir(), badKey[:2], badKey+".gob")
	if err := os.WriteFile(badPath, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	tel := &Telemetry{Out: &out}
	p := New(Options{Parallelism: 1, Cache: dc, Telemetry: tel,
		Exec: func(cfg sim.Config) (*sim.Result, error) { return stubResult(cfg), nil }})
	p.Run(context.Background(), []Job{
		{Key: "bad", Config: cfgWithSeed(1)},
		{Key: "b", Config: cfgWithSeed(2)},
		{Key: "c", Config: cfgWithSeed(3)},
	})
	// 1 foreign entry + 1 decode failure, all otherwise reading as misses.
	if n := p.CacheSchemaMismatches(); n != 2 {
		t.Fatalf("CacheSchemaMismatches = %d, want 2", n)
	}
	// The pool's registry source carries the same five counts.
	got := map[string]uint64{}
	p.CountersInto(func(name string, v uint64) { got[name] = v })
	want := map[string]uint64{
		obsv.MetricBenchExecuted: 3, obsv.MetricBenchCacheHits: 0, obsv.MetricBenchCacheMisses: 3,
		obsv.MetricBenchFailed: 0, obsv.MetricBenchCacheSchemaMismatches: 2,
	}
	if !maps.Equal(got, want) {
		t.Fatalf("CountersInto = %v, want %v", got, want)
	}
	warns := strings.Count(out.String(), "cache schema mismatch")
	if warns != 1 {
		t.Fatalf("schema warning fired %d times, want once:\n%s", warns, out.String())
	}
	if !strings.Contains(out.String(), "[999]") || !strings.Contains(out.String(), "1 undecodable") {
		t.Fatalf("warning lacks versions/decode counts:\n%s", out.String())
	}
}

// A clean cache never raises the mismatch machinery.
func TestPoolNoSchemaMismatchOnCleanCache(t *testing.T) {
	dc, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	p := New(Options{Parallelism: 1, Cache: dc, Telemetry: &Telemetry{Out: &out},
		Exec: func(cfg sim.Config) (*sim.Result, error) { return stubResult(cfg), nil }})
	p.Run(context.Background(), []Job{{Key: "a", Config: cfgWithSeed(1)}})
	if n := p.CacheSchemaMismatches(); n != 0 {
		t.Fatalf("CacheSchemaMismatches = %d on a clean cache", n)
	}
	if strings.Contains(out.String(), "schema mismatch") {
		t.Fatalf("spurious warning:\n%s", out.String())
	}
}
