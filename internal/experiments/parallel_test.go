package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/runner"
)

// parallelScale keeps the determinism tests fast while still spanning
// single-app, paired, and multiprogrammed figures.
func parallelScale() Scale {
	s := tinyScale()
	s.Records = 4_000
	s.Footprint = 128 << 20
	return s
}

// engineRunner builds a runner backed by an 8-worker pool over the
// given cache directory.
func engineRunner(t *testing.T, s Scale, cacheDir string) (*Runner, *runner.Pool) {
	t.Helper()
	dc, err := runner.NewDiskCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(runner.Options{Parallelism: 8, Cache: dc})
	r := NewRunner(s)
	r.Engine = pool
	return r, pool
}

// TestParallelReportsByteIdentical is the subsystem's core determinism
// guarantee: a figure's Report renders byte-identically whether the
// simulations ran serially, across 8 workers with a cold persistent
// cache, or entirely from a warm cache — and the warm run executes
// zero simulations.
func TestParallelReportsByteIdentical(t *testing.T) {
	s := parallelScale()
	for _, id := range []string{"fig10", "fig16"} {
		t.Run(id, func(t *testing.T) {
			fig, ok := ByID(id)
			if !ok {
				t.Fatalf("unknown figure %s", id)
			}
			serial := NewRunner(s)
			want, err := serial.RunFigure(fig)
			if err != nil {
				t.Fatal(err)
			}

			cacheDir := t.TempDir()
			cold, coldPool := engineRunner(t, s, cacheDir)
			gotCold, err := cold.RunFigure(fig)
			if err != nil {
				t.Fatal(err)
			}
			if gotCold.String() != want.String() {
				t.Errorf("cold parallel String diverges from serial:\n--- serial\n%s\n--- parallel\n%s",
					want, gotCold)
			}
			if gotCold.CSV() != want.CSV() {
				t.Error("cold parallel CSV diverges from serial")
			}
			if coldPool.Executed() == 0 {
				t.Error("cold run executed no simulations")
			}

			warm, warmPool := engineRunner(t, s, cacheDir)
			gotWarm, err := warm.RunFigure(fig)
			if err != nil {
				t.Fatal(err)
			}
			if gotWarm.String() != want.String() {
				t.Error("warm-cache String diverges from serial")
			}
			if gotWarm.CSV() != want.CSV() {
				t.Error("warm-cache CSV diverges from serial")
			}
			if n := warmPool.Executed(); n != 0 {
				t.Errorf("warm cache re-ran %d simulations, want 0", n)
			}
			if warmPool.CacheHits() == 0 {
				t.Error("warm run reported no cache hits")
			}
		})
	}
}

// Figure keys that name one configuration share one run: fig13's THP
// point repeats fig10's baseline and TEMPO runs under other keys, and
// mech01's tempo row is fig10's TEMPO run. A pool engine without a
// persistent cache executes exactly the distinct ConfigKeys of the
// three figures, as many as a cold DiskCache pool, and both reproduce
// the serial runner's reports.
func TestEngineRunsEachConfigurationOnce(t *testing.T) {
	s := tinyScale()
	var figs []Figure
	for _, id := range []string{"fig10", "fig13", "mech01"} {
		f, ok := ByID(id)
		if !ok {
			t.Fatalf("unknown figure %s", id)
		}
		figs = append(figs, f)
	}
	reports := func(r *Runner) []string {
		t.Helper()
		r.Mechs = []string{"tempo"}
		var out []string
		for _, f := range figs {
			rep, err := r.RunFigure(f)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, rep.String()+rep.CSV())
		}
		return out
	}
	serial := NewRunner(s)
	want := reports(serial)
	distinct := map[string]bool{}
	for _, h := range serial.hashes {
		distinct[h] = true
	}
	if len(serial.hashes) <= len(distinct) {
		t.Fatalf("%d keys name %d configurations: the figures share none", len(serial.hashes), len(distinct))
	}
	if serial.cacheLen() != len(distinct) {
		t.Errorf("serial runner holds %d results for %d configurations", serial.cacheLen(), len(distinct))
	}
	if h := serial.hashes["mech/tempo/xsbench"]; h == "" || h != serial.hashes["tempo/xsbench"] {
		t.Error("mech/tempo/xsbench and tempo/xsbench name two configurations")
	}

	pooled := NewRunner(s)
	pool := runner.New(runner.Options{Parallelism: 2})
	pooled.Engine = pool
	cold, coldPool := engineRunner(t, s, t.TempDir())
	for _, c := range []struct {
		name string
		r    *Runner
		pool *runner.Pool
	}{{"pool", pooled, pool}, {"cold DiskCache pool", cold, coldPool}} {
		got := reports(c.r)
		for i := range figs {
			if got[i] != want[i] {
				t.Errorf("%s: %s diverges from serial:\n--- serial\n%s\n--- engine\n%s", c.name, figs[i].ID, want[i], got[i])
			}
		}
		if n := c.pool.Executed(); n != uint64(len(distinct)) {
			t.Errorf("%s executed %d simulations for %d distinct configurations", c.name, n, len(distinct))
		}
	}
}

// A figure evaluated straight through f.Run, without RunFigure's
// enumeration pass, sends every run to the engine as a straggler: the
// report is still the serial one, and each variant's runs.jsonl line
// names its baseline's hash.
func TestStragglersCarryTheirBase(t *testing.T) {
	s := tinyScale()
	fig, _ := ByID("fig10")
	want, err := fig.Run(NewRunner(s))
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	r := NewRunner(s)
	r.Engine = runner.New(runner.Options{Parallelism: 2, Telemetry: &runner.Telemetry{JSONL: &log}})
	got, err := fig.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("straggler report diverges from serial:\n--- serial\n%s\n--- stragglers\n%s", want, got)
	}
	type line struct{ Key, Hash, Base string }
	lines := map[string]line{}
	for _, l := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		var rec line
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatal(err)
		}
		lines[rec.Key] = rec
	}
	if len(lines) != 2*len(s.Big) {
		t.Fatalf("%d runs.jsonl lines, want %d: %v", len(lines), 2*len(s.Big), lines)
	}
	for _, wl := range s.Big {
		base, tempo := lines["base/"+wl], lines["tempo/"+wl]
		if base.Base != "" {
			t.Errorf("baseline base/%s declares base %s", wl, base.Base)
		}
		if tempo.Base == "" || tempo.Base != base.Hash {
			t.Errorf("tempo/%s: base %q, want base/%s's hash %q", wl, tempo.Base, wl, base.Hash)
		}
	}
}

// A variant may name only a baseline the runner has already run.
func TestRunRejectsUnrunBaseline(t *testing.T) {
	r := NewRunner(tinyScale())
	if _, err := r.run("tempo/xsbench", tempoVariant(r.singleCfg("xsbench")), "base/xsbench"); err == nil {
		t.Fatal("a variant named a baseline the runner has not run")
	}
}

// TestTwoPhaseEnumeration checks the enumerate pass collects exactly
// the simulations the figure needs, deduplicated, without executing
// any.
func TestTwoPhaseEnumeration(t *testing.T) {
	s := parallelScale()
	r := NewRunner(s)
	fig, _ := ByID("fig01")
	jobs, err := r.enumerate(fig)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(s.Big) {
		t.Fatalf("fig01 enumerated %d jobs, want %d (one baseline per big workload)", len(jobs), len(s.Big))
	}
	for i, wl := range s.Big {
		if jobs[i].Key != "base/"+wl {
			t.Errorf("job %d key = %q", i, jobs[i].Key)
		}
	}
	if r.cacheLen() != 0 {
		t.Errorf("enumeration populated the memo table: %d entries", r.cacheLen())
	}
	// Figures sharing baselines enumerate to overlapping sets: fig04
	// needs exactly fig01's runs, so after fig01 executes, fig04
	// enumerates to nothing.
	if _, err := r.RunFigure(fig); err != nil {
		t.Fatal(err)
	}
	fig04, _ := ByID("fig04")
	jobs, err = r.enumerate(fig04)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Errorf("fig04 re-enumerated %d cached jobs", len(jobs))
	}
}

// Enumerate lists each distinct configuration once, under the first
// key that names it: fig16's weight sweep at weight 1 and its grace
// sweep at 15 cycles are one configuration under two keys.
func TestEnumerateListsEachConfigurationOnce(t *testing.T) {
	r := NewRunner(tinyScale())
	fig, _ := ByID("fig16")
	jobs, err := r.Enumerate(fig)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for _, j := range jobs {
		h, err := runner.ConfigKey(j.Config)
		if err != nil {
			t.Fatal(err)
		}
		if k, dup := seen[h]; dup {
			t.Errorf("%s and %s list one configuration twice", k, j.Key)
		}
		seen[h] = j.Key
	}
	if len(r.hashes) <= len(jobs) {
		t.Errorf("fig16 names %d keys and enumerates %d jobs: no key was folded into another", len(r.hashes), len(jobs))
	}
	for _, key := range []string{"f16/mix0/w1", "f16/mix0/g15"} {
		if r.hashes[key] == "" || r.hashes[key] != r.hashes["f16/mix0/w1"] {
			t.Errorf("%s does not name the weight-1 configuration", key)
		}
	}
}

// TestEngineClaimsMatchSerial runs the claims engine both ways on a
// one-workload scale and requires identical tables.
func TestEngineClaimsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("claims evaluation runs every figure")
	}
	s := parallelScale()
	serial := NewRunner(s)
	wantRes, err := EvaluateClaims(serial)
	if err != nil {
		t.Fatal(err)
	}
	par, _ := engineRunner(t, s, t.TempDir())
	gotRes, err := EvaluateClaims(par)
	if err != nil {
		t.Fatal(err)
	}
	want, got := FormatClaims(wantRes), FormatClaims(gotRes)
	if want != got {
		t.Errorf("claims diverge:\n--- serial\n%s\n--- parallel\n%s", want, got)
	}
	if !strings.Contains(got, "ptw-substantial") {
		t.Error("claims table incomplete")
	}
}
