package main

import (
	"errors"
	"math"
	"regexp"
	"testing"

	tempo "repro"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmokeAllWorkloads runs every workload at a tiny size, untraced and
// traced, and checks that no simulation fails and that the metrics each
// mode prints are exactly the ones BENCHMARK.json declares for it.
func TestSmokeAllWorkloads(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i])
		}
	}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := measure(options{workload: wl, seed: 1, seconds: 0.6, traced: traced, tiny: true, dir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d simulations failed: %v", wl, traced, rec.Failed, rec.Attempted, rec.Problems)
			}
			declared := endToEnd
			if traced {
				declared = perLayer
			}
			for name, m := range rec.Metrics {
				if !metricName.MatchString(name) {
					t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", wl, name)
				}
				if unit, ok := declared[name]; !ok || unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s (%s) is not declared with that unit in BENCHMARK.json", wl, traced, name, m.Unit)
				}
			}
			for name := range declared {
				if _, ok := rec.Metrics[name]; !ok {
					t.Errorf("%s traced=%v: declared metric %s was not printed", wl, traced, name)
				}
			}
			if !traced {
				continue
			}
			var shares float64
			for _, l := range layers {
				shares += rec.Metrics["host."+l+".share"].Value
			}
			if math.Abs(shares-1) > 1e-9 {
				t.Errorf("%s: layer shares sum to %v", wl, shares)
			}
			if rec.Metrics["failed_frac"].Value != 0 {
				t.Errorf("%s: failed_frac %v", wl, rec.Metrics["failed_frac"].Value)
			}
		}
	}
}

// TestCheckerCountsFailures checks that a result breaking a
// conservation law, one whose digest differs from the first run's, and
// an error each count as one failed simulation.
func TestCheckerCountsFailures(t *testing.T) {
	cfg, err := singleConfig("xsbench-tempo", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	r := runSingle(cfg)
	good := r.sims[0].res
	if r.sims[0].err != nil {
		t.Fatal(r.sims[0].err)
	}

	brokenTotal := *good
	brokenTotal.Total.TempoPrefetches++ // triggers != prefetches + suppressed

	brokenCore := *good
	brokenCore.Cores = append([]tempo.Stats(nil), good.Cores...)
	brokenCore.Cores[0].CPIStack[0]++ // stack no longer sums to the core's cycles

	otherDigest := *good
	otherDigest.Superpage = []float64{good.Superpage[0] + 0.5}

	c := newChecker()
	c.add("k", good, nil)
	c.add("k", good, nil)
	if c.failed != 0 {
		t.Fatalf("a correct, repeated result failed: %v", c.problems)
	}
	for _, res := range []*tempo.Result{&brokenTotal, &brokenCore, &otherDigest} {
		before := c.failed
		c.add("k", res, nil)
		if c.failed != before+1 {
			t.Errorf("result was not counted as failed: %v", c.problems)
		}
	}
	c.add("k", nil, errors.New("simulation error"))
	if c.attempted != 6 || c.failed != 4 || c.failedFrac() != 4.0/6 || c.ok() {
		t.Errorf("attempted %d failed %d (frac %v, ok %v), want 6, 4", c.attempted, c.failed, c.failedFrac(), c.ok())
	}
}
