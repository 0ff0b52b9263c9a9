package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// stubResult builds a distinguishable result from a config's seed.
func stubResult(cfg sim.Config) *sim.Result {
	return &sim.Result{Total: stats.Stats{Cycles: uint64(cfg.Seed)}}
}

// cfgWithSeed varies a real config by seed only.
func cfgWithSeed(seed int64) sim.Config {
	cfg := sim.DefaultConfig("xsbench")
	cfg.Seed = seed
	return cfg
}

func TestRunDeterministicOrderAndDedupe(t *testing.T) {
	var calls atomic.Int64
	p := New(Options{
		Parallelism: 4,
		Exec: func(cfg sim.Config) (*sim.Result, error) {
			calls.Add(1)
			// Finish out of submission order.
			time.Sleep(time.Duration(10-cfg.Seed) * time.Millisecond)
			return stubResult(cfg), nil
		},
	})
	jobs := []Job{
		{Key: "a", Config: cfgWithSeed(1)},
		{Key: "b", Config: cfgWithSeed(2)},
		{Key: "a", Config: cfgWithSeed(1)}, // duplicate, same config
		{Key: "c", Config: cfgWithSeed(3)},
	}
	results := p.Run(context.Background(), jobs)
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3 deduplicated", len(results))
	}
	for i, want := range []string{"a", "b", "c"} {
		if results[i].Key != want {
			t.Errorf("result %d key = %q, want %q", i, results[i].Key, want)
		}
		if results[i].Err != nil {
			t.Errorf("%s: %v", want, results[i].Err)
		}
		if results[i].Result.Total.Cycles != uint64(i+1) {
			t.Errorf("%s: cycles = %d", want, results[i].Result.Total.Cycles)
		}
	}
	if calls.Load() != 3 {
		t.Errorf("executed %d sims, want 3", calls.Load())
	}
	if p.Executed() != 3 || p.Failed() != 0 {
		t.Errorf("counters: executed %d failed %d", p.Executed(), p.Failed())
	}
}

func TestRunKeyCollisionIsPerJobError(t *testing.T) {
	p := New(Options{Exec: func(cfg sim.Config) (*sim.Result, error) { return stubResult(cfg), nil }})
	results := p.Run(context.Background(), []Job{
		{Key: "a", Config: cfgWithSeed(1)},
		{Key: "a", Config: cfgWithSeed(2)}, // same key, different config
	})
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "reused") {
		t.Errorf("want key-collision error, got %v", results[0].Err)
	}
}

func TestRunPanicBecomesPerJobError(t *testing.T) {
	p := New(Options{
		Parallelism: 2,
		Exec: func(cfg sim.Config) (*sim.Result, error) {
			if cfg.Seed == 2 {
				panic("boom")
			}
			return stubResult(cfg), nil
		},
	})
	results := p.Run(context.Background(), []Job{
		{Key: "ok1", Config: cfgWithSeed(1)},
		{Key: "bad", Config: cfgWithSeed(2)},
		{Key: "ok2", Config: cfgWithSeed(3)},
	})
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy jobs failed: %v, %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "panicked") {
		t.Errorf("want panic error, got %v", results[1].Err)
	}
	if p.Failed() != 1 {
		t.Errorf("failed = %d", p.Failed())
	}
}

func TestRunTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	p := New(Options{
		Parallelism: 2,
		Timeout:     20 * time.Millisecond,
		Exec: func(cfg sim.Config) (*sim.Result, error) {
			if cfg.Seed == 1 {
				<-release // hangs past the timeout
			}
			return stubResult(cfg), nil
		},
	})
	results := p.Run(context.Background(), []Job{
		{Key: "hang", Config: cfgWithSeed(1)},
		{Key: "fast", Config: cfgWithSeed(2)},
	})
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "timed out") {
		t.Errorf("want timeout, got %v", results[0].Err)
	}
	if results[1].Err != nil {
		t.Errorf("fast job failed: %v", results[1].Err)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	p := New(Options{
		Parallelism: 1,
		Exec: func(cfg sim.Config) (*sim.Result, error) {
			if started.Add(1) == 1 {
				cancel() // cancel mid-batch from the first job
			}
			return stubResult(cfg), nil
		},
	})
	var jobs []Job
	for i := 1; i <= 8; i++ {
		jobs = append(jobs, Job{Key: fmt.Sprintf("j%d", i), Config: cfgWithSeed(int64(i))})
	}
	results := p.Run(ctx, jobs)
	var cancelled int
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no job observed cancellation")
	}
	if started.Load() == 8 {
		t.Error("cancellation did not stop scheduling")
	}
}

// A batch cut short by its context still reports every job: the jobs
// it never started are noted as failed, so runs.jsonl gets one line per
// job and the progress view reaches Total with the pool's failure count.
func TestRunCancellationNotesEveryJob(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	defer close(release)
	var log strings.Builder
	tel := &Telemetry{JSONL: &log}
	p := New(Options{
		Parallelism: 1,
		Telemetry:   tel,
		Exec: func(cfg sim.Config) (*sim.Result, error) {
			cancel()
			<-release // abandoned: the pool answers ctx.Err()
			return stubResult(cfg), nil
		},
	})
	var jobs []Job
	for i := 1; i <= 5; i++ {
		jobs = append(jobs, Job{Key: fmt.Sprintf("j%d", i), Config: cfgWithSeed(int64(i))})
	}
	for _, r := range p.Run(ctx, jobs) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("%s: err %v, want context.Canceled", r.Key, r.Err)
		}
	}
	if n := strings.Count(log.String(), "\n"); n != len(jobs) {
		t.Errorf("runs.jsonl has %d lines, want %d:\n%s", n, len(jobs), log.String())
	}
	pr := tel.Progress()
	if pr.Done != pr.Total || pr.Total != len(jobs) || uint64(pr.Failed) != p.Failed() {
		t.Errorf("progress %+v after a cancelled batch; pool failed %d", pr, p.Failed())
	}
}

func TestRunErrorDoesNotKillSweep(t *testing.T) {
	p := New(Options{
		Parallelism: 3,
		Exec: func(cfg sim.Config) (*sim.Result, error) {
			if cfg.Seed%2 == 0 {
				return nil, errors.New("synthetic failure")
			}
			return stubResult(cfg), nil
		},
	})
	var jobs []Job
	for i := 1; i <= 9; i++ {
		jobs = append(jobs, Job{Key: fmt.Sprintf("j%d", i), Config: cfgWithSeed(int64(i))})
	}
	results := p.Run(context.Background(), jobs)
	okCount, errCount := 0, 0
	for _, r := range results {
		if r.Err != nil {
			errCount++
		} else {
			okCount++
		}
	}
	if okCount != 5 || errCount != 4 {
		t.Errorf("ok %d err %d, want 5/4", okCount, errCount)
	}
}

func TestPoolUsesDiskCache(t *testing.T) {
	dc, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	exec := func(cfg sim.Config) (*sim.Result, error) {
		calls.Add(1)
		return stubResult(cfg), nil
	}
	jobs := []Job{
		{Key: "a", Config: cfgWithSeed(1)},
		{Key: "b", Config: cfgWithSeed(2)},
	}
	p1 := New(Options{Cache: dc, Exec: exec})
	p1.Run(context.Background(), jobs)
	if calls.Load() != 2 || p1.CacheHits() != 0 || p1.CacheMisses() != 2 {
		t.Fatalf("cold run: calls %d hits %d misses %d", calls.Load(), p1.CacheHits(), p1.CacheMisses())
	}
	// A second pool (fresh process, same directory) re-runs nothing.
	p2 := New(Options{Cache: dc, Exec: exec})
	results := p2.Run(context.Background(), jobs)
	if calls.Load() != 2 {
		t.Errorf("warm run executed %d extra sims", calls.Load()-2)
	}
	if p2.CacheHits() != 2 || p2.CacheMisses() != 0 {
		t.Errorf("warm run: hits %d misses %d", p2.CacheHits(), p2.CacheMisses())
	}
	for _, r := range results {
		if !r.FromCache || r.Result == nil {
			t.Errorf("%s: FromCache=%v Result=%v", r.Key, r.FromCache, r.Result)
		}
	}
}

func TestTelemetryProgressAndJSONL(t *testing.T) {
	var out, jsonl strings.Builder
	tel := &Telemetry{Out: &out, JSONL: &jsonl}
	p := New(Options{
		Parallelism: 2,
		Telemetry:   tel,
		Exec: func(cfg sim.Config) (*sim.Result, error) {
			if cfg.Seed == 3 {
				return nil, errors.New("synthetic")
			}
			return stubResult(cfg), nil
		},
	})
	p.Run(context.Background(), []Job{
		{Key: "a", Config: cfgWithSeed(1)},
		{Key: "b", Config: cfgWithSeed(2)},
		{Key: "c", Config: cfgWithSeed(3)},
	})
	prog := out.String()
	if !strings.Contains(prog, "/3]") {
		t.Errorf("progress lines missing total:\n%s", prog)
	}
	if !strings.Contains(prog, "FAILED") {
		t.Errorf("progress lines missing failure marker:\n%s", prog)
	}
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("jsonl lines = %d, want 3", len(lines))
	}
	for _, l := range lines {
		if !strings.Contains(l, `"key"`) || !strings.Contains(l, `"total":3`) {
			t.Errorf("malformed jsonl line %q", l)
		}
	}
	if s := tel.Summary(); !strings.Contains(s, "3 jobs") || !strings.Contains(s, "1 failed") {
		t.Errorf("summary = %q", s)
	}
}
