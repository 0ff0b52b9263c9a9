// Package runner is the experiment-execution engine: it takes a batch
// of uniquely-keyed simulation configurations, deduplicates them, fans
// them out across worker goroutines, and returns results in the
// batch's key order regardless of completion order. Runs are
// insulated from each other — a panicking simulation becomes a
// per-job error, a per-job timeout abandons only that job, and a
// cancelled context stops scheduling new work — so a sweep of
// hundreds of simulations survives individual failures. An optional
// persistent on-disk cache (see DiskCache) lets re-runs and figure
// subsets skip completed simulations, and optional telemetry reports
// completed/total progress with per-job wall-clock, an ETA, and a
// machine-readable runs.jsonl log.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/sim"
)

// Job is one simulation to execute. Key must uniquely describe Config
// within a batch: it names the result in logs and memo tables, while
// the persistent cache is keyed by a content hash of Config itself.
// Base, when set, is the ConfigKey of the run this one is measured
// against; it is carried to the JobResult and the runs.jsonl log.
type Job struct {
	Key    string
	Config sim.Config
	Base   string
}

// JobResult is the outcome of one job. Exactly one of Result and Err
// is set.
type JobResult struct {
	Key    string
	Result *sim.Result
	Err    error
	// Hash is the ConfigKey content hash of the job's configuration —
	// the name of its cache entry and of any per-run observability
	// artifacts (interval-stats series). Empty when the config could
	// not be hashed.
	Hash string
	// Base is the job's Base: the hash of its baseline run, if any.
	Base string
	// Wall is the job's execution wall-clock (zero for cache hits).
	Wall time.Duration
	// FromCache reports that the persistent cache supplied the result.
	FromCache bool
}

// Options configures a Pool.
type Options struct {
	// Parallelism is the worker count (default GOMAXPROCS).
	Parallelism int
	// Timeout bounds one job's execution when positive. A timed-out
	// simulation is abandoned (its goroutines are left to finish in
	// the background — sim has no preemption point) and the job
	// reports an error.
	Timeout time.Duration
	// Cache, when set, persists results across process runs.
	Cache *DiskCache
	// Telemetry, when set, receives progress events.
	Telemetry *Telemetry
	// Exec executes one configuration (default sim.Run). Tests
	// substitute failing/slow/panicking executors.
	Exec func(sim.Config) (*sim.Result, error)
}

// Pool executes job batches. It is safe for concurrent use; counters
// accumulate across batches.
type Pool struct {
	opts Options

	executed  atomic.Uint64
	hits      atomic.Uint64
	misses    atomic.Uint64
	failed    atomic.Uint64
	wallTotal atomic.Int64 // nanoseconds spent executing sims

	// schemaMismatches counts cache entries that exist but are
	// unusable: entries under a foreign v* schema root plus entries
	// that failed to decode. schemaWarned makes the telemetry warning
	// fire once per pool rather than once per miss.
	schemaMismatches atomic.Uint64
	schemaWarned     atomic.Bool
}

// New builds a pool. A zero Options value gives GOMAXPROCS workers,
// no timeout, no persistent cache and no telemetry.
func New(opts Options) *Pool {
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	if opts.Exec == nil {
		opts.Exec = sim.Run
	}
	return &Pool{opts: opts}
}

// Parallelism returns the configured worker count.
func (p *Pool) Parallelism() int { return p.opts.Parallelism }

// Cache returns the persistent result cache (nil when none is set).
func (p *Pool) Cache() *DiskCache { return p.opts.Cache }

// Executed returns how many simulations actually ran (cache misses).
func (p *Pool) Executed() uint64 { return p.executed.Load() }

// CacheHits returns how many jobs the persistent cache satisfied.
func (p *Pool) CacheHits() uint64 { return p.hits.Load() }

// CacheMisses returns how many jobs missed the persistent cache (every
// job counts as a miss when no cache is configured).
func (p *Pool) CacheMisses() uint64 { return p.misses.Load() }

// Failed returns how many jobs ended in an error (panics included).
func (p *Pool) Failed() uint64 { return p.failed.Load() }

// CacheSchemaMismatches returns how many persistent-cache entries were
// present but unusable — stored under a different schema version, or
// undecodable under the current one. Non-zero means misses that look
// cold are actually a schema skew (say, a cache directory written by
// an older binary), which the pool also reports through telemetry
// once.
func (p *Pool) CacheSchemaMismatches() uint64 { return p.schemaMismatches.Load() }

// CountersInto emits the pool's five counts under their canonical
// bench/* registry names: the registry source tempo-bench -http and
// tempo-serve register.
func (p *Pool) CountersInto(emit func(name string, v uint64)) {
	emit(obsv.MetricBenchExecuted, p.Executed())
	emit(obsv.MetricBenchCacheHits, p.CacheHits())
	emit(obsv.MetricBenchCacheMisses, p.CacheMisses())
	emit(obsv.MetricBenchFailed, p.Failed())
	emit(obsv.MetricBenchCacheSchemaMismatches, p.CacheSchemaMismatches())
}

// SimWall returns the summed execution wall-clock across all workers —
// the serial-equivalent cost of the work the pool has done.
func (p *Pool) SimWall() time.Duration { return time.Duration(p.wallTotal.Load()) }

// Run executes a batch. Jobs sharing a Key are deduplicated (first
// occurrence wins; a duplicate whose config hashes differently is
// reported as that job's error) and the returned slice holds one
// JobResult per unique key, in first-occurrence order. Run never
// returns early on job failure: every runnable job is attempted, and
// errors are per-entry. A cancelled ctx marks the not-yet-started
// remainder with ctx.Err().
func (p *Pool) Run(ctx context.Context, jobs []Job) []JobResult {
	if ctx == nil {
		ctx = context.Background()
	}
	// Deduplicate, preserving order and checking key/config agreement.
	type task struct {
		job  Job
		hash string
	}
	var tasks []task
	results := make([]JobResult, 0, len(jobs))
	index := make(map[string]int)     // key -> results index
	taskAt := make(map[string]int)    // key -> tasks index
	collided := make(map[string]bool) // keys reused with differing configs
	for _, j := range jobs {
		h, err := ConfigKey(j.Config)
		if err != nil {
			results = append(results, JobResult{Key: j.Key, Err: err})
			index[j.Key] = len(results) - 1
			continue
		}
		if at, ok := taskAt[j.Key]; ok {
			if tasks[at].hash != h {
				collided[j.Key] = true
			}
			continue
		}
		taskAt[j.Key] = len(tasks)
		tasks = append(tasks, task{job: j, hash: h})
		results = append(results, JobResult{Key: j.Key})
		index[j.Key] = len(results) - 1
	}

	if p.opts.Telemetry != nil {
		p.opts.Telemetry.begin(len(tasks), p.opts.Parallelism)
	}

	// Every task goes through a worker, so every result is noted; once
	// ctx is cancelled, runOne marks the not-yet-started remainder with
	// ctx.Err() without running it.
	work := make(chan int)
	var wg sync.WaitGroup
	workers := p.opts.Parallelism
	if workers > len(tasks) {
		workers = len(tasks)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				t := tasks[i]
				r := p.runOne(ctx, t.job, t.hash)
				results[index[t.job.Key]] = r
				if p.opts.Telemetry != nil {
					p.opts.Telemetry.note(r)
				}
			}
		}()
	}
	for i := range tasks {
		work <- i
	}
	close(work)
	wg.Wait()
	// Collided keys are ambiguous: a result computed for one of the
	// configurations must not be attributed to the other.
	for key := range collided {
		results[index[key]] = JobResult{Key: key, Err: fmt.Errorf(
			"runner: key %q reused for two different configurations", key)}
		p.failed.Add(1)
	}
	return results
}

// RunJob executes (or recalls) a single job, returning the full
// JobResult — cache attribution, config hash and wall-clock included.
// It is the single-job entry point the service coordinator's workers
// use, so a job served from the persistent cache is distinguishable
// from one that executed.
func (p *Pool) RunJob(ctx context.Context, j Job) JobResult {
	h, err := ConfigKey(j.Config)
	if err != nil {
		return JobResult{Key: j.Key, Err: err}
	}
	r := p.runOne(ctx, j, h)
	if p.opts.Telemetry != nil {
		p.opts.Telemetry.note(r)
	}
	return r
}

// runOne serves one deduplicated job: persistent cache first, then a
// guarded execution.
func (p *Pool) runOne(ctx context.Context, j Job, hash string) JobResult {
	r := JobResult{Key: j.Key, Hash: hash, Base: j.Base}
	if r.Err = ctx.Err(); r.Err != nil {
		p.failed.Add(1)
		return r
	}
	if c := p.opts.Cache; c != nil {
		if res, ok := c.Get(hash); ok {
			p.hits.Add(1)
			r.Result, r.FromCache = res, true
			return r
		}
		p.noteSchemaMismatch(c)
	}
	p.misses.Add(1)
	start := time.Now()
	res, err := p.execute(ctx, j.Config)
	r.Wall = time.Since(start)
	p.wallTotal.Add(int64(r.Wall))
	if err != nil {
		p.failed.Add(1)
		r.Err = fmt.Errorf("runner: %s: %w", j.Key, err)
		return r
	}
	p.executed.Add(1)
	if c := p.opts.Cache; c != nil {
		if werr := c.Put(hash, res); werr != nil {
			// A cache write failure degrades to a cold cache; the
			// result itself is good.
			if t := p.opts.Telemetry; t != nil {
				t.warnf("cache write for %s failed: %v", j.Key, werr)
			}
		}
	}
	r.Result = res
	return r
}

// noteSchemaMismatch runs after a cache miss: if the cache holds
// entries this engine version cannot use (foreign schema roots, or
// current-schema entries that failed to decode), the count is surfaced
// instead of letting the miss masquerade as a cold cache. The
// telemetry warning fires once per pool; the counter stays current.
func (p *Pool) noteSchemaMismatch(c *DiskCache) {
	vers, stale := c.Stale()
	fails := c.DecodeFailures()
	if stale == 0 && fails == 0 {
		return
	}
	p.schemaMismatches.Store(uint64(stale) + fails)
	if p.schemaWarned.CompareAndSwap(false, true) {
		if t := p.opts.Telemetry; t != nil {
			t.warnf("cache schema mismatch: %d entries under foreign schema versions %v (current v%d), %d undecodable under v%d — all treated as misses",
				stale, vers, SchemaVersion, fails, SchemaVersion)
		}
	}
}

// outcome carries one execution's result across the guard goroutine.
type outcome struct {
	res *sim.Result
	err error
}

// execute runs one simulation under panic recovery and the configured
// timeout. The simulation itself has no preemption points, so timeout
// and cancellation abandon it rather than interrupting it.
func (p *Pool) execute(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: fmt.Errorf("simulation panicked: %v\n%s", r, debug.Stack())}
			}
		}()
		res, err := p.opts.Exec(cfg)
		ch <- outcome{res: res, err: err}
	}()
	var timeout <-chan time.Time
	if p.opts.Timeout > 0 {
		t := time.NewTimer(p.opts.Timeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case o := <-ch:
		return o.res, o.err
	case <-timeout:
		return nil, fmt.Errorf("timed out after %v (simulation abandoned)", p.opts.Timeout)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
