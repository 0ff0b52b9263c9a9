package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/obsv"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

func cfgSeed(seed int64) sim.Config {
	cfg := sim.DefaultConfig("xsbench")
	cfg.Seed = seed
	return cfg
}

func stubResult(cfg sim.Config) *sim.Result {
	return &sim.Result{Total: stats.Stats{Cycles: uint64(cfg.Seed)}}
}

// waitState polls until the job reaches state (the coordinator's
// workers run asynchronously).
func waitState(t *testing.T, co *Coordinator, id string, state State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, ok := co.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if v.State == state {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, v.State, state)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitDone(t *testing.T, co *Coordinator, id string) {
	t.Helper()
	select {
	case <-co.Done(id):
	case <-time.After(5 * time.Second):
		t.Fatalf("job %s never finished", id)
	}
}

// Two submissions of the same config while the first is in flight
// share one job record and one execution; a third after completion is
// answered as a cache hit without running anything.
func TestSubmitDedupAndCacheHit(t *testing.T) {
	gate := make(chan struct{})
	var execs atomic.Int64
	pool := runner.New(runner.Options{Parallelism: 2, Exec: func(cfg sim.Config) (*sim.Result, error) {
		execs.Add(1)
		<-gate
		return stubResult(cfg), nil
	}})
	co, err := New(Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	s1, err := co.Submit(runner.Job{Config: cfgSeed(1)}, "alice", 0)
	if err != nil || !s1.Created {
		t.Fatalf("first submit: %+v, %v", s1, err)
	}
	waitState(t, co, s1.Job.ID, StateRunning)
	s2, err := co.Submit(runner.Job{Config: cfgSeed(1)}, "bob", 7)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Created || s2.CacheHit || s2.Job.ID != s1.Job.ID {
		t.Fatalf("duplicate submit made a new job: %+v (first %s)", s2, s1.Job.ID)
	}
	close(gate)
	waitDone(t, co, s1.Job.ID)

	s3, err := co.Submit(runner.Job{Config: cfgSeed(1)}, "carol", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Created || !s3.CacheHit || s3.Job.ID != s1.Job.ID {
		t.Fatalf("post-completion submit: %+v", s3)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("executed %d simulations, want 1", n)
	}
	res, err := co.Result(s1.Job.ID)
	if err != nil || res.Total.Cycles != 1 {
		t.Fatalf("result: %v, %v", res, err)
	}
	qv := co.Queue()
	if qv.Submitted != 1 || qv.Completed != 1 || qv.DedupHits != 2 {
		t.Fatalf("queue accounting: %+v", qv)
	}
}

// Higher-priority submissions run first; a duplicate submission at a
// higher priority bumps the queued job.
func TestPriorityOrdering(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{})
	var mu sync.Mutex
	var order []int64
	pool := runner.New(runner.Options{Parallelism: 1, Exec: func(cfg sim.Config) (*sim.Result, error) {
		if cfg.Seed == 1 {
			close(started)
			<-gate
		}
		mu.Lock()
		order = append(order, cfg.Seed)
		mu.Unlock()
		return stubResult(cfg), nil
	}})
	co, err := New(Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	s1, _ := co.Submit(runner.Job{Config: cfgSeed(1)}, "", 0)
	<-started // worker busy; everything below queues
	low, _ := co.Submit(runner.Job{Config: cfgSeed(2)}, "", 0)
	high, _ := co.Submit(runner.Job{Config: cfgSeed(3)}, "", 10)
	bumped, _ := co.Submit(runner.Job{Config: cfgSeed(4)}, "", 0)
	if s, err := co.Submit(runner.Job{Config: cfgSeed(4)}, "", 20); err != nil || s.Created || s.Job.Priority != 20 {
		t.Fatalf("priority bump: %+v, %v", s, err)
	}
	close(gate)
	for _, id := range []string{s1.Job.ID, low.Job.ID, high.Job.ID, bumped.Job.ID} {
		waitDone(t, co, id)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []int64{1, 4, 3, 2} // bumped (20), high (10), low (0)
	for i, seed := range want {
		if order[i] != seed {
			t.Fatalf("execution order = %v, want %v", order, want)
		}
	}
}

// A tenant at its quota is rejected while another tenant proceeds, and
// cancelling a job frees the slot.
func TestTenantQuotaAndCancelFreesSlot(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{})
	pool := runner.New(runner.Options{Parallelism: 1, Exec: func(cfg sim.Config) (*sim.Result, error) {
		if cfg.Seed == 1 {
			close(started)
			<-gate
		}
		return stubResult(cfg), nil
	}})
	defer close(gate)
	co, err := New(Options{Pool: pool, TenantQuota: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	s1, err := co.Submit(runner.Job{Config: cfgSeed(1)}, "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := co.Submit(runner.Job{Config: cfgSeed(2)}, "alice", 0); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota submit: %v, want ErrQuotaExceeded", err)
	}
	sb, err := co.Submit(runner.Job{Config: cfgSeed(3)}, "bob", 0)
	if err != nil {
		t.Fatalf("other tenant blocked by alice's quota: %v", err)
	}
	if err := co.Cancel(s1.Job.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, co, s1.Job.ID)
	if v, _ := co.Job(s1.Job.ID); v.State != StateCanceled {
		t.Fatalf("cancelled job state = %s", v.State)
	}
	// The slot is free: alice can submit again.
	s4, err := co.Submit(runner.Job{Config: cfgSeed(4)}, "alice", 0)
	if err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
	waitDone(t, co, sb.Job.ID)
	waitDone(t, co, s4.Job.ID)
	qv := co.Queue()
	if qv.RejectedQuota != 1 || qv.Tenants["alice"].Rejected != 1 || qv.Tenants["bob"].Rejected != 0 {
		t.Fatalf("rejection accounting: %+v", qv)
	}
	if qv.Canceled != 1 || qv.Completed != 2 {
		t.Fatalf("lifecycle accounting: %+v", qv)
	}
}

// A full queue rejects with ErrQueueFull (backpressure), and the
// rejection is accounted.
func TestQueueBackpressure(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{})
	pool := runner.New(runner.Options{Parallelism: 1, Exec: func(cfg sim.Config) (*sim.Result, error) {
		if cfg.Seed == 1 {
			close(started)
			<-gate
		}
		return stubResult(cfg), nil
	}})
	defer close(gate)
	co, err := New(Options{Pool: pool, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	if _, err := co.Submit(runner.Job{Config: cfgSeed(1)}, "", 0); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := co.Submit(runner.Job{Config: cfgSeed(2)}, "", 0); err != nil {
		t.Fatal(err) // fills the queue
	}
	if _, err := co.Submit(runner.Job{Config: cfgSeed(3)}, "", 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull submit: %v, want ErrQueueFull", err)
	}
	if qv := co.Queue(); qv.RejectedBackpressure != 1 || qv.Depth != 1 {
		t.Fatalf("backpressure accounting: %+v", qv)
	}
}

// Cancelling a queued job removes it without running it; cancelling a
// terminal job is an error.
func TestCancelQueued(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{})
	var execs atomic.Int64
	pool := runner.New(runner.Options{Parallelism: 1, Exec: func(cfg sim.Config) (*sim.Result, error) {
		execs.Add(1)
		if cfg.Seed == 1 {
			close(started)
			<-gate
		}
		return stubResult(cfg), nil
	}})
	co, err := New(Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	s1, _ := co.Submit(runner.Job{Config: cfgSeed(1)}, "", 0)
	<-started
	queued, _ := co.Submit(runner.Job{Config: cfgSeed(2)}, "", 0)
	if err := co.Cancel(queued.Job.ID); err != nil {
		t.Fatal(err)
	}
	if v, _ := co.Job(queued.Job.ID); v.State != StateCanceled {
		t.Fatalf("state = %s", v.State)
	}
	if err := co.Cancel(queued.Job.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("double cancel: %v, want ErrTerminal", err)
	}
	if err := co.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown cancel: %v, want ErrNotFound", err)
	}
	close(gate)
	waitDone(t, co, s1.Job.ID)
	if n := execs.Load(); n != 1 {
		t.Fatalf("cancelled queued job still executed (%d runs)", n)
	}
}

// A coordinator killed mid-flight resumes from its journal: unfinished
// jobs (running included) re-queue under their original IDs, and once
// completed, a later restart answers the same config from the
// journal + persistent cache without re-running.
func TestJournalResumeAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "queue.jsonl")
	cache, err := runner.NewDiskCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: one job running (blocked), one queued; drain-close.
	gate := make(chan struct{})
	started := make(chan struct{})
	pool1 := runner.New(runner.Options{Parallelism: 1, Cache: cache, Exec: func(cfg sim.Config) (*sim.Result, error) {
		close(started)
		<-gate
		return stubResult(cfg), nil
	}})
	co1, err := New(Options{Pool: pool1, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := co1.Submit(runner.Job{Config: cfgSeed(1)}, "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	s2, err := co1.Submit(runner.Job{Config: cfgSeed(2)}, "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := co1.Close(); err != nil {
		t.Fatal(err)
	}
	close(gate) // release the abandoned simulation goroutine

	// Phase 2: restart; both jobs resume under their IDs and complete.
	var execs2 atomic.Int64
	pool2 := runner.New(runner.Options{Parallelism: 1, Cache: cache, Exec: func(cfg sim.Config) (*sim.Result, error) {
		execs2.Add(1)
		return stubResult(cfg), nil
	}})
	co2, err := New(Options{Pool: pool2, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{s1.Job.ID, s2.Job.ID} {
		if _, ok := co2.Job(id); !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		waitDone(t, co2, id)
		if v, _ := co2.Job(id); v.State != StateCompleted {
			t.Fatalf("job %s state = %s after resume", id, v.State)
		}
	}
	if n := execs2.Load(); n != 2 {
		t.Fatalf("resume executed %d simulations, want 2", n)
	}
	if err := co2.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 3: restart again; the same config is answered from the
	// journal's completed record + persistent cache, no execution.
	pool3 := runner.New(runner.Options{Parallelism: 1, Cache: cache, Exec: func(cfg sim.Config) (*sim.Result, error) {
		t.Error("third restart executed a simulation")
		return stubResult(cfg), nil
	}})
	co3, err := New(Options{Pool: pool3, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer co3.Close()
	s3, err := co3.Submit(runner.Job{Config: cfgSeed(1)}, "bob", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Created || !s3.CacheHit || s3.Job.ID != s1.Job.ID {
		t.Fatalf("post-restart submit: %+v (want cache hit on %s)", s3, s1.Job.ID)
	}
	res, err := co3.Result(s1.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Cycles != 1 {
		t.Fatalf("restored result cycles = %d", res.Total.Cycles)
	}
}

// A torn journal tail (a crash mid-write) truncates replay at the last
// durable record instead of failing startup.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "queue.jsonl")
	pool := runner.New(runner.Options{Parallelism: 1, Exec: func(cfg sim.Config) (*sim.Result, error) {
		return stubResult(cfg), nil
	}})
	co1, err := New(Options{Pool: pool, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := co1.Submit(runner.Job{Config: cfgSeed(1)}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, co1, s1.Job.ID)
	if err := co1.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"submit","id":"torn`) // no closing brace, no newline
	f.Close()

	co2, err := New(Options{Pool: pool, JournalPath: journal})
	if err != nil {
		t.Fatalf("torn tail failed startup: %v", err)
	}
	defer co2.Close()
	if v, ok := co2.Job(s1.Job.ID); !ok || v.State != StateCompleted {
		t.Fatalf("durable record lost: ok=%v state=%v", ok, v.State)
	}
	if _, ok := co2.Job("torn"); ok {
		t.Fatal("torn record replayed")
	}
}

// The canonical svc/* metrics satisfy the registry-wide conservation
// audit through a mixed lifecycle (completions, failure, cancellation,
// rejections).
func TestServiceMetricsAuditClean(t *testing.T) {
	reg := obsv.NewRegistry()
	gate := make(chan struct{})
	started := make(chan struct{})
	pool := runner.New(runner.Options{Parallelism: 1, Exec: func(cfg sim.Config) (*sim.Result, error) {
		switch cfg.Seed {
		case 1:
			close(started)
			<-gate
		case 3:
			return nil, errors.New("synthetic failure")
		}
		return stubResult(cfg), nil
	}})
	defer close(gate)
	co, err := New(Options{Pool: pool, TenantQuota: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	s1, _ := co.Submit(runner.Job{Config: cfgSeed(1)}, "alice", 0)
	<-started
	s2, _ := co.Submit(runner.Job{Config: cfgSeed(2)}, "alice", 0)
	if _, err := co.Submit(runner.Job{Config: cfgSeed(9)}, "alice", 0); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("quota: %v", err)
	}
	s3, _ := co.Submit(runner.Job{Config: cfgSeed(3)}, "bob", 0) // will fail
	s4, _ := co.Submit(runner.Job{Config: cfgSeed(4)}, "bob", 0) // will be cancelled while queued
	if err := co.Cancel(s4.Job.ID); err != nil {
		t.Fatal(err)
	}
	if err := co.Cancel(s1.Job.ID); err != nil { // cancel the running job
		t.Fatal(err)
	}
	for _, id := range []string{s1.Job.ID, s2.Job.ID, s3.Job.ID, s4.Job.ID} {
		waitDone(t, co, id)
	}

	snap := reg.Snapshot()
	if v := obsv.Audit(snap); len(v) != 0 {
		t.Fatalf("audit violations: %v", v)
	}
	if got := snap.Counters[obsv.MetricSvcSubmitted]; got != 4 {
		t.Fatalf("submitted = %d, want 4", got)
	}
	want := map[string]uint64{
		obsv.MetricSvcCompleted:     1,
		obsv.MetricSvcFailed:        1,
		obsv.MetricSvcCanceled:      2,
		obsv.MetricSvcRejectedQuota: 1,
		"svc/tenant/alice/admitted": 2,
		"svc/tenant/alice/rejected": 1,
		"svc/tenant/bob/admitted":   2,
	}
	for name, n := range want {
		if got := snap.Counters[name]; got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
}

// Submissions against a closed coordinator fail fast.
func TestSubmitAfterClose(t *testing.T) {
	pool := runner.New(runner.Options{Parallelism: 1, Exec: func(cfg sim.Config) (*sim.Result, error) {
		return stubResult(cfg), nil
	}})
	co, err := New(Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Submit(runner.Job{Config: cfgSeed(1)}, "", 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

// TestSubmitDedupsAcrossWorkerCounts pins the service-level face of
// the Workers cache-identity contract: submissions differing only in
// the deprecated Workers field, which nothing reads, are the same
// experiment and must deduplicate onto one job rather than simulate
// twice.
func TestSubmitDedupsAcrossWorkerCounts(t *testing.T) {
	var execs atomic.Int64
	pool := runner.New(runner.Options{Parallelism: 1, Exec: func(cfg sim.Config) (*sim.Result, error) {
		execs.Add(1)
		return stubResult(cfg), nil
	}})
	co, err := New(Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	cfg := cfgSeed(3)
	cfg.Workers = 1
	s1, err := co.Submit(runner.Job{Config: cfg}, "alice", 0)
	if err != nil || !s1.Created {
		t.Fatalf("first submit: %+v, %v", s1, err)
	}
	waitDone(t, co, s1.Job.ID)
	cfg.Workers = 8
	s2, err := co.Submit(runner.Job{Config: cfg}, "bob", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Created || !s2.CacheHit || s2.Job.ID != s1.Job.ID {
		t.Fatalf("Workers=8 submission did not dedup onto the Workers=1 job: %+v", s2)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("executed %d simulations, want 1", n)
	}
}

// A sweep submission lists each distinct configuration of its figure
// once. fig16 names one configuration per mix under two keys (weight 1
// of its prefetch-weight sweep, 15 cycles of its grace sweep), so a
// list built per key would hold that job twice.
func TestSweepListsEachConfigurationOnce(t *testing.T) {
	pool := runner.New(runner.Options{Parallelism: 1, Exec: func(cfg sim.Config) (*sim.Result, error) {
		return stubResult(cfg), nil
	}})
	co, err := New(Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	rec := httptest.NewRecorder()
	NewAPI(co).submit(rec, httptest.NewRequest(http.MethodPost, "/jobs",
		strings.NewReader(`{"sweep":"fig16","scale":"quick"}`)))
	var resp SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusCreated {
		t.Fatalf("POST /jobs: %d %s", rec.Code, rec.Body)
	}
	ids, hashes := map[string]bool{}, map[string]bool{}
	for _, j := range resp.Jobs {
		if ids[j.ID] || hashes[j.Hash] {
			t.Errorf("job %s (hash %s) listed twice", j.ID, j.Hash)
		}
		ids[j.ID], hashes[j.Hash] = true, true
	}
	if qv := co.Queue(); qv.Submitted != uint64(len(resp.Jobs)) {
		t.Errorf("sweep listed %d jobs, the queue took %d", len(resp.Jobs), qv.Submitted)
	}
}

// A job config that names a trace file is refused with 400 before it
// becomes a job: the server would otherwise open whatever path an
// untrusted client names. The error names the workload, and nothing
// runs.
func TestSubmitRefusesTracePath(t *testing.T) {
	var execs atomic.Int64
	pool := runner.New(runner.Options{Parallelism: 1, Exec: func(cfg sim.Config) (*sim.Result, error) {
		execs.Add(1)
		return stubResult(cfg), nil
	}})
	co, err := New(Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	api := NewAPI(co)

	cfg := smallConfig(1)
	cfg.Workloads = append(cfg.Workloads, sim.WorkloadSpec{TracePath: filepath.Join(t.TempDir(), "x.trc"), Footprint: 64 << 20})
	body, err := json.Marshal(SubmitRequest{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	api.submit(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(string(body))))
	var resp SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusBadRequest || resp.Job != nil || !strings.Contains(resp.Error, "workload 1 names a trace file") {
		t.Fatalf("POST /jobs with a trace path: %d %+v", rec.Code, resp)
	}
	if qv := co.Queue(); qv.Submitted != 0 || execs.Load() != 0 {
		t.Fatalf("refused config became a job: %+v, %d executions", qv, execs.Load())
	}
}

// smallConfig is a quick job: 1,000 records over a 64 MB footprint.
func smallConfig(seed int64) sim.Config {
	cfg := cfgSeed(seed)
	cfg.Records = 1000
	cfg.Workloads[0].Footprint = 64 << 20
	return cfg
}

// badMachines are edits to smallConfig that the simulator must reject,
// each with a fragment of its error.
var badMachines = []struct {
	want string
	edit func(*sim.Config)
}{
	{"limit", func(c *sim.Config) { c.PhysFrames = 1 << 40 }},
	{"limit", func(c *sim.Config) { c.Workloads[0].Footprint = 1 << 62 }},
	{"17 ways is outside 1..16", func(c *sim.Config) {
		c.Machine.Caches.LLC.Ways, c.Machine.Caches.LLC.SizeB = 17, 17*4096*mem.LineSize
	}},
	{"3072 sets is not a positive power of two", func(c *sim.Config) { c.Machine.Caches.LLC.SizeB = 3 << 20 }},
	{"tlb: L2 4k: assoc: 0 ways", func(c *sim.Config) { c.Machine.TLB.L2[mem.Page4K].Ways = 0 }},
	{"dram: invalid geometry", func(c *sim.Config) { c.Machine.DRAM.Geometry.Channels = 0 }},
	{"needs a TREFI of at least 1", func(c *sim.Config) { c.Machine.DRAM.Timing.TREFI = 0 }},
	{"dram: -1 prefetch sub-rows is outside 0..4", tempoSubRows(4, -1, sim.SubRowFOA)},
	{"dram: 4 prefetch sub-rows is outside 0..2", tempoSubRows(2, 4, sim.SubRowFOA)},
	{"dram: 9 prefetch sub-rows is outside 0..8", tempoSubRows(8, 9, sim.SubRowFOA)},
	{"dram: 32 sub-rows is over the limit of 16 per bank", tempoSubRows(32, 1, sim.SubRowPOA)},
	{"dram: -1 prefetch sub-rows is outside 0..4", tempoSubRows(4, -1, sim.SubRowPOA)},
	{"OtherOverlap -5 is outside [0, 1]", func(c *sim.Config) { c.Machine.OtherOverlap = -5 }},
	{"NonMemIPC 0 is below 1", func(c *sim.Config) { c.Machine.NonMemIPC = 0 }},
	{"Interconnect of 4611686018427387904 cycles is over", func(c *sim.Config) { c.Machine.Interconnect = 1 << 62 }},
	{"bytes of host memory", func(c *sim.Config) { c.Machine.Caches.LLC.SizeB = 16 << 30 }},
	{"bytes of host memory", func(c *sim.Config) {
		for len(c.Workloads) < 4096 {
			c.Workloads = append(c.Workloads, c.Workloads[0])
		}
	}},
}

// tempoSubRows turns TEMPO on with n sub-rows, prefetch of them
// reserved for its prefetches, under policy.
func tempoSubRows(n, prefetch int, policy sim.SubRowPolicyKind) func(*sim.Config) {
	return func(c *sim.Config) {
		c.Tempo = sim.DefaultTempo()
		c.SubRows, c.PrefetchSubRows, c.SubRowPolicy = n, prefetch, policy
	}
}

// A configuration sizing physical memory past vm.MaxPhysFrames —
// explicitly or through a workload footprint — giving a cache, TLB or
// DRAM geometry no structure can be built with, DRAM refresh that
// never advances, core timing that would divide by zero or step the
// clock back, or a machine whose
// structures would exceed sim.MaxMachineBytes fails as that job's
// error, through the real simulator, and the coordinator keeps serving.
func TestOversizedMachineFailsJob(t *testing.T) {
	co, err := New(Options{Pool: runner.New(runner.Options{Parallelism: 1})})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	for i, b := range badMachines {
		cfg := smallConfig(int64(i + 1))
		b.edit(&cfg)
		s, err := co.Submit(runner.Job{Config: cfg}, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, co, s.Job.ID)
		v, _ := co.Job(s.Job.ID)
		if v.State != StateFailed || !strings.Contains(v.Err, b.want) || strings.Contains(v.Err, "panic") {
			t.Fatalf("bad machine job: state %s, err %q; want failed with %q", v.State, v.Err, b.want)
		}
	}
	ok, err := co.Submit(runner.Job{Config: smallConfig(int64(len(badMachines) + 1))}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, co, ok.Job.ID)
	if v, _ := co.Job(ok.Job.ID); v.State != StateCompleted {
		t.Fatalf("job after the failures: state %s, err %q", v.State, v.Err)
	}
	if qv := co.Queue(); qv.Failed != uint64(len(badMachines)) || qv.Completed != 1 {
		t.Fatalf("accounting: %+v", qv)
	}
}

// writeJournal writes recs as the journal at path.
func writeJournal(t *testing.T, path string, recs ...journalRecord) {
	t.Helper()
	var b strings.Builder
	for _, rec := range recs {
		blob, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(append(blob, '\n'))
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// countingPool is a one-worker pool whose stub Exec counts its calls.
func countingPool(execs *atomic.Int64) *runner.Pool {
	return runner.New(runner.Options{Parallelism: 1, Exec: func(cfg sim.Config) (*sim.Result, error) {
		execs.Add(1)
		return stubResult(cfg), nil
	}})
}

// A journaled job whose config names a trace file (a journal written
// before Submit refused such configs, or by hand) fails on restart with
// Submit's refusal: nothing runs, so nothing opens the path. The
// refusal is journaled once: a second restart finds the job settled.
func TestJournalRefusesTracePath(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "queue.jsonl")
	cfg := smallConfig(1)
	cfg.Workloads[0].TracePath = filepath.Join(dir, "no-such.trc")
	writeJournal(t, journal, journalRecord{Op: "submit", ID: "trace-1", Seq: 1, Tenant: "alice", Config: &cfg})

	var execs atomic.Int64
	for restart := 1; restart <= 2; restart++ {
		co, err := New(Options{Pool: countingPool(&execs), JournalPath: journal})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, co, "trace-1")
		v, _ := co.Job("trace-1")
		if v.State != StateFailed || !strings.Contains(v.Err, "workload 0 names a trace file") {
			t.Errorf("restart %d: journaled trace-path job ended %s: %q", restart, v.State, v.Err)
		}
		if qv := co.Queue(); qv.Failed != 1 || qv.Tenants["alice"].Active != 0 {
			t.Errorf("restart %d: accounting %+v", restart, qv)
		}
		if err := co.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if n := execs.Load(); n != 0 {
		t.Errorf("a journaled trace-path job reached the pool %d times", n)
	}
	recs, err := readJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	var states int
	for _, rec := range recs {
		if rec.Op == "state" && rec.ID == "trace-1" {
			states++
		}
	}
	if states != 1 {
		t.Errorf("refusal journaled %d times across two restarts, want once", states)
	}
}

// A journal that repeats a job ID, which no coordinator writes, keeps
// the first record and skips the second. Every job record is counted
// once, so the svc/* audit stays clean and the tenant's slot frees when
// the job ends.
func TestJournalRepeatedIDLeavesAuditClean(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "queue.jsonl")
	c1, c2 := smallConfig(1), smallConfig(2)
	writeJournal(t, journal,
		journalRecord{Op: "submit", ID: "dup-1", Seq: 1, Tenant: "alice", Config: &c1},
		journalRecord{Op: "submit", ID: "dup-1", Seq: 2, Tenant: "alice", Config: &c2})
	reg := obsv.NewRegistry()
	var execs atomic.Int64
	co, err := New(Options{Pool: countingPool(&execs), JournalPath: journal, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	waitDone(t, co, "dup-1")
	if v := obsv.Audit(reg.Snapshot()); len(v) != 0 {
		t.Errorf("audit violations: %v", v)
	}
	h1, _ := runner.ConfigKey(c1)
	if v, _ := co.Job("dup-1"); v.Hash != h1 || v.State != StateCompleted {
		t.Errorf("dup-1 is %+v, want the first record's config (%s) completed", v, h1)
	}
	if qv := co.Queue(); qv.Submitted != 1 || qv.Tenants["alice"].Active != 0 || execs.Load() != 1 {
		t.Errorf("accounting %+v after %d executions", qv, execs.Load())
	}
}

// Replay indexes a journaled job by its config's hash, not by the
// journal's hash field, and a fresh submission never takes over a
// journaled job's ID, even the one its sequence number would give it.
func TestSubmitAfterReplay(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "queue.jsonl")
	c1, c2 := smallConfig(1), smallConfig(2)
	h1, _ := runner.ConfigKey(c1)
	h2, _ := runner.ConfigKey(c2)
	taken := h2[:12] + "-2" // the ID Submit would give c2 after seq 1
	writeJournal(t, journal,
		journalRecord{Op: "submit", ID: taken, Seq: 1, Hash: strings.Repeat("0", 64), Config: &c1},
		journalRecord{Op: "state", ID: taken, State: StateCompleted})
	var execs atomic.Int64
	co, err := New(Options{Pool: countingPool(&execs), JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if s, err := co.Submit(runner.Job{Config: c1}, "", 0); err != nil || !s.CacheHit || s.Job.ID != taken {
		t.Errorf("resubmitting the journaled config: %+v, %v; want a cache hit on %s", s, err, taken)
	}
	s, err := co.Submit(runner.Job{Config: c2}, "", 0)
	if err != nil || !s.Created || s.Job.ID == taken {
		t.Fatalf("fresh submit: %+v, %v; want a new job that is not %s", s, err, taken)
	}
	waitDone(t, co, s.Job.ID)
	if v, _ := co.Job(taken); v.Hash != h1 || v.State != StateCompleted {
		t.Errorf("journaled job %s became %+v", taken, v)
	}
	if qv := co.Queue(); qv.Submitted != 2 || qv.Completed != 2 || execs.Load() != 1 {
		t.Errorf("accounting %+v after %d executions", qv, execs.Load())
	}
}

// Records a coordinator appends after a torn tail (a crash mid-write
// before its start) replay on the next start: the torn line does not
// swallow the first of them, and replay reads past it.
func TestJournalAppendsAfterTornTail(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "queue.jsonl")
	if err := os.WriteFile(journal, []byte(`{"op":"submit","id":"torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	co1, err := New(Options{Pool: countingPool(&execs), JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	s, err := co1.Submit(runner.Job{Config: smallConfig(1)}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, co1, s.Job.ID)
	if err := co1.Close(); err != nil {
		t.Fatal(err)
	}
	co2, err := New(Options{Pool: countingPool(&execs), JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	if v, ok := co2.Job(s.Job.ID); !ok || v.State != StateCompleted {
		t.Errorf("job journaled after a torn tail: ok=%v state=%v", ok, v.State)
	}
	if _, ok := co2.Job("torn"); ok {
		t.Error("torn record replayed")
	}
}

// A job that Close abandoned mid-flight is back on the queue: it counts
// in the queue's depth, so the svc/* audit holds after Close, and
// cancelling it settles it rather than panicking.
func TestCloseRequeuesRunningJob(t *testing.T) {
	started, gate := make(chan struct{}), make(chan struct{})
	defer close(gate)
	pool := runner.New(runner.Options{Parallelism: 1, Exec: func(cfg sim.Config) (*sim.Result, error) {
		close(started)
		<-gate
		return stubResult(cfg), nil
	}})
	reg := obsv.NewRegistry()
	co, err := New(Options{Pool: pool, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	s, err := co.Submit(runner.Job{Config: smallConfig(1)}, "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	if qv := co.Queue(); qv.Depth != 1 || qv.Running != 0 || len(qv.Jobs) != 1 || qv.Jobs[0].State != StateQueued {
		t.Errorf("after Close: %+v", qv)
	}
	if v := obsv.Audit(reg.Snapshot()); len(v) != 0 {
		t.Errorf("audit violations after Close: %v", v)
	}
	if err := co.Cancel(s.Job.ID); err != nil {
		t.Fatal(err)
	}
	if qv := co.Queue(); qv.Depth != 0 || qv.Canceled != 1 || qv.Tenants["alice"].Active != 0 {
		t.Errorf("after cancelling the drained job: %+v", qv)
	}
}

// /metrics and /queue read the same counts, also while submissions
// from several tenants race with registry snapshots, whose source
// takes the coordinator's lock as the submissions do.
func TestMetricsMatchQueueUnderConcurrentSubmits(t *testing.T) {
	reg := obsv.NewRegistry()
	var execs atomic.Int64
	co, err := New(Options{Pool: countingPool(&execs), Registry: reg, TenantQuota: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	stop := make(chan struct{})
	var snaps, subs sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.Snapshot()
			}
		}
	}()
	for g := 0; g < 4; g++ {
		subs.Add(1)
		go func(g int) {
			defer subs.Done()
			for i := 0; i < 40; i++ {
				// Every other config repeats, so dedup hits and quota
				// rejections happen alongside admissions.
				_, err := co.Submit(runner.Job{Config: smallConfig(int64(g*100 + i/2))}, "t"+string(rune('a'+g)), 0)
				if err != nil && !errors.Is(err, ErrQuotaExceeded) {
					t.Error(err)
				}
			}
		}(g)
	}
	subs.Wait()
	for qv := co.Queue(); qv.Depth+qv.Running > 0; qv = co.Queue() {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	snaps.Wait()

	snap, qv := reg.Snapshot(), co.Queue()
	if v := obsv.Audit(snap); len(v) != 0 {
		t.Errorf("audit violations: %v", v)
	}
	want := map[string]uint64{
		obsv.MetricSvcSubmitted: qv.Submitted, obsv.MetricSvcCompleted: qv.Completed,
		obsv.MetricSvcCacheHits: qv.CacheHits, obsv.MetricSvcDedupHits: qv.DedupHits,
		obsv.MetricSvcRejectedQuota: qv.RejectedQuota, obsv.MetricSvcRejectedQueue: qv.RejectedBackpressure,
	}
	for name, tv := range qv.Tenants {
		want["svc/tenant/"+name+"/admitted"] = tv.Admitted
		want["svc/tenant/"+name+"/rejected"] = tv.Rejected
	}
	for name, n := range want {
		if got, ok := snap.Counters[name]; !ok || got != n {
			t.Errorf("/metrics %s = %d (present %v), /queue says %d", name, got, ok, n)
		}
	}
	if qv.Submitted == 0 || qv.DedupHits == 0 || len(qv.Tenants) != 4 {
		t.Errorf("the submissions did not exercise admission and dedup: %+v", qv)
	}
}

// Every live /metrics scrape audits clean: snapshots taken in a loop
// while jobs complete on several workers never break the service's
// conservation laws, because one source emits all svc/* series from
// one hold of the coordinator's lock.
func TestLiveSnapshotsAuditCleanWhileJobsComplete(t *testing.T) {
	reg := obsv.NewRegistry()
	pool := runner.New(runner.Options{Parallelism: 4, Exec: func(cfg sim.Config) (*sim.Result, error) {
		return stubResult(cfg), nil
	}})
	reg.Source(pool.CountersInto)
	co, err := New(Options{Pool: pool, Registry: reg, QueueDepth: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	stop := make(chan struct{})
	done := make(chan struct{})
	var snaps, dirty int
	var first []obsv.AuditViolation
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			snaps++
			if v := obsv.Audit(reg.Snapshot()); len(v) > 0 {
				if dirty++; first == nil {
					first = v
				}
			}
		}
	}()
	const jobs = 2000
	for i := 0; i < jobs; i++ {
		if _, err := co.Submit(runner.Job{Config: cfgSeed(int64(i + 1))}, "alice", 0); err != nil {
			t.Fatal(err)
		}
	}
	for qv := co.Queue(); qv.Completed < jobs; qv = co.Queue() {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	if dirty > 0 {
		t.Fatalf("%d of %d live snapshots failed the audit; first: %v", dirty, snaps, first)
	}
	snap := reg.Snapshot()
	if snap.Counters[obsv.MetricSvcCompleted] != jobs || snap.Counters[obsv.MetricBenchExecuted] != jobs {
		t.Fatalf("final snapshot: %d completed, %d executed, want %d each",
			snap.Counters[obsv.MetricSvcCompleted], snap.Counters[obsv.MetricBenchExecuted], jobs)
	}
}

// Tenant series exist exactly for the tenants /queue lists. A
// submission that deduplicates onto an existing job charges no tenant,
// so client-chosen tenant names on dedup hits add no series.
func TestTenantSeriesMatchQueueTenants(t *testing.T) {
	reg := obsv.NewRegistry()
	var execs atomic.Int64
	co, err := New(Options{Pool: countingPool(&execs), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	s1, err := co.Submit(runner.Job{Config: cfgSeed(1)}, "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, co, s1.Job.ID)
	for i := 0; i < 5000; i++ {
		s, err := co.Submit(runner.Job{Config: cfgSeed(1)}, fmt.Sprintf("tenant-%d", i), 0)
		if err != nil || !s.CacheHit {
			t.Fatalf("submission %d: %+v, %v", i, s, err)
		}
	}

	snap, qv := reg.Snapshot(), co.Queue()
	want := map[string]bool{}
	for name := range qv.Tenants {
		want["svc/tenant/"+name+"/admitted"] = true
		want["svc/tenant/"+name+"/rejected"] = true
	}
	var got int
	var stray []string
	for name := range snap.Counters {
		if !strings.HasPrefix(name, "svc/tenant/") {
			continue
		}
		got++
		if !want[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		t.Fatalf("%d tenant series name a tenant /queue does not list, such as %s", len(stray), stray[0])
	}
	if got != len(want) || len(qv.Tenants) != 1 {
		t.Fatalf("%d tenant series for /queue's %d tenants (%v), want %d", got, len(qv.Tenants), qv.Tenants, len(want))
	}
	if len(snap.Counters) != 12 {
		t.Errorf("registry holds %d series, want the 10 svc/* and alice's 2", len(snap.Counters))
	}
}

// "tempo" and "" both name the default machine, so a submission under
// one spelling deduplicates onto the job the other made.
func TestSubmitDedupsMechSpellings(t *testing.T) {
	var execs atomic.Int64
	co, err := New(Options{Pool: countingPool(&execs)})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	cfg := cfgSeed(5)
	s1, err := co.Submit(runner.Job{Config: cfg}, "alice", 0)
	if err != nil || !s1.Created {
		t.Fatalf("first submit: %+v, %v", s1, err)
	}
	waitDone(t, co, s1.Job.ID)
	cfg.Mech = "tempo"
	s2, err := co.Submit(runner.Job{Config: cfg}, "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Created || !s2.CacheHit || s2.Job.ID != s1.Job.ID {
		t.Fatalf(`Mech "tempo" submission did not dedup onto the Mech "" job: %+v`, s2)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("executed %d simulations, want 1", n)
	}
}
