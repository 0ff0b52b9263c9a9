// Package service is the simulation-as-a-service core behind
// cmd/tempo-serve: a job coordinator that accepts simulation
// configurations from many clients (POST /jobs), enqueues them under
// per-tenant quotas and priorities with bounded-depth backpressure,
// and executes them on a fleet of worker goroutines through the
// internal/runner pool — so every result lands in (and duplicate
// submissions are answered from) the shared content-addressed result
// cache, keyed by the existing config hash. Job lifecycle is exposed
// over the PR-4 introspection plane (see API.Register), streamed as
// Server-Sent Events, and journaled to disk so a restarted coordinator
// resumes unfinished jobs and keeps answering completed ones without
// re-running them. SERVICE.md is the operator-facing reference.
package service

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obsv"
	"repro/internal/obsv/serve"
	"repro/internal/runner"
	"repro/internal/sim"
)

// State is a job's lifecycle state. Every accepted job is in exactly
// one state; queued and running are live, the rest are terminal.
type State string

// Job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCanceled
}

// Submission errors the HTTP layer maps to status codes.
var (
	// ErrQuotaExceeded rejects a submission whose tenant is at its
	// concurrent-job quota (HTTP 429 + Retry-After).
	ErrQuotaExceeded = errors.New("service: tenant quota exceeded")
	// ErrQueueFull rejects a submission when the queue is at capacity
	// (HTTP 429 + Retry-After) — the coordinator's backpressure.
	ErrQueueFull = errors.New("service: queue full")
	// ErrNotFound names an unknown job ID (HTTP 404).
	ErrNotFound = errors.New("service: no such job")
	// ErrTerminal rejects cancelling an already-finished job (HTTP 409).
	ErrTerminal = errors.New("service: job already finished")
	// ErrClosed rejects submissions to a coordinator that is shutting
	// down (HTTP 503).
	ErrClosed = errors.New("service: coordinator closed")
)

// job is one accepted submission. All fields are guarded by the
// coordinator's mutex except cfg/hash/id/key/base/seq/done, which are
// immutable after creation. key and base are the submission's labels
// for the pool's runs.jsonl (runner.Job.Key and Base).
type job struct {
	id        string
	hash      string
	key, base string
	tenant    string
	priority  int
	seq       uint64
	state     State
	cfg       sim.Config
	submitted time.Time
	started   time.Time
	finished  time.Time
	cacheHit  bool
	errMsg    string
	wallMS    float64
	res       *sim.Result

	heapIdx         int
	cancel          context.CancelFunc
	cancelRequested bool
	done            chan struct{}
}

// JobView is the wire representation of one job record (GET
// /jobs/{id}, /queue, submit responses).
type JobView struct {
	ID          string     `json:"id"`
	Hash        string     `json:"hash"`
	Tenant      string     `json:"tenant"`
	Priority    int        `json:"priority"`
	State       State      `json:"state"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// WallMS is the execution wall-clock (zero for cache hits).
	WallMS float64 `json:"wall_ms,omitempty"`
	// CacheHit reports the persistent result cache supplied the result
	// without executing a simulation.
	CacheHit bool   `json:"cacheHit"`
	Err      string `json:"err,omitempty"`
}

// Event is one job-lifecycle line on the SSE streams (and the global
// /events feed). Job is always the first JSON field, so per-job
// subscribers can filter with a prefix match instead of parsing.
type Event struct {
	Job      string  `json:"job"`
	State    State   `json:"state"`
	Tenant   string  `json:"tenant,omitempty"`
	Hash     string  `json:"hash,omitempty"`
	CacheHit bool    `json:"cacheHit,omitempty"`
	Err      string  `json:"err,omitempty"`
	WallMS   float64 `json:"wall_ms,omitempty"`
}

// TenantView is one tenant's admission accounting in the /queue view.
type TenantView struct {
	// Active is the tenant's live (queued + running) job count — the
	// population the quota bounds.
	Active   int    `json:"active"`
	Admitted uint64 `json:"admitted"`
	Rejected uint64 `json:"rejected"`
}

// QueueView is the admin snapshot served by GET /queue.
type QueueView struct {
	Depth                int                   `json:"depth"`    // queued jobs
	Capacity             int                   `json:"capacity"` // queue bound
	Running              int                   `json:"running"`
	Workers              int                   `json:"workers"`
	Submitted            uint64                `json:"submitted"`
	Completed            uint64                `json:"completed"`
	Failed               uint64                `json:"failed"`
	Canceled             uint64                `json:"canceled"`
	CacheHits            uint64                `json:"cache_hits"`
	DedupHits            uint64                `json:"dedup_hits"`
	RejectedQuota        uint64                `json:"rejected_quota"`
	RejectedBackpressure uint64                `json:"rejected_backpressure"`
	Tenants              map[string]TenantView `json:"tenants"`
	// Jobs lists the live (queued and running) jobs in dispatch order.
	Jobs []JobView `json:"jobs"`
}

// tenantState is one tenant's admission accounting.
type tenantState struct {
	active   int
	admitted uint64
	rejected uint64
}

// Options configures a Coordinator.
type Options struct {
	// Pool executes the jobs (required) on Pool.Parallelism() worker
	// goroutines. Its cache is the shared content-addressed result
	// store, which also answers journal-replayed completed jobs; its
	// telemetry feeds runs.jsonl.
	Pool *runner.Pool
	// QueueDepth bounds the number of queued jobs (default 256);
	// submissions beyond it are rejected with ErrQueueFull.
	QueueDepth int
	// TenantQuota bounds one tenant's live (queued + running) jobs;
	// 0 means unlimited.
	TenantQuota int
	// JournalPath, when set, persists the queue across restarts.
	JournalPath string
	// Registry, when set, receives the canonical svc/* metrics
	// (obsv.Audit checks their conservation law).
	Registry *obsv.Registry
	// Events, when set, receives job-lifecycle JSON lines (the
	// coordinator creates a private broadcaster otherwise).
	Events *serve.Broadcaster
	// RetryAfter is the hint returned with 429 rejections (default 1s).
	RetryAfter time.Duration
	// Now substitutes the clock in tests (default time.Now).
	Now func() time.Time
}

// Coordinator owns the job table, the admission queue and the worker
// fleet. All exported methods are safe for concurrent use.
type Coordinator struct {
	opts   Options
	events *serve.Broadcaster
	jl     *journal

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[string]*job
	byHash  map[string]*job
	queue   jobQueue
	tenants map[string]*tenantState
	seq     uint64
	stopped bool
	wg      sync.WaitGroup

	// Lifecycle counters (under mu), the service's only counts: /queue
	// and the svc/* series both read them. submitted counts accepted
	// job records; the states partition it (the obsv.Audit law).
	submitted, completed, failed, canceled uint64
	cacheHits, dedupHits                   uint64
	rejectedQuota, rejectedQueue           uint64
	running                                int
}

// New builds a coordinator, replays its journal (if configured) and
// starts the worker fleet.
func New(opts Options) (*Coordinator, error) {
	if opts.Pool == nil {
		return nil, errors.New("service: Options.Pool is required")
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 256
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	c := &Coordinator{
		opts:    opts,
		events:  opts.Events,
		jobs:    make(map[string]*job),
		byHash:  make(map[string]*job),
		tenants: make(map[string]*tenantState),
	}
	c.cond = sync.NewCond(&c.mu)
	if c.events == nil {
		c.events = serve.NewBroadcaster()
	}
	if opts.JournalPath != "" {
		recs, err := readJournal(opts.JournalPath)
		if err != nil {
			return nil, err
		}
		if c.jl, err = openJournal(opts.JournalPath); err != nil {
			return nil, err
		}
		c.restore(recs)
	}
	opts.Registry.Source(c.metricsInto)
	for i := 0; i < opts.Pool.Parallelism(); i++ {
		c.wg.Add(1)
		go c.worker()
	}
	return c, nil
}

// Events returns the broadcaster carrying job-lifecycle lines — the
// source the SSE endpoints subscribe to.
func (c *Coordinator) Events() *serve.Broadcaster { return c.events }

// RetryAfter returns the backoff hint for 429 responses.
func (c *Coordinator) RetryAfter() time.Duration { return c.opts.RetryAfter }

func (c *Coordinator) now() time.Time {
	if c.opts.Now != nil {
		return c.opts.Now()
	}
	return time.Now()
}

// Submission is the outcome of an accepted submit.
type Submission struct {
	Job JobView
	// Created reports a new job record was made; false means the
	// submission deduplicated onto an existing record for the same
	// config hash.
	Created bool
	// CacheHit reports the submission was answered by an
	// already-completed record — no simulation will run for it.
	CacheHit bool
}

// Submit accepts one job's configuration for tenantName at the given
// priority. The job's Key and Base are labels for the pool's runs.jsonl
// line (the job ID stands in for an empty Key); they change neither
// the simulation nor deduplication. Submissions deduplicate on the
// config's content hash: a hash already queued or running attaches to
// that job (bumping its priority upward if the new submission's is
// higher), and a hash already completed is answered immediately, each
// keeping the labels it was first submitted with. Deduplicated
// submissions consume no quota or queue slot. A config that names a
// trace file is refused: job configs are untrusted, and a path would
// have the server open any file its client names. A tenant at its
// quota gets ErrQuotaExceeded; a full queue gets ErrQueueFull.
func (c *Coordinator) Submit(jb runner.Job, tenantName string, priority int) (Submission, error) {
	hash, err := admissible(jb.Config)
	if err != nil {
		return Submission{}, err
	}
	tenantName = tenantOrDefault(tenantName)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return Submission{}, ErrClosed
	}
	if prev := c.byHash[hash]; prev != nil && prev.state != StateFailed && prev.state != StateCanceled {
		c.dedupHits++
		if prev.state == StateQueued && priority > prev.priority {
			prev.priority = priority
			heap.Fix(&c.queue, prev.heapIdx)
		}
		return Submission{Job: c.viewLocked(prev), CacheHit: prev.state == StateCompleted}, nil
	}
	t := c.tenantOf(tenantName)
	if q := c.opts.TenantQuota; q > 0 && t.active >= q {
		t.rejected++
		c.rejectedQuota++
		return Submission{}, ErrQuotaExceeded
	}
	if len(c.queue) >= c.opts.QueueDepth {
		t.rejected++
		c.rejectedQueue++
		return Submission{}, ErrQueueFull
	}
	rec := journalRecord{
		Op: "submit", Tenant: tenantName, Priority: priority, Hash: hash,
		Key: jb.Key, Base: jb.Base, Config: &jb.Config, T: c.now(),
	}
	for rec.ID == "" || c.jobs[rec.ID] != nil {
		c.seq++
		rec.Seq, rec.ID = c.seq, fmt.Sprintf("%s-%d", hash[:12], c.seq)
	}
	j := c.admitLocked(rec)
	c.journalAppend(rec, true)
	c.broadcastLocked(j)
	c.cond.Signal()
	return Submission{Job: c.viewLocked(j), Created: true}, nil
}

// admissible returns cfg's config hash, or why the coordinator refuses
// to run cfg. Job configs are untrusted, from clients and from the
// journal alike, and a trace path would have the server open any file
// its client names.
func admissible(cfg sim.Config) (string, error) {
	for i, w := range cfg.Workloads {
		if w.TracePath != "" {
			return "", fmt.Errorf("service: workload %d names a trace file; jobs run generated workloads only", i)
		}
	}
	return runner.ConfigKey(cfg)
}

// tenantOrDefault names the tenant a submission without one is
// charged to.
func tenantOrDefault(name string) string {
	if name == "" {
		return "default"
	}
	return name
}

// admitLocked creates the queued job rec describes (rec.Hash must be
// rec.Config's ConfigKey), indexes it by ID and hash, enqueues it and
// counts it against its tenant. It returns nil and changes nothing
// when the table already holds rec.ID: no admission replaces a record.
// Caller holds mu.
func (c *Coordinator) admitLocked(rec journalRecord) *job {
	if c.jobs[rec.ID] != nil {
		return nil
	}
	j := &job{
		id: rec.ID, hash: rec.Hash, key: rec.Key, base: rec.Base, tenant: rec.Tenant,
		priority: rec.Priority, seq: rec.Seq, state: StateQueued,
		cfg: *rec.Config, submitted: rec.T, done: make(chan struct{}),
	}
	c.jobs[j.id] = j
	c.byHash[j.hash] = j
	heap.Push(&c.queue, j)
	c.seq = max(c.seq, j.seq)
	c.submitted++
	t := c.tenantOf(j.tenant)
	t.admitted++
	t.active++
	return j
}

// settleLocked applies the terminal state record rec to the live job
// j: it sets j's state and outcome fields from rec, counts the outcome,
// frees the tenant's slot, takes a queued job off the queue and closes
// done. Cancel, finish and journal replay all settle through it; the
// live callers journal and broadcast the result. Caller holds mu.
func (c *Coordinator) settleLocked(j *job, rec journalRecord) {
	if j.state == StateQueued {
		heap.Remove(&c.queue, j.heapIdx)
	}
	j.state, j.finished = rec.State, rec.T
	j.cacheHit, j.errMsg, j.wallMS = rec.CacheHit, rec.Err, rec.WallMS
	switch j.state {
	case StateCompleted:
		c.completed++
		if j.cacheHit {
			c.cacheHits++
		}
	case StateFailed:
		c.failed++
	case StateCanceled:
		c.canceled++
	}
	c.tenantOf(j.tenant).active--
	close(j.done)
}

// Cancel cancels a job: a queued job leaves the queue (freeing its
// tenant slot immediately), a running one has its context cancelled —
// the runner abandons the simulation and the job finishes as canceled.
func (c *Coordinator) Cancel(id string) error {
	c.mu.Lock()
	j := c.jobs[id]
	if j == nil {
		c.mu.Unlock()
		return ErrNotFound
	}
	switch j.state {
	case StateQueued:
		c.settleLocked(j, journalRecord{State: StateCanceled, T: c.now()})
		c.journalAppend(stateRecord(j), true)
		c.broadcastLocked(j)
		c.mu.Unlock()
		return nil
	case StateRunning:
		j.cancelRequested = true
		cancel := j.cancel
		c.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	default:
		c.mu.Unlock()
		return ErrTerminal
	}
}

// Job returns the wire view of one job.
func (c *Coordinator) Job(id string) (JobView, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.jobs[id]
	if j == nil {
		return JobView{}, false
	}
	return c.viewLocked(j), true
}

// Done returns a channel closed when the job reaches a terminal state
// (nil for unknown jobs). Jobs restored from the journal in a terminal
// state have an already-closed channel.
func (c *Coordinator) Done(id string) <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if j := c.jobs[id]; j != nil {
		return j.done
	}
	return nil
}

// Result returns a completed job's result: from memory when the job
// ran in this process, otherwise from the pool's persistent cache (the
// journal-replay path after a restart).
func (c *Coordinator) Result(id string) (*sim.Result, error) {
	c.mu.Lock()
	j := c.jobs[id]
	if j == nil {
		c.mu.Unlock()
		return nil, ErrNotFound
	}
	if j.state != StateCompleted {
		c.mu.Unlock()
		return nil, fmt.Errorf("service: job %s is %s, not completed", id, j.state)
	}
	res, hash := j.res, j.hash
	c.mu.Unlock()
	if res != nil {
		return res, nil
	}
	if cache := c.opts.Pool.Cache(); cache != nil {
		if res, ok := cache.Get(hash); ok {
			return res, nil
		}
	}
	return nil, fmt.Errorf("service: job %s completed but its cached result is gone", id)
}

// Queue snapshots the admin view.
func (c *Coordinator) Queue() QueueView {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := QueueView{
		Depth: len(c.queue), Capacity: c.opts.QueueDepth,
		Running: c.running, Workers: c.opts.Pool.Parallelism(),
		Submitted: c.submitted, Completed: c.completed,
		Failed: c.failed, Canceled: c.canceled,
		CacheHits: c.cacheHits, DedupHits: c.dedupHits,
		RejectedQuota: c.rejectedQuota, RejectedBackpressure: c.rejectedQueue,
		Tenants: make(map[string]TenantView, len(c.tenants)),
	}
	for name, t := range c.tenants {
		v.Tenants[name] = TenantView{Active: t.active, Admitted: t.admitted, Rejected: t.rejected}
	}
	for _, j := range c.jobs {
		if j.state == StateQueued || j.state == StateRunning {
			v.Jobs = append(v.Jobs, c.viewLocked(j))
		}
	}
	sort.Slice(v.Jobs, func(i, k int) bool {
		a, b := v.Jobs[i], v.Jobs[k]
		if (a.State == StateRunning) != (b.State == StateRunning) {
			return a.State == StateRunning
		}
		if a.Priority != b.Priority {
			return a.Priority > b.Priority
		}
		return a.SubmittedAt.Before(b.SubmittedAt)
	})
	return v
}

// Close drains the coordinator: no new submissions are accepted, idle
// workers exit, and in-flight simulations are abandoned, their jobs
// back on the queue without being marked terminal — the journal still
// shows them running, so the next start re-queues them (the same
// crash-safe resume path a kill takes).
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return nil
	}
	c.stopped = true
	var cancels []context.CancelFunc
	for _, j := range c.jobs {
		if j.state == StateRunning && j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	c.wg.Wait()
	return c.jl.Close()
}

// worker is one executor: it pops the highest-priority queued job,
// marks it running, and drives it through the runner pool (cache
// first, then a guarded execution).
func (c *Coordinator) worker() {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		for !c.stopped && len(c.queue) == 0 {
			c.cond.Wait()
		}
		if c.stopped {
			c.mu.Unlock()
			return
		}
		j := heap.Pop(&c.queue).(*job)
		j.state = StateRunning
		j.started = c.now()
		ctx, cancel := context.WithCancel(context.Background())
		j.cancel = cancel
		c.running++
		c.journalAppend(stateRecord(j), false)
		c.broadcastLocked(j)
		c.mu.Unlock()

		key := j.key
		if key == "" {
			key = j.id
		}
		r := c.opts.Pool.RunJob(ctx, runner.Job{Key: key, Config: j.cfg, Base: j.base})
		cancel()
		c.finish(j, r)
	}
}

// finish applies one execution outcome to the job table.
func (c *Coordinator) finish(j *job, r runner.JobResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j.cancel = nil
	c.running--
	if r.Err != nil && c.stopped && !j.cancelRequested {
		// Graceful shutdown abandoned the job mid-flight. Leave it
		// resumable: it goes back on the queue, which no worker reads
		// any more, and no terminal journal record is written, so
		// replay queues it again.
		j.state = StateQueued
		j.started = time.Time{}
		heap.Push(&c.queue, j)
		return
	}
	rec := journalRecord{
		State: StateCompleted, CacheHit: r.FromCache,
		WallMS: float64(r.Wall) / float64(time.Millisecond), T: c.now(),
	}
	switch {
	case r.Err != nil && (j.cancelRequested || errors.Is(r.Err, context.Canceled)):
		rec.State = StateCanceled
	case r.Err != nil:
		rec.State, rec.Err = StateFailed, r.Err.Error()
	default:
		j.res = r.Result
	}
	c.settleLocked(j, rec)
	c.journalAppend(stateRecord(j), true)
	c.broadcastLocked(j)
}

// restore rebuilds the job table from journal records through the
// paths live jobs take. A submit record is admitted as Submit admits a
// job, under its journaled ID and seq but with its hash recomputed; a
// record whose ID is already in the table is skipped. A terminal state
// record settles its job, and a running one changes nothing: a job in
// flight when the previous process stopped runs again from the queue,
// which orders it by priority, then seq. A job left unfinished goes
// through Submit's check once more, and one it refuses fails with the
// refusal, journaled so that the next replay finds it settled.
// Finished jobs stay as history, unchecked: they answer status and
// dedup lookups, with results from the pool's cache.
func (c *Coordinator) restore(recs []journalRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rec := range recs {
		switch rec.Op {
		case "submit":
			if rec.ID == "" || rec.Config == nil {
				continue
			}
			hash, err := runner.ConfigKey(*rec.Config)
			if err != nil {
				continue
			}
			rec.Hash, rec.Tenant = hash, tenantOrDefault(rec.Tenant)
			c.admitLocked(rec) // a repeated ID is skipped
		case "state":
			if j := c.jobs[rec.ID]; j != nil && !j.state.Terminal() && rec.State.Terminal() {
				c.settleLocked(j, rec)
			}
		}
	}
	for _, j := range append(jobQueue(nil), c.queue...) {
		if _, err := admissible(j.cfg); err != nil {
			c.settleLocked(j, journalRecord{State: StateFailed, Err: err.Error(), T: c.now()})
			c.journalAppend(stateRecord(j), true)
		}
	}
}

// stateRecord builds the journal line for j's current state.
func stateRecord(j *job) journalRecord {
	return journalRecord{
		Op: "state", ID: j.id, State: j.state, CacheHit: j.cacheHit,
		Err: j.errMsg, WallMS: j.wallMS, T: j.finished,
	}
}

// journalAppend writes rec, surfacing failures on the event stream
// (a journal write failure degrades persistence, not serving).
func (c *Coordinator) journalAppend(rec journalRecord, sync bool) {
	if c.jl == nil {
		return
	}
	if err := c.jl.append(rec, sync); err != nil {
		fmt.Fprintf(c.events, `{"warning":%q}`+"\n", err.Error())
	}
}

// broadcastLocked emits j's current state on the event stream. Caller
// holds mu.
func (c *Coordinator) broadcastLocked(j *job) {
	writeEvent(c.events, eventOf(c.viewLocked(j)))
}

// viewLocked snapshots j for the wire. Caller holds mu.
func (c *Coordinator) viewLocked(j *job) JobView {
	v := JobView{
		ID: j.id, Hash: j.hash, Tenant: j.tenant, Priority: j.priority,
		State: j.state, SubmittedAt: j.submitted,
		WallMS: j.wallMS, CacheHit: j.cacheHit, Err: j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	return v
}

// tenantOf returns (creating if needed) a tenant's accounting. Caller
// holds mu.
func (c *Coordinator) tenantOf(name string) *tenantState {
	t := c.tenants[name]
	if t == nil {
		t = &tenantState{}
		c.tenants[name] = t
	}
	return t
}
