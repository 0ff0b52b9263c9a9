package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/obsv/serve"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/service"
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

// testServer assembles coordinator + HTTP plane the way tempo-serve
// does, returning the coordinator and a test server.
func testServer(t *testing.T, opts service.Options) (*service.Coordinator, *httptest.Server) {
	t.Helper()
	co, err := service.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Options{Events: co.Events()})
	service.NewAPI(co).Register(srv)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		co.Close()
	})
	return co, ts
}

// Two concurrent clients submitting the same config share one
// execution and read identical results; after a server restart on the
// same journal and cache, a third submission is answered as a cache
// hit without re-running.
func TestEndToEndSharedExecutionAndRestart(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "queue.jsonl")
	cache, err := runner.NewDiskCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	exec := func(cfg sim.Config) (*sim.Result, error) {
		execs.Add(1)
		time.Sleep(20 * time.Millisecond) // wide submit window for the race
		return stubResult(cfg), nil
	}
	pool := runner.New(runner.Options{Parallelism: 2, Cache: cache, Exec: exec})
	_, ts := testServer(t, service.Options{Pool: pool, JournalPath: journal})

	ctx := context.Background()
	type outcome struct {
		id  string
		res *sim.Result
		err error
	}
	run := func(tenant string, ch chan<- outcome) {
		c := &Client{Base: ts.URL, Tenant: tenant, Poll: 5 * time.Millisecond}
		resp, err := c.Submit(ctx, runner.Job{Config: cfgSeed(42)})
		if err != nil {
			ch <- outcome{err: err}
			return
		}
		st, err := c.Wait(ctx, resp.Job.ID)
		if err != nil {
			ch <- outcome{err: err}
			return
		}
		ch <- outcome{id: resp.Job.ID, res: st.Result}
	}
	ch := make(chan outcome, 2)
	go run("alice", ch)
	go run("bob", ch)
	a, b := <-ch, <-ch
	if a.err != nil || b.err != nil {
		t.Fatalf("client errors: %v, %v", a.err, b.err)
	}
	if a.id != b.id {
		t.Fatalf("concurrent submissions got different jobs: %s vs %s", a.id, b.id)
	}
	if a.res == nil || b.res == nil || a.res.Total.Cycles != 42 || b.res.Total.Cycles != 42 {
		t.Fatalf("results differ or missing: %+v vs %+v", a.res, b.res)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("executed %d simulations for one config, want 1", n)
	}

	// Restart: fresh coordinator and server over the same journal+cache.
	pool2 := runner.New(runner.Options{Parallelism: 2, Cache: cache, Exec: func(cfg sim.Config) (*sim.Result, error) {
		t.Error("restarted server re-ran a cached config")
		return stubResult(cfg), nil
	}})
	_, ts2 := testServer(t, service.Options{Pool: pool2, JournalPath: journal})
	c := &Client{Base: ts2.URL, Tenant: "carol"}
	resp, err := c.Submit(ctx, runner.Job{Config: cfgSeed(42)})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit || resp.Created {
		t.Fatalf("post-restart submit: %+v, want cacheHit", resp)
	}
	st, err := c.Job(ctx, resp.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Result == nil || st.Result.Total.Cycles != 42 {
		t.Fatalf("post-restart result: %+v", st.Result)
	}
}

// An over-quota tenant gets 429 with a Retry-After hint while another
// tenant's submissions proceed.
func TestQuota429RetryAfterOverHTTP(t *testing.T) {
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
	_, ts := testServer(t, service.Options{
		Pool: pool, TenantQuota: 1, RetryAfter: 3 * time.Second,
	})

	post := func(seed int64, tenant string) *http.Response {
		t.Helper()
		cfg := cfgSeed(seed)
		blob, _ := json.Marshal(service.SubmitRequest{Config: &cfg, Tenant: tenant})
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post(1, "alice"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	<-started
	resp := post(2, "alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	if resp := post(3, "bob"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("other tenant blocked: %d", resp.StatusCode)
	}
}

// The per-job SSE stream reports the job's current state immediately
// and always ends with a terminal event.
func TestJobEventsStream(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{})
	pool := runner.New(runner.Options{Parallelism: 1, Exec: func(cfg sim.Config) (*sim.Result, error) {
		close(started)
		<-gate
		return stubResult(cfg), nil
	}})
	_, ts := testServer(t, service.Options{Pool: pool})

	c := &Client{Base: ts.URL}
	resp, err := c.Submit(context.Background(), runner.Job{Config: cfgSeed(1)})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	stream, err := http.Get(ts.URL + "/jobs/" + resp.Job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type %q", ct)
	}
	events := make(chan service.Event, 16)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(stream.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev service.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Errorf("bad event line %q: %v", line, err)
				return
			}
			events <- ev
		}
	}()
	first := <-events
	if first.Job != resp.Job.ID || first.State != service.StateRunning {
		t.Fatalf("first event = %+v, want running", first)
	}
	close(gate)
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("stream ended without a terminal event")
			}
			if ev.State.Terminal() {
				if ev.State != service.StateCompleted {
					t.Fatalf("terminal event = %+v", ev)
				}
				return
			}
		case <-deadline:
			t.Fatal("no terminal event")
		}
	}
}

// Streaming a job that is already terminal emits exactly one event and
// closes.
func TestJobEventsStreamTerminalJob(t *testing.T) {
	pool := runner.New(runner.Options{Parallelism: 1, Exec: func(cfg sim.Config) (*sim.Result, error) {
		return stubResult(cfg), nil
	}})
	_, ts := testServer(t, service.Options{Pool: pool})
	c := &Client{Base: ts.URL, Poll: 2 * time.Millisecond}
	resp, err := c.Submit(context.Background(), runner.Job{Config: cfgSeed(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(context.Background(), resp.Job.ID); err != nil {
		t.Fatal(err)
	}
	stream, err := http.Get(ts.URL + "/jobs/" + resp.Job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	body := new(strings.Builder)
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() { // the handler returns after the terminal event
		body.WriteString(sc.Text())
		body.WriteString("\n")
	}
	if n := strings.Count(body.String(), "data: "); n != 1 {
		t.Fatalf("events = %d, want exactly 1:\n%s", n, body)
	}
	if !strings.Contains(body.String(), `"state":"completed"`) {
		t.Fatalf("missing terminal event:\n%s", body)
	}
}

// A named sweep expands into many jobs; re-submitting the same sweep
// after completion is answered entirely from cache.
func TestSweepSubmission(t *testing.T) {
	cache, err := runner.NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(runner.Options{Parallelism: 4, Cache: cache, Exec: func(cfg sim.Config) (*sim.Result, error) {
		return stubResult(cfg), nil
	}})
	_, ts := testServer(t, service.Options{Pool: pool})

	submit := func() (service.SubmitResponse, int) {
		t.Helper()
		blob, _ := json.Marshal(service.SubmitRequest{Sweep: "fig15", Scale: "quick", Tenant: "alice"})
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr service.SubmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr, resp.StatusCode
	}
	sr, status := submit()
	if status != http.StatusCreated || len(sr.Jobs) == 0 || !sr.Created {
		t.Fatalf("sweep submit: status %d resp %+v", status, sr)
	}
	c := &Client{Base: ts.URL, Poll: 2 * time.Millisecond}
	for _, j := range sr.Jobs {
		if _, err := c.Wait(context.Background(), j.ID); err != nil {
			t.Fatal(err)
		}
	}
	sr2, status2 := submit()
	if status2 != http.StatusOK || !sr2.CacheHit || sr2.Created {
		t.Fatalf("re-submitted sweep: status %d resp %+v", status2, sr2)
	}
	if len(sr2.Jobs) != len(sr.Jobs) {
		t.Fatalf("sweep sizes differ: %d vs %d", len(sr2.Jobs), len(sr.Jobs))
	}
}

// The client engine drives a whole batch through the service and
// reassembles runner.JobResults in input order.
func TestClientEngineRun(t *testing.T) {
	pool := runner.New(runner.Options{Parallelism: 2, Exec: func(cfg sim.Config) (*sim.Result, error) {
		return stubResult(cfg), nil
	}})
	_, ts := testServer(t, service.Options{Pool: pool})
	c := &Client{Base: ts.URL, Poll: 2 * time.Millisecond}
	jobs := []runner.Job{
		{Key: "a", Config: cfgSeed(1)},
		{Key: "b", Config: cfgSeed(2)},
		{Key: "c", Config: cfgSeed(3)},
	}
	results := c.Run(context.Background(), jobs)
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Key != jobs[i].Key || r.Err != nil || r.Result == nil {
			t.Fatalf("result %d: %+v", i, r)
		}
		if r.Result.Total.Cycles != uint64(i+1) {
			t.Errorf("%s: cycles = %d", r.Key, r.Result.Total.Cycles)
		}
	}
}

// A sweep run through the service records its declared pairs: mech01
// submitted through the client lands in the server's runs.jsonl under
// its figure keys, each variant with its baseline's hash, and the pairs
// table over that log lists every variant.
func TestSweepThroughServiceRecordsPairs(t *testing.T) {
	s := experiments.QuickScale()
	s.Records = 4_000
	s.Footprint = 128 << 20
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
	pool := runner.New(runner.Options{Parallelism: 2, Cache: cache, Telemetry: &runner.Telemetry{JSONL: log}})
	_, ts := testServer(t, service.Options{Pool: pool})

	r := experiments.NewRunner(s)
	r.Mechs = []string{"tempo", "victima"}
	r.Engine = &Client{Base: ts.URL, Poll: 5 * time.Millisecond}
	f, _ := experiments.ByID("mech01")
	if _, err := r.RunFigure(f); err != nil {
		t.Fatal(err)
	}
	d, err := report.Load(runsPath, dir, "")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, row := range report.PairTable(d).Rows {
		listed[row.Label] = true
	}
	variants := 0
	for _, key := range d.Keys() {
		if !strings.HasPrefix(key, "mech/") {
			continue
		}
		variants++
		if d.Get(key).Base == "" {
			t.Errorf("%s: the server's runs.jsonl line carries no base", key)
		}
		if !listed[key] {
			t.Errorf("%s: missing from the pairs table", key)
		}
	}
	// 2 workloads × tempo and victima.
	if variants != 4 {
		t.Errorf("%d mech/ lines in the server's runs.jsonl, want 4: %v", variants, d.Keys())
	}
}
