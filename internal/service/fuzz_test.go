package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/runner"
	"repro/internal/sim"
)

// FuzzJobConfig posts arbitrary bodies to POST /jobs through
// API.submit, on a coordinator whose pool builds each job's system with
// sim.New and runs nothing. Every answer must be 2xx or 4xx, a job
// must end completed or failed — a configuration New rejects fails —
// without a panic, and the server must keep answering GET /queue.
func FuzzJobConfig(f *testing.F) {
	body := func(cfg sim.Config) []byte {
		b, err := json.Marshal(SubmitRequest{Config: &cfg})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(body(smallConfig(1)))
	for i, b := range badMachines {
		cfg := smallConfig(int64(i + 2))
		b.edit(&cfg)
		f.Add(body(cfg))
	}
	f.Add([]byte(`{"sweep":"fig10","scale":"quick"}`))
	f.Add([]byte(`{"config":{"Workloads":[{"Name":"xsbench"}],"Records":-1}}`))
	f.Add([]byte(`{"config":{"Workloads":[{"TracePath":"/dev/stdin"}],"Records":1000}}`))

	pool := runner.New(runner.Options{Parallelism: 1, Exec: func(cfg sim.Config) (*sim.Result, error) {
		if _, err := sim.New(cfg); err != nil {
			return nil, err
		}
		return &sim.Result{}, nil
	}})
	co, err := New(Options{Pool: pool})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { co.Close() })
	api := NewAPI(co)

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		api.submit(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		if rec.Code < 200 || rec.Code >= 500 {
			t.Fatalf("POST /jobs answered %d: %s", rec.Code, rec.Body)
		}
		var resp SubmitResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("POST /jobs answered %d with a body that is not a SubmitResponse: %v", rec.Code, err)
		}
		if resp.Job != nil {
			select {
			case <-co.Done(resp.Job.ID):
			case <-time.After(time.Minute):
				t.Fatalf("job %s never finished", resp.Job.ID)
			}
			v, _ := co.Job(resp.Job.ID)
			if (v.State != StateCompleted && v.State != StateFailed) || strings.Contains(v.Err, "panicked") {
				t.Fatalf("job ended %s: %s", v.State, v.Err)
			}
		}
		rec = httptest.NewRecorder()
		api.queue(rec, httptest.NewRequest(http.MethodGet, "/queue", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /queue after the submission answered %d: %s", rec.Code, rec.Body)
		}
	})
}

// FuzzJournalRestore starts a coordinator on arbitrary journal bytes,
// with a registry and a stub Exec on a one-worker pool, and waits until
// nothing is queued or running. It fails on a panic, on an Exec call
// whose config names a trace file, on an obsv.Audit violation of the
// svc/* series, or on a tenant left holding a live slot.
func FuzzJournalRestore(f *testing.F) {
	line := func(rec journalRecord) string {
		b, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		return string(b) + "\n"
	}
	cfg, traced := smallConfig(1), smallConfig(2)
	traced.Workloads[0].TracePath = "no-such.trc"
	submit := line(journalRecord{Op: "submit", ID: "a-1", Seq: 1, Tenant: "alice", Config: &cfg})
	f.Add([]byte(submit + line(journalRecord{Op: "state", ID: "a-1", State: StateCompleted})))
	f.Add([]byte(submit + line(journalRecord{Op: "submit", ID: "a-1", Seq: 2, Tenant: "bob", Config: &traced})))
	f.Add([]byte(line(journalRecord{Op: "submit", ID: "t-1", Seq: 1, Config: &traced})))
	f.Add([]byte(submit + `{"op":"submit","id":"torn`))

	f.Fuzz(func(t *testing.T, data []byte) {
		journal := filepath.Join(t.TempDir(), "queue.jsonl")
		if err := os.WriteFile(journal, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var tracedExec atomic.Bool
		pool := runner.New(runner.Options{Parallelism: 1, Exec: func(cfg sim.Config) (*sim.Result, error) {
			for _, w := range cfg.Workloads {
				if w.TracePath != "" {
					tracedExec.Store(true)
				}
			}
			return stubResult(cfg), nil
		}})
		reg := obsv.NewRegistry()
		co, err := New(Options{Pool: pool, JournalPath: journal, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer co.Close()
		deadline := time.Now().Add(time.Minute)
		qv := co.Queue()
		for qv.Depth+qv.Running > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("replayed jobs never drained: %+v", qv)
			}
			time.Sleep(time.Millisecond)
			qv = co.Queue()
		}
		if tracedExec.Load() {
			t.Fatal("a journaled config naming a trace file reached Exec")
		}
		if v := obsv.Audit(reg.Snapshot()); len(v) != 0 {
			t.Fatalf("audit violations: %v", v)
		}
		for name, tv := range qv.Tenants {
			if tv.Active != 0 {
				t.Fatalf("tenant %q holds %d live slots with nothing queued or running", name, tv.Active)
			}
		}
	})
}
