package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

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
	co, err := New(Options{Pool: pool, Workers: 1})
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
