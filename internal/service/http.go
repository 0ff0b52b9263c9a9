package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/obsv/serve"
	"repro/internal/runner"
	"repro/internal/sim"
)

// SubmitRequest is the body of POST /jobs. Exactly one of Config and
// Sweep must be set: Config submits a single simulation, Sweep expands
// a named figure (experiments.ByID) into its full deduplicated job
// list and submits every configuration.
type SubmitRequest struct {
	Config *sim.Config `json:"config,omitempty"`
	// Key and Base label a Config submission's line in the server's
	// runs.jsonl, as runner.Job's fields do: Key names the run (the
	// job ID when empty) and Base is the config hash of the run it is
	// measured against. A sweep labels its jobs itself.
	Key  string `json:"key,omitempty"`
	Base string `json:"base,omitempty"`
	// Sweep names a figure/ablation ID ("fig10", "abl-prio", ...).
	Sweep string `json:"sweep,omitempty"`
	// Scale picks the sweep's working-set scale: "quick" (default) or
	// "full".
	Scale    string `json:"scale,omitempty"`
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
}

// SubmitResponse is the body answering POST /jobs.
type SubmitResponse struct {
	// Job is the record the submission landed on (single-config
	// submissions only).
	Job *JobView `json:"job,omitempty"`
	// Created reports a new job record was made; false means the
	// submission deduplicated onto an existing one.
	Created bool `json:"created"`
	// CacheHit reports the job is already completed — the result is
	// immediately available from GET /jobs/{id} with no simulation run.
	CacheHit bool `json:"cacheHit"`
	// Sweep and Jobs are set for sweep submissions: every job the sweep
	// expanded into (some possibly deduplicated or already complete).
	Sweep string    `json:"sweep,omitempty"`
	Jobs  []JobView `json:"jobs,omitempty"`
	Error string    `json:"error,omitempty"`
}

// JobStatus is the body answering GET /jobs/{id}.
type JobStatus struct {
	Job JobView `json:"job"`
	// Result is attached once the job completes (from memory or the
	// persistent cache).
	Result *sim.Result `json:"result,omitempty"`
}

// API adapts a Coordinator to the introspection server's mux.
type API struct {
	co *Coordinator
}

// NewAPI wraps a coordinator for HTTP serving.
func NewAPI(co *Coordinator) *API { return &API{co: co} }

// Register mounts the job API on an introspection server:
//
//	POST   /jobs              submit a config or named sweep
//	GET    /jobs/{id}         job status (+ result when completed)
//	DELETE /jobs/{id}         cancel a queued or running job
//	GET    /jobs/{id}/events  per-job lifecycle SSE stream
//	GET    /queue             queue/tenant admin snapshot
func (a *API) Register(s *serve.Server) {
	s.Handle("POST /jobs", "submit a simulation config or sweep (JSON)", http.HandlerFunc(a.submit))
	s.Handle("GET /jobs/{id}", "job status + result (JSON)", http.HandlerFunc(a.job))
	s.Handle("DELETE /jobs/{id}", "cancel a job", http.HandlerFunc(a.cancel))
	s.Handle("GET /jobs/{id}/events", "per-job lifecycle SSE stream", http.HandlerFunc(a.jobEvents))
	s.Handle("GET /queue", "queue and tenant admin view (JSON)", http.HandlerFunc(a.queue))
}

func (a *API) submit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, 8<<20)
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, SubmitResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if (req.Config == nil) == (req.Sweep == "") {
		writeJSON(w, http.StatusBadRequest, SubmitResponse{Error: "exactly one of config and sweep must be set"})
		return
	}
	if req.Sweep != "" {
		a.submitSweep(w, req)
		return
	}
	sub, err := a.co.Submit(runner.Job{Key: req.Key, Config: *req.Config, Base: req.Base}, req.Tenant, req.Priority)
	if err != nil {
		a.submitError(w, err, SubmitResponse{})
		return
	}
	status := http.StatusOK
	if sub.Created {
		status = http.StatusCreated
	}
	writeJSON(w, status, SubmitResponse{Job: &sub.Job, Created: sub.Created, CacheHit: sub.CacheHit})
}

// submitSweep expands a named figure into its job list and submits
// every configuration. A mid-sweep rejection (quota, backpressure)
// returns 429 with the jobs accepted so far — those stay queued; the
// client retries the same sweep after Retry-After and the accepted
// prefix deduplicates onto the existing records.
func (a *API) submitSweep(w http.ResponseWriter, req SubmitRequest) {
	fig, ok := experiments.ByID(req.Sweep)
	if !ok {
		writeJSON(w, http.StatusBadRequest, SubmitResponse{Error: "unknown sweep " + strconv.Quote(req.Sweep)})
		return
	}
	scale := experiments.QuickScale()
	switch req.Scale {
	case "", "quick":
	case "full":
		scale = experiments.FullScale()
	default:
		writeJSON(w, http.StatusBadRequest, SubmitResponse{Error: "unknown scale " + strconv.Quote(req.Scale) + " (want quick or full)"})
		return
	}
	jobs, err := experiments.NewRunner(scale).Enumerate(fig)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, SubmitResponse{Error: "sweep enumeration: " + err.Error()})
		return
	}
	resp := SubmitResponse{Sweep: fig.ID}
	anyCreated, allCached := false, true
	for _, jb := range jobs {
		sub, err := a.co.Submit(jb, req.Tenant, req.Priority)
		if err != nil {
			a.submitError(w, err, resp)
			return
		}
		resp.Jobs = append(resp.Jobs, sub.Job)
		anyCreated = anyCreated || sub.Created
		allCached = allCached && sub.CacheHit
	}
	resp.Created = anyCreated
	resp.CacheHit = allCached && len(resp.Jobs) > 0
	status := http.StatusOK
	if anyCreated {
		status = http.StatusCreated
	}
	writeJSON(w, status, resp)
}

// submitError maps a Submit failure onto its status code, carrying any
// partial sweep state in resp.
func (a *API) submitError(w http.ResponseWriter, err error, resp SubmitResponse) {
	resp.Error = err.Error()
	switch {
	case errors.Is(err, ErrQuotaExceeded), errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(a.co.RetryAfter())))
		writeJSON(w, http.StatusTooManyRequests, resp)
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, resp)
	default:
		writeJSON(w, http.StatusBadRequest, resp)
	}
}

func (a *API) job(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := a.co.Job(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": ErrNotFound.Error()})
		return
	}
	st := JobStatus{Job: v}
	if v.State == StateCompleted {
		// A missing result (evicted cache after a restart) still
		// reports the completed status; re-submitting the config
		// re-runs it.
		st.Result, _ = a.co.Result(id)
	}
	writeJSON(w, http.StatusOK, st)
}

func (a *API) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch err := a.co.Cancel(id); {
	case err == nil:
		v, _ := a.co.Job(id)
		writeJSON(w, http.StatusOK, JobStatus{Job: v})
	case errors.Is(err, ErrNotFound):
		writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
	case errors.Is(err, ErrTerminal):
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
	}
}

func (a *API) queue(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.co.Queue())
}

// jobEvents streams one job's lifecycle as Server-Sent Events: the
// current state immediately, then every transition until terminal. It
// filters the coordinator's global broadcast by the event's leading
// `{"job":"<id>"` prefix (Event marshals Job first to make that
// cheap). The job's done channel backstops the stream: if a slow
// consumer's subscription dropped the terminal line, the final state
// is synthesized from the job table, so the stream always ends with a
// terminal event.
func (a *API) jobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := a.co.Job(id)
	if !ok {
		http.Error(w, ErrNotFound.Error(), http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	ch, cancel := a.co.Events().Subscribe()
	defer cancel()
	send := func(ev Event) {
		blob, err := json.Marshal(ev)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "data: %s\n\n", blob)
		fl.Flush()
	}
	send(eventOf(v))
	if v.State.Terminal() {
		return
	}
	prefix := []byte(`{"job":"` + id + `"`)
	done := a.co.Done(id)
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
		case <-done:
			if final, ok := a.co.Job(id); ok {
				send(eventOf(final))
			}
			return
		case line, ok := <-ch:
			if !ok {
				return
			}
			if !bytes.HasPrefix(line, prefix) {
				continue
			}
			var ev Event
			if json.Unmarshal(line, &ev) != nil || ev.Job != id {
				continue
			}
			send(ev)
			if ev.State.Terminal() {
				return
			}
		}
	}
}

// eventOf projects a job view onto the event wire shape.
func eventOf(v JobView) Event {
	ev := Event{Job: v.ID, State: v.State, Tenant: v.Tenant, Hash: v.Hash, CacheHit: v.CacheHit, Err: v.Err}
	if v.State.Terminal() {
		ev.WallMS = v.WallMS
	}
	return ev
}

// retryAfterSeconds renders a backoff hint in whole seconds (at least
// 1 — Retry-After has no sub-second form).
func retryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// Interface check: the coordinator's pool is the local engine the
// remote client mirrors.
var _ experiments.Engine = (*runner.Pool)(nil)
