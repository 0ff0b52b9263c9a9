// Package client is the Go client for a tempo-serve instance and a
// remote experiments.Engine: it submits every simulation in a batch to
// the service's job API, honours its backpressure (429 + Retry-After),
// polls jobs to completion and reassembles runner.JobResults — so
// `tempo-bench -submit http://host:port` runs a whole figure sweep
// through a shared fleet-wide queue and result cache instead of a
// local pool.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/runner"
	"repro/internal/service"
)

// Client talks to one tempo-serve base URL. The zero value is not
// usable; set Base. All methods are safe for concurrent use.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8347".
	Base string
	// HTTP overrides the transport (default http.DefaultClient).
	HTTP *http.Client
	// Tenant names this client in the server's quota accounting
	// (default "default", applied server-side).
	Tenant string
	// Priority is attached to every submission (higher runs first).
	Priority int
	// Poll is the job-status poll interval (default 250ms).
	Poll time.Duration
}

// RetryError reports a submission the server rejected with 429; After
// carries its Retry-After hint.
type RetryError struct {
	After time.Duration
	Msg   string
}

// Error implements error.
func (e *RetryError) Error() string {
	return fmt.Sprintf("%s (retry after %v)", e.Msg, e.After)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) poll() time.Duration {
	if c.Poll > 0 {
		return c.Poll
	}
	return 250 * time.Millisecond
}

// do round-trips one JSON request, decoding the response into out and
// mapping 429 onto *RetryError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		after := time.Second
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			after = time.Duration(s) * time.Second
		}
		return &RetryError{After: after, Msg: errorMsg(blob, resp.Status)}
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("client: %s %s: %s", method, path, errorMsg(blob, resp.Status))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(blob, out); err != nil {
		return fmt.Errorf("client: %s %s: decoding response: %w", method, path, err)
	}
	return nil
}

// errorMsg extracts the server's error field, falling back to the
// HTTP status line.
func errorMsg(blob []byte, status string) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(blob, &e) == nil && e.Error != "" {
		return e.Error
	}
	return status
}

// Submit submits one job's configuration under its Key and Base
// labels, retrying while the server applies backpressure (sleeping
// each rejection's Retry-After) until ctx ends.
func (c *Client) Submit(ctx context.Context, j runner.Job) (service.SubmitResponse, error) {
	req := service.SubmitRequest{Config: &j.Config, Key: j.Key, Base: j.Base, Tenant: c.Tenant, Priority: c.Priority}
	for {
		var resp service.SubmitResponse
		err := c.do(ctx, http.MethodPost, "/jobs", req, &resp)
		var re *RetryError
		if errors.As(err, &re) {
			select {
			case <-ctx.Done():
				return service.SubmitResponse{}, ctx.Err()
			case <-time.After(re.After):
				continue
			}
		}
		return resp, err
	}
}

// Job fetches one job's status (and result, once completed).
func (c *Client) Job(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, &st)
	return st, err
}

// Cancel cancels a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/jobs/"+id, nil, nil)
}

// Queue fetches the server's admin queue snapshot.
func (c *Client) Queue(ctx context.Context) (service.QueueView, error) {
	var qv service.QueueView
	err := c.do(ctx, http.MethodGet, "/queue", nil, &qv)
	return qv, err
}

// Wait polls a job until it reaches a terminal state (or ctx ends),
// returning its final status.
func (c *Client) Wait(ctx context.Context, id string) (service.JobStatus, error) {
	tick := time.NewTicker(c.poll())
	defer tick.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return st, err
		}
		if st.Job.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-tick.C:
		}
	}
}

// Run implements experiments.Engine: it submits every job, then waits
// each to completion, returning one JobResult per job in input order
// (the batch is already deduplicated by the enumeration pass). A
// submission the server keeps rejecting surfaces as that job's error;
// a cancelled ctx marks the unwaited remainder.
func (c *Client) Run(ctx context.Context, jobs []runner.Job) []runner.JobResult {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]runner.JobResult, len(jobs))
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		resp, err := c.Submit(ctx, j)
		if err != nil {
			results[i] = runner.JobResult{Key: j.Key, Err: err}
			continue
		}
		if resp.Job == nil {
			results[i] = runner.JobResult{Key: j.Key, Err: fmt.Errorf("client: submit %s: no job in response", j.Key)}
			continue
		}
		ids[i] = resp.Job.ID
	}
	for i, j := range jobs {
		if ids[i] == "" {
			continue
		}
		results[i] = c.wait(ctx, j, ids[i])
	}
	return results
}

// wait blocks until job j, submitted as id, finishes and shapes the
// outcome as a runner.JobResult.
func (c *Client) wait(ctx context.Context, j runner.Job, id string) runner.JobResult {
	st, err := c.Wait(ctx, id)
	if err != nil {
		return runner.JobResult{Key: j.Key, Base: j.Base, Err: err}
	}
	r := runner.JobResult{
		Key:       j.Key,
		Hash:      st.Job.Hash,
		Base:      j.Base,
		Wall:      time.Duration(st.Job.WallMS * float64(time.Millisecond)),
		FromCache: st.Job.CacheHit,
	}
	switch st.Job.State {
	case service.StateCompleted:
		if st.Result == nil {
			r.Err = fmt.Errorf("client: job %s completed but the server holds no result", id)
		} else {
			r.Result = st.Result
		}
	case service.StateCanceled:
		r.Err = fmt.Errorf("client: job %s: %w", id, context.Canceled)
	default:
		r.Err = fmt.Errorf("client: job %s failed: %s", id, st.Job.Err)
	}
	return r
}
