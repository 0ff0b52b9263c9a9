// Package serve is the live half of the observability plane: a
// stdlib-only HTTP introspection server that tempo-sim and tempo-bench
// attach with -http. It exposes
//
//   - /metrics — Prometheus text exposition rendered from a registry
//     snapshot (counter and source series as cumulative samples,
//     histograms as cumulative power-of-two buckets);
//   - /runs — live experiment-batch progress (done/cached/failed,
//     ETA) from the runner's telemetry;
//   - /events — a Server-Sent-Events stream of interval-stats and
//     runs.jsonl lines as they are produced;
//   - /debug/pprof/* — the standard Go profiling endpoints.
//
// The server only ever *reads* published state (atomic counters, the
// observer's last flushed snapshot, telemetry totals behind their own
// mutex), so attaching it perturbs neither the simulation's results
// nor its hot path — the simulator never blocks on a scrape.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/obsv"
	"repro/internal/runner"
)

// Options wires the server's data sources. Every field is optional;
// endpoints whose source is absent respond 404 with a hint.
type Options struct {
	// Metrics supplies the snapshot /metrics renders. Use
	// (*obsv.Observer).LastSnapshot for a live simulation (safe across
	// threads) or (*obsv.Registry).Snapshot for an all-atomic registry.
	Metrics func() obsv.Snapshot
	// Telemetry supplies /runs (live batch progress).
	Telemetry *runner.Telemetry
	// Events supplies the /events SSE stream.
	Events *Broadcaster
	// Meta is static run metadata shown on the index page.
	Meta map[string]string
}

// Server is the introspection HTTP server.
type Server struct {
	opts  Options
	mux   *http.ServeMux
	http  *http.Server
	ln    net.Listener
	extra []string // index lines for endpoints mounted via Handle
}

// New builds a server from options (it does not listen yet).
func New(opts Options) *Server {
	s := &Server{opts: opts, mux: http.NewServeMux()}
	s.mux.HandleFunc("/", s.index)
	s.mux.HandleFunc("/metrics", s.metrics)
	s.mux.HandleFunc("/runs", s.runs)
	s.mux.HandleFunc("/events", s.events)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.http = &http.Server{Handler: s.mux}
	return s
}

// Handler returns the server's routing handler (for tests and for
// embedding in an existing server).
func (s *Server) Handler() http.Handler { return s.mux }

// Handle mounts an additional endpoint on the server's mux — how
// tempo-serve grows the introspection plane into a job-serving API
// without a second listener. pattern is a net/http ServeMux pattern
// (method and wildcards allowed, e.g. "POST /jobs"); doc, when
// non-empty, adds a line to the index page so curl of the bare port
// stays self-documenting. Handle must be called before Start.
func (s *Server) Handle(pattern, doc string, h http.Handler) {
	s.mux.Handle(pattern, h)
	if doc != "" {
		s.extra = append(s.extra, fmt.Sprintf("  %-22s %s", pattern, doc))
	}
}

// Start listens on addr (":0" picks a free port) and serves in a
// background goroutine, returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: %w", err)
	}
	s.ln = ln
	go s.http.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the listener and closes active connections (including
// /events streams).
func (s *Server) Close() error { return s.http.Close() }

// index lists the endpoints, so curl of the bare port is self-documenting.
func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "tempo introspection server")
	for _, k := range sortedKeys(s.opts.Meta) {
		fmt.Fprintf(w, "  %s: %s\n", k, s.opts.Meta[k])
	}
	fmt.Fprintln(w, "endpoints:")
	fmt.Fprintln(w, "  /metrics       Prometheus text exposition")
	fmt.Fprintln(w, "  /runs          experiment batch progress (JSON)")
	fmt.Fprintln(w, "  /events        interval-stats SSE stream")
	fmt.Fprintln(w, "  /debug/pprof/  Go profiling")
	for _, line := range s.extra {
		fmt.Fprintln(w, line)
	}
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	if s.opts.Metrics == nil {
		http.Error(w, "no metrics source attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(w, s.opts.Metrics())
}

func (s *Server) runs(w http.ResponseWriter, r *http.Request) {
	if s.opts.Telemetry == nil {
		http.Error(w, "no runner telemetry attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.opts.Telemetry.Progress())
}

// events streams broadcast lines as Server-Sent Events until the
// client disconnects or the server closes.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	if s.opts.Events == nil {
		http.Error(w, "no event stream attached", http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	ch, cancel := s.opts.Events.Subscribe()
	defer cancel()
	// An initial comment line confirms the stream is live before the
	// first interval fires.
	fmt.Fprintf(w, ": tempo event stream\n\n")
	fl.Flush()
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	var delivered uint64
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			// Keep idle proxies from closing the stream; report drops
			// so a slow consumer knows its view has gaps.
			fmt.Fprintf(w, ": heartbeat delivered=%d dropped=%d\n\n",
				delivered, s.opts.Events.dropsOf(ch))
			fl.Flush()
		case line, ok := <-ch:
			if !ok {
				return
			}
			delivered++
			fmt.Fprintf(w, "data: %s\n\n", line)
			fl.Flush()
		}
	}
}

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4). Counter and source series become untyped
// cumulative samples; histograms become the classic cumulative-bucket
// triplet (_bucket{le=...}, _sum, _count) with bucket bounds from
// obsv.BucketUpper, so quantile queries work out of the box. Names are
// sanitised into the metric charset with a "tempo_" prefix
// ("core0/tlb/l1_hits/4k" → "tempo_core0_tlb_l1_hits_4k").
func WritePrometheus(w io.Writer, s obsv.Snapshot) error {
	var b strings.Builder
	for _, name := range s.Names() {
		m := promName(name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", m, m, s.Counters[name])
	}
	for _, name := range s.HistNames() {
		h := s.Hists[name]
		m := promName(name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", m)
		var cum uint64
		for i := 0; i < obsv.HistBuckets-1; i++ {
			n := h.Buckets[i]
			cum += n
			// Empty buckets are elided (le sets may be sparse); the
			// +Inf bucket below always closes the series.
			if n > 0 {
				fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", m, obsv.BucketUpper(i), cum)
			}
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m, h.Count)
		fmt.Fprintf(&b, "%s_sum %d\n", m, h.Sum)
		fmt.Fprintf(&b, "%s_count %d\n", m, h.Count)
	}
	_, err := w.Write([]byte(b.String()))
	return err
}

// promName maps a slash-hierarchy instrument name into the Prometheus
// metric-name charset.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("tempo_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
