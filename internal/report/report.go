// Package report is the offline half of the observability plane: it
// joins the three artifacts a sweep leaves behind — the runs.jsonl
// telemetry log, the persistent result cache, and the per-config
// interval-stats series — on the config hash they share (the
// runner.ConfigKey that names cache entries, fills each runs.jsonl
// record's "hash" field, and names <obs-dir>/<hash>.jsonl), and
// renders cross-run summary tables, CPI stacks and counter audits
// from the joined view. cmd/tempo-report is the CLI.
package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/obsv"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Run is one simulation joined across the sweep artifacts.
type Run struct {
	// Key is the figure-level run key ("base/xsbench", "tempo/gups",
	// "f15/memcached/wait32", ...).
	Key string
	// Hash is the runner.ConfigKey content hash joining the artifacts;
	// empty when the sweep predates hash logging.
	Hash string
	// Base is the hash of the run this one is measured against, the
	// pair its figure declared; empty for a baseline, a run no figure
	// compares, and a log that predates declared pairs.
	Base string
	// Cached reports whether the job was served from the persistent
	// cache on its most recent appearance in runs.jsonl.
	Cached bool
	// WallMS is the job's wall-clock (0 for cache hits).
	WallMS float64
	// Err is the job's failure message, empty on success.
	Err string
	// Result is the cached simulation result; nil when the cache has
	// no entry under Hash (or no cache directory was given).
	Result *sim.Result
	// Series is the summed interval-stats series; nil when the run has
	// no <obs-dir>/<hash>.jsonl (cache hits do not re-execute, so they
	// produce no series).
	Series *Series
}

// Series is an interval-stats JSONL file reduced to totals: epoch
// count and every histogram summed across epochs (interval lines carry
// per-epoch deltas, so the sum reconstructs the whole-run histogram).
type Series struct {
	Epochs int
	Hists  map[string]obsv.HistSnapshot
}

// Data is a loaded sweep.
type Data struct {
	runs map[string]*Run
	// byHash indexes the runs by Hash, so a declared Base finds its
	// run whatever key the log named it under.
	byHash map[string]*Run
}

// Keys returns every run key in sorted order — the iteration order all
// renderers use, so output is deterministic.
func (d *Data) Keys() []string {
	keys := make([]string, 0, len(d.runs))
	for k := range d.runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Get returns the run under key, or nil.
func (d *Data) Get(key string) *Run { return d.runs[key] }

// Len returns the number of distinct run keys.
func (d *Data) Len() int { return len(d.runs) }

// runRecord mirrors the runner's runs.jsonl line layout.
type runRecord struct {
	Key    string  `json:"key"`
	Hash   string  `json:"hash"`
	Base   string  `json:"base"`
	Cached bool    `json:"cached"`
	WallMS float64 `json:"wall_ms"`
	Err    string  `json:"err"`
}

// Load joins a sweep: runsPath is the runs.jsonl log (required),
// cacheDir the persistent result cache root (optional, "" to skip
// results), obsDir the interval-stats directory (optional, "" to skip
// series). runs.jsonl may span several invocations of the same sweep
// (the runner appends); the last record per key wins, matching the
// cache's last-write-wins semantics.
func Load(runsPath, cacheDir, obsDir string) (*Data, error) {
	f, err := os.Open(runsPath)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	defer f.Close()

	d := &Data{runs: make(map[string]*Run), byHash: make(map[string]*Run)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("report: %s:%d: %w", runsPath, line, err)
		}
		if rec.Key == "" {
			continue
		}
		d.runs[rec.Key] = &Run{
			Key: rec.Key, Hash: rec.Hash, Base: rec.Base, Cached: rec.Cached,
			WallMS: rec.WallMS, Err: rec.Err,
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("report: %s: %w", runsPath, err)
	}

	var cache *runner.DiskCache
	if cacheDir != "" {
		cache, err = runner.NewDiskCache(cacheDir)
		if err != nil {
			return nil, err
		}
	}
	for _, r := range d.runs {
		if r.Hash == "" {
			continue
		}
		// Every run under one hash joins the same result and series.
		d.byHash[r.Hash] = r
		if cache != nil {
			if res, ok := cache.Get(r.Hash); ok {
				r.Result = res
			}
		}
		if obsDir != "" {
			if s, err := LoadSeries(filepath.Join(obsDir, r.Hash+".jsonl")); err == nil {
				r.Series = s
			}
		}
	}
	return d, nil
}

// seriesLine is the subset of an interval line the reducer needs.
type seriesLine struct {
	Hists map[string]struct {
		Buckets map[string]uint64 `json:"buckets"`
	} `json:"hists"`
}

// LoadSeries reads one interval-stats JSONL file and sums its
// per-epoch histogram deltas back into whole-run histograms. Sparse
// bucket keys are the inclusive upper bounds obsv.BucketUpper emits;
// the bucket index is recovered from the bound's bit length.
func LoadSeries(path string) (*Series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	defer f.Close()
	s := &Series{Hists: make(map[string]obsv.HistSnapshot)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var line seriesLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("report: %s: %w", path, err)
		}
		s.Epochs++
		for name, h := range line.Hists {
			snap := s.Hists[name]
			for bound, n := range h.Buckets {
				var upper uint64
				if _, err := fmt.Sscanf(bound, "%d", &upper); err != nil {
					continue
				}
				i := bits.Len64(upper) - 1
				if i < 0 {
					i = 0
				}
				if i >= obsv.HistBuckets {
					i = obsv.HistBuckets - 1
				}
				snap.Buckets[i] += n
				snap.Count += n
				// Interval lines carry bucketed deltas, not raw values,
				// so the reconstructed Sum is an upper bound.
				snap.Sum += n * upper
			}
			s.Hists[name] = snap
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("report: %s: %w", path, err)
	}
	return s, nil
}

// SumHists merges every per-core histogram matching suffix into one
// (e.g. suffix "/walk/latency" sums core0..coreN walk latency) so
// quantiles reflect the whole system.
func (s *Series) SumHists(suffix string) (obsv.HistSnapshot, bool) {
	var out obsv.HistSnapshot
	found := false
	names := make([]string, 0, len(s.Hists))
	for name := range s.Hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if len(name) < len(suffix) || name[len(name)-len(suffix):] != suffix {
			continue
		}
		h := s.Hists[name]
		for i := range out.Buckets {
			out.Buckets[i] += h.Buckets[i]
		}
		out.Count += h.Count
		out.Sum += h.Sum
		found = true
	}
	return out, found
}

// AuditAll runs sim.Result.Audit over every run that has a cached
// result, returning violations keyed by run key (sorted). Runs without
// results are skipped (and reported via the returned skipped count)
// rather than failing the audit.
func AuditAll(d *Data) (violations map[string][]obsv.AuditViolation, audited, skipped int) {
	violations = make(map[string][]obsv.AuditViolation)
	for _, key := range d.Keys() {
		r := d.Get(key)
		if r.Result == nil {
			skipped++
			continue
		}
		audited++
		if v := r.Result.Audit(); len(v) > 0 {
			violations[key] = v
		}
	}
	return violations, audited, skipped
}
