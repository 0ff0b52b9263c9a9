// Package experiments regenerates every data figure of the paper's
// evaluation (Figures 1, 4, 10–17). Each figure is a named runner that
// executes the required simulations at a chosen scale and reports the
// same series the paper plots. cmd/tempo-bench drives the full set;
// the repository benchmarks drive quick-scale versions.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Scale sizes a figure run. Quick keeps everything in seconds for
// benchmarks and CI; Full approaches the paper's regime (footprints
// far beyond TLB reach and LLC, longer traces, more/larger mixes).
type Scale struct {
	Name string
	// Records per core for single-application figures.
	Records int
	// Footprint per big workload.
	Footprint uint64
	// Big is the big-data workload list (defaults to all eight).
	Big []string
	// Small is the control workload list.
	Small []string
	// HomoCores is the number of homogeneous cores used for the
	// scheduler/row-policy figures (14, 15).
	HomoCores int
	// Mixes / MixCores / MixRecords / MixFootprint size the
	// multiprogrammed studies (Figures 16, 17).
	Mixes        int
	MixCores     int
	MixRecords   int
	MixFootprint uint64
}

// QuickScale is small enough for go test -bench.
func QuickScale() Scale {
	return Scale{
		Name:         "quick",
		Records:      12_000,
		Footprint:    512 << 20,
		Big:          workload.Big(),
		Small:        workload.Small(),
		HomoCores:    2,
		Mixes:        2,
		MixCores:     4,
		MixRecords:   4_000,
		MixFootprint: 192 << 20,
	}
}

// FullScale is the regime EXPERIMENTS.md reports.
func FullScale() Scale {
	return Scale{
		Name:         "full",
		Records:      200_000,
		Footprint:    2 << 30,
		Big:          workload.Big(),
		Small:        workload.Small(),
		HomoCores:    4,
		Mixes:        4,
		MixCores:     8,
		MixRecords:   25_000,
		MixFootprint: 512 << 20,
	}
}

// Row is one labelled series entry of a report.
type Row struct {
	Label  string
	Values []float64
}

// Report is a table of labelled rows under named columns: a
// regenerated figure, or one of tempo-report's cross-run summaries. It
// renders as aligned text, CSV or markdown.
type Report struct {
	ID      string
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	width := 14
	for _, row := range r.Rows {
		if len(row.Label) > width {
			width = len(row.Label)
		}
	}
	fmt.Fprintf(&b, "%-*s", width+2, "")
	for _, c := range r.Columns {
		fmt.Fprintf(&b, "%14s", c)
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-*s", width+2, row.Label)
		for i := range r.Columns {
			if i < len(row.Values) {
				fmt.Fprintf(&b, "%14.4f", row.Values[i])
			} else {
				fmt.Fprintf(&b, "%14s", "-")
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// CSV renders the report as comma-separated values with a header row,
// ready for plotting tools.
func (r *Report) CSV() string {
	var b strings.Builder
	b.WriteString("label")
	for _, c := range r.Columns {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		b.WriteString(row.Label)
		for i := range r.Columns {
			b.WriteByte(',')
			if i < len(row.Values) {
				fmt.Fprintf(&b, "%g", row.Values[i])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Markdown renders the report as a GitHub-flavoured markdown table
// with a title heading.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", r.ID, r.Title)
	b.WriteString("| label |")
	for _, c := range r.Columns {
		fmt.Fprintf(&b, " %s |", c)
	}
	b.WriteString("\n|---|")
	for range r.Columns {
		b.WriteString("---:|")
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "| %s |", row.Label)
		for i := range r.Columns {
			if i < len(row.Values) {
				fmt.Fprintf(&b, " %.4f |", row.Values[i])
			} else {
				b.WriteString(" - |")
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	b.WriteByte('\n')
	return b.String()
}

// Value returns the named column of the labelled row.
func (r *Report) Value(label, column string) (float64, bool) {
	col := -1
	for i, c := range r.Columns {
		if c == column {
			col = i
			break
		}
	}
	if col < 0 {
		return 0, false
	}
	for _, row := range r.Rows {
		if row.Label == label && col < len(row.Values) {
			return row.Values[col], true
		}
	}
	return 0, false
}

// Figure is one regenerable paper figure.
type Figure struct {
	ID    string
	Title string
	Run   func(*Runner) (*Report, error)
}

// All returns every figure in paper order.
func All() []Figure {
	return []Figure{
		{"fig01", "Fraction of runtime in DRAM page-table walks, replays, and other DRAM accesses", (*Runner).Fig01},
		{"fig04", "Fraction of DRAM references by category (leaf-PT share of PTW traffic)", (*Runner).Fig04},
		{"fig10", "TEMPO performance and energy improvement; 2MB superpage footprint fraction", (*Runner).Fig10},
		{"fig11", "Replay service point under TEMPO; big-data vs small-footprint workloads", (*Runner).Fig11},
		{"fig12", "TEMPO with and without the IMP indirect prefetcher", (*Runner).Fig12},
		{"fig13", "TEMPO improvement vs superpage coverage (THP, memhog, hugetlbfs, 1GB)", (*Runner).Fig13},
		{"fig14", "TEMPO under adaptive, open, and closed row policies", (*Runner).Fig14},
		{"fig15", "PT-row wait-cycle sweep", (*Runner).Fig15},
		{"fig16", "BLISS: prefetch counter weight and grace period sweeps", (*Runner).Fig16},
		{"fig17", "Sub-row buffers (FOA/POA): sub-rows dedicated to prefetches", (*Runner).Fig17},
		{"mech01", "Translation-mechanism zoo head-to-head (MECHANISMS.md; not a paper figure)", (*Runner).Mech01},
	}
}

// ByID finds a figure or ablation by id.
func ByID(id string) (Figure, bool) {
	for _, f := range append(All(), Extras()...) {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

// Engine executes deduplicated simulation batches for a Runner. The
// local implementation is *runner.Pool (worker goroutines plus the
// persistent result cache); internal/service/client provides a remote
// implementation that submits every job to a tempo-serve instance and
// waits, so `tempo-bench -submit` sweeps share one fleet-wide cache.
type Engine interface {
	// Run executes a batch, returning one JobResult per unique key in
	// first-occurrence order (the runner.Pool contract).
	Run(ctx context.Context, jobs []runner.Job) []runner.JobResult
}

// Runner executes figures at one scale, memoising simulation results
// by runner.ConfigKey, the content hash DiskCache uses: runs are
// deterministic, so reuse across figures is sound, and two figure keys
// that describe one configuration share one run.
//
// With an Engine attached, figure execution is two-phase: RunFigure
// first replays the figure body in enumeration mode to collect every
// distinct configuration it needs (r.run hands back shaped
// placeholders and records the config), then executes that batch
// across the engine's workers — hitting its persistent cache where
// warm — and finally evaluates the figure body for real, served
// entirely from the populated memo table. Reports are therefore
// byte-identical to a serial run regardless of worker count or cache
// temperature.
//
// A Runner's methods are not safe for concurrent use with each other;
// parallelism lives inside the Engine.
type Runner struct {
	Scale Scale
	// Engine, when set, executes simulations through the parallel
	// work pool (and its persistent cache) — or any other Engine
	// implementation, such as a remote tempo-serve submission client —
	// instead of inline.
	Engine Engine
	// Mechs restricts the mech01 mechanism-zoo figure to the named
	// translation mechanisms (tempo-bench's -mech axis); empty runs
	// every registered mechanism.
	Mechs []string

	// mu guards the memo: hashes holds each figure key's ConfigKey,
	// computed on the key's first use, and cache holds results by that
	// hash.
	mu     sync.Mutex
	hashes map[string]string
	cache  map[string]*sim.Result

	// Enumeration state (two-phase execution): the jobs collected so
	// far, one per distinct configuration, and their hashes.
	enumerating bool
	pending     []runner.Job
	pendingSeen map[string]bool
}

// NewRunner builds a serial runner; attach an Engine for parallel
// execution.
func NewRunner(s Scale) *Runner {
	return &Runner{Scale: s, hashes: make(map[string]string), cache: make(map[string]*sim.Result)}
}

// RunFigure executes one figure through the runner, using two-phase
// enumerate-then-evaluate execution when an Engine is attached.
func (r *Runner) RunFigure(f Figure) (*Report, error) {
	if r.Engine == nil {
		return f.Run(r)
	}
	jobs, err := r.enumerate(f)
	// An enumeration failure falls through to direct evaluation,
	// which reproduces the error (or succeeds serially) with real
	// results instead of placeholders.
	if err == nil && len(jobs) > 0 {
		for _, jr := range r.Engine.Run(context.Background(), jobs) {
			if jr.Err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", f.ID, jr.Err)
			}
			r.mu.Lock()
			r.cache[r.hashes[jr.Key]] = jr.Result
			r.mu.Unlock()
		}
	}
	return f.Run(r)
}

// figure runs the figure or ablation named id through RunFigure. Each
// call re-evaluates the figure body; every simulation it needs after
// the first call is answered from the memo.
func (r *Runner) figure(id string) (*Report, error) {
	f, ok := ByID(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown figure %s", id)
	}
	return r.RunFigure(f)
}

// enumerate replays the figure body collecting the (key, config) set
// it would run: one job per configuration neither memoised nor already
// collected, under the first key that names it. Config enumeration
// never depends on simulation outputs (figures decide their sweeps up
// front), so placeholder results are sufficient to drive the body to
// completion.
func (r *Runner) enumerate(f Figure) ([]runner.Job, error) {
	r.mu.Lock()
	r.enumerating = true
	r.pending = nil
	r.pendingSeen = make(map[string]bool)
	r.mu.Unlock()
	_, err := f.Run(r)
	r.mu.Lock()
	jobs := r.pending
	r.enumerating = false
	r.pending, r.pendingSeen = nil, nil
	r.mu.Unlock()
	return jobs, err
}

// Enumerate exposes the enumeration pass: the job list a figure would
// execute, one job per distinct configuration, without running any of
// it. tempo-serve expands named sweep submissions into
// per-configuration jobs this way, so a whole figure can be queued
// through the service with one request.
func (r *Runner) Enumerate(f Figure) ([]runner.Job, error) { return r.enumerate(f) }

// placeholderResult stands in for a not-yet-run simulation during the
// enumeration pass: shaped like a real result (per-core slices sized
// from the config, unit cycle/instruction counts so IPC and ratio
// math stay finite) and discarded along with the pass's report.
func placeholderResult(cfg sim.Config) *sim.Result {
	n := len(cfg.Workloads)
	if n == 0 {
		n = 1
	}
	res := &sim.Result{
		Cores:     make([]stats.Stats, n),
		Superpage: make([]float64, n),
	}
	for i := range res.Cores {
		res.Cores[i].Cycles = 1
		res.Cores[i].Instructions = 1
	}
	res.Total.Cycles = 1
	res.Total.Instructions = 1
	return res
}

// run executes (or recalls) one simulation. The key must uniquely
// describe cfg among this runner's uses: it is hashed once, on first
// use, and the memo is looked up by that hash. base is the key of the
// run cfg is measured against, one this runner has already run ("" for
// none); its hash goes on the job as runner.Job.Base. In enumeration
// mode it records the job and returns a placeholder instead.
func (r *Runner) run(key string, cfg sim.Config, base string) (*sim.Result, error) {
	r.mu.Lock()
	job := runner.Job{Key: key, Config: cfg, Base: r.hashes[base]}
	if base != "" && job.Base == "" {
		r.mu.Unlock()
		return nil, fmt.Errorf("experiments: %s: baseline %s has not run", key, base)
	}
	h, ok := r.hashes[key]
	if !ok {
		var err error
		if h, err = runner.ConfigKey(cfg); err != nil {
			r.mu.Unlock()
			return nil, fmt.Errorf("experiments: %s: %w", key, err)
		}
		r.hashes[key] = h
	}
	if res, ok := r.cache[h]; ok {
		r.mu.Unlock()
		return res, nil
	}
	if r.enumerating {
		if !r.pendingSeen[h] {
			r.pendingSeen[h] = true
			r.pending = append(r.pending, job)
		}
		r.mu.Unlock()
		return placeholderResult(cfg), nil
	}
	r.mu.Unlock()
	var res *sim.Result
	var err error
	if r.Engine != nil {
		// Stragglers outside a batch still get the engine's persistent
		// cache, panic containment and runs.jsonl line.
		jr := r.Engine.Run(context.Background(), []runner.Job{job})[0]
		res, err = jr.Result, jr.Err
	} else {
		res, err = sim.Run(cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", key, err)
	}
	r.mu.Lock()
	r.cache[h] = res
	r.mu.Unlock()
	return res, nil
}

// cacheLen reports the memo-table size (tests assert run reuse).
func (r *Runner) cacheLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cache)
}

// mean averages a slice (0 for empty) — the aggregation every
// multi-run figure uses.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	if len(xs) == 0 {
		return 0
	}
	return s / float64(len(xs))
}

// singleCfg is the standard single-core configuration for a big
// workload at this scale.
func (r *Runner) singleCfg(wl string) sim.Config {
	cfg := sim.DefaultConfig(wl)
	cfg.Records = r.Scale.Records
	cfg.Workloads[0].Footprint = r.Scale.Footprint
	return cfg
}

// smallCfg is the single-core configuration for a control workload.
func (r *Runner) smallCfg(wl string) sim.Config {
	cfg := sim.DefaultConfig(wl)
	cfg.Records = r.Scale.Records
	return cfg
}

// homoCfg replicates one workload across HomoCores cores (different
// seeds) sharing one address space, LLC and memory — a multithreaded
// application, the setting for the scheduler and row-policy figures.
func (r *Runner) homoCfg(wl string) sim.Config {
	cfg := sim.DefaultConfig(wl)
	cfg.Records = r.Scale.Records / r.Scale.HomoCores
	cfg.Workloads = nil
	for i := 0; i < r.Scale.HomoCores; i++ {
		cfg.Workloads = append(cfg.Workloads, sim.WorkloadSpec{
			Name: wl, Footprint: r.Scale.Footprint, Seed: int64(i + 1),
		})
	}
	// Homogeneous cores model the threads of one multithreaded
	// application: one address space, one page table.
	cfg.SharedAddressSpace = true
	scaleChannels(&cfg)
	return cfg
}

// scaleChannels gives a multi-core configuration one memory channel
// per two cores (the server-class ratio the paper's 32-core machine
// implies), never fewer than the default machine's, so multi-core runs
// stress scheduling rather than raw bus bandwidth.
func scaleChannels(cfg *sim.Config) {
	if ch := len(cfg.Workloads) / 2; ch > cfg.Machine.DRAM.Geometry.Channels {
		cfg.Machine.DRAM.Geometry.Channels = ch
	}
}

// mixSpecs builds the multiprogrammed mixes: each mix draws MixCores
// applications across a range of memory intensities, as in the BLISS
// methodology.
func (r *Runner) mixSpecs(mix int) []sim.WorkloadSpec {
	rng := rand.New(rand.NewSource(int64(1000 + mix)))
	pool := append(append([]string{}, r.Scale.Big...), r.Scale.Small...)
	sort.Strings(pool)
	var specs []sim.WorkloadSpec
	for c := 0; c < r.Scale.MixCores; c++ {
		name := pool[rng.Intn(len(pool))]
		fp := r.Scale.MixFootprint
		if strings.HasSuffix(name, ".small") {
			fp = 0 // workload default
		}
		specs = append(specs, sim.WorkloadSpec{Name: name, Footprint: fp, Seed: int64(mix*100 + c + 1)})
	}
	return specs
}
