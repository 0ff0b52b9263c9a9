// Package tempo is the public API of the TEMPO reproduction — a
// trace-driven simulator of translation-triggered prefetching
// (Bhattacharjee, ASPLOS 2017) together with every substrate the paper
// depends on: x86-64 virtual memory with superpages, TLBs and MMU
// caches, a hardware page-table walker, a cache hierarchy, a DDR-class
// DRAM model with FR-FCFS/BLISS scheduling and sub-row buffers, the
// IMP indirect prefetcher, synthetic big-memory workloads, and a
// multiprogrammed harness.
//
// Quick start:
//
//	cfg := tempo.DefaultConfig("xsbench")
//	cfg.Tempo = tempo.DefaultTempo()
//	res, err := tempo.Run(cfg)
//	fmt.Println(res.IPC())
//
// Every figure of the paper's evaluation can be regenerated:
//
//	rep, err := tempo.RunFigure("fig10", tempo.QuickScale())
//	fmt.Println(rep)
package tempo

import (
	"fmt"
	"io"

	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/obsv"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Core configuration and result types (aliases into the simulator).
type (
	// Config describes one run: workloads, machine, OS policy, TEMPO
	// and prefetcher switches, scheduler, and sub-row organisation.
	Config = sim.Config
	// Machine is the microarchitectural parameter set.
	Machine = sim.Machine
	// WorkloadSpec names one core's workload.
	WorkloadSpec = sim.WorkloadSpec
	// TempoConfig switches the paper's mechanism and its ablations.
	TempoConfig = sim.TempoConfig
	// OSPolicy selects the paging configuration.
	OSPolicy = sim.OSPolicy
	// Result carries per-core and memory-side statistics, superpage
	// coverage, and modelled energy.
	Result = sim.Result
	// Stats is the counter set Result exposes.
	Stats = stats.Stats
	// Energy is a joule breakdown.
	Energy = dram.Energy

	// Scale sizes experiment runs (QuickScale or FullScale).
	Scale = experiments.Scale
	// Report is a regenerated figure.
	Report = experiments.Report
	// Figure is one entry of the experiment registry.
	Figure = experiments.Figure
	// Runner executes figures with memoised simulations.
	Runner = experiments.Runner

	// ExecJob is one keyed simulation for the parallel engine.
	ExecJob = runner.Job
	// ExecResult is one job's outcome.
	ExecResult = runner.JobResult
	// ExecOptions configures a Pool (workers, timeout, cache,
	// telemetry).
	ExecOptions = runner.Options
	// Pool is the parallel experiment-execution engine: it dedupes a
	// batch of keyed configs, fans them out across workers, and
	// returns results in deterministic key order.
	Pool = runner.Pool
	// DiskCache persists simulation results across processes, keyed
	// by a stable hash of the serialized configuration.
	DiskCache = runner.DiskCache
	// Telemetry reports batch progress (completed/total, ETA,
	// runs.jsonl).
	Telemetry = runner.Telemetry
)

// Scheduler kinds.
const (
	SchedFRFCFS = sim.SchedFRFCFS
	SchedBLISS  = sim.SchedBLISS
)

// Sub-row allocation policies.
const (
	SubRowShared = sim.SubRowShared
	SubRowFOA    = sim.SubRowFOA
	SubRowPOA    = sim.SubRowPOA
)

// Page-size policies (Figure 13's axis).
const (
	Mode4KOnly      = vm.Mode4KOnly
	ModeTHP         = vm.ModeTHP
	ModeHugetlbfs2M = vm.ModeHugetlbfs2M
	ModeHugetlbfs1G = vm.ModeHugetlbfs1G
)

// Row-buffer management policies.
const (
	PolicyAdaptive = dram.PolicyAdaptive
	PolicyOpen     = dram.PolicyOpen
	PolicyClosed   = dram.PolicyClosed
)

// DRAM-reference categories (for Stats queries).
const (
	DRAMPTW      = stats.DRAMPTW
	DRAMReplay   = stats.DRAMReplay
	DRAMOther    = stats.DRAMOther
	DRAMPrefetch = stats.DRAMPrefetch
)

// Replay service points (Figure 11).
const (
	ReplayLLC       = stats.ReplayLLC
	ReplayRowBuffer = stats.ReplayRowBuffer
	ReplayDRAMArray = stats.ReplayDRAMArray
)

// Observability (see OBSERVABILITY.md): an Observer couples an event
// recorder (Chrome trace-event export) with a counter/histogram
// registry (interval snapshots); attach it to a System between NewSystem
// and Run. The two-step System path exists exactly for this — Config
// stays free of observation state so a traced run keeps its identity in
// the persistent result cache.
type (
	// System is an assembled machine: NewSystem, optionally Attach,
	// then Run.
	System = sim.System
	// Observer is the instrumentation layer (recorder + registry).
	Observer = obsv.Observer
	// ObserverOptions selects tracing, the record window, and the
	// interval-stats cadence/sink.
	ObserverOptions = obsv.Options
	// TraceEvent is one recorded lifecycle event.
	TraceEvent = obsv.Event
)

// AuditViolation is one failed counter-conservation check.
type AuditViolation = obsv.AuditViolation

// Audit evaluates the cross-subsystem counter conservation laws (TLB
// misses bound walks, TEMPO triggers equal prefetches plus
// suppressions, DRAM reads are conserved across reference categories,
// a rival mechanism's mech/* counters agree, ...) against a result's
// totals, and each core's CPI stack against its cycles, returning
// every violation (nil when all hold). It is the library form of
// `tempo-report audit`.
func Audit(res *Result) []AuditViolation { return res.Audit() }

// NewSystem assembles a machine without running it, so an Observer can
// be attached first.
func NewSystem(cfg Config) (*System, error) { return sim.New(cfg) }

// NewObserver builds an observer from options.
func NewObserver(o ObserverOptions) *Observer { return obsv.New(o) }

// WriteChromeTrace exports recorded events as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, events []TraceEvent, meta map[string]string) error {
	return obsv.WriteChromeTrace(w, events, meta)
}

// DefaultConfig builds a single-core baseline run of the named
// workload (TEMPO off).
func DefaultConfig(workload string) Config { return sim.DefaultConfig(workload) }

// DefaultMachine returns the DESIGN.md machine model.
func DefaultMachine() Machine { return sim.DefaultMachine() }

// DefaultTempo returns the paper's TEMPO configuration: row-buffer and
// LLC prefetching with a 10-cycle PT-row wait.
func DefaultTempo() TempoConfig { return sim.DefaultTempo() }

// Run executes one configuration and returns its results.
func Run(cfg Config) (*Result, error) { return sim.Run(cfg) }

// BigWorkloads lists the big-memory workloads from the paper's
// evaluation (mcf, canneal, lsh, spmv, sgms, graph500, xsbench,
// illustris).
func BigWorkloads() []string { return workload.Big() }

// SmallWorkloads lists the small-footprint Spec/Parsec-like control
// workloads.
func SmallWorkloads() []string { return workload.Small() }

// Figures returns the experiment registry, one entry per data figure
// of the paper.
func Figures() []Figure { return experiments.All() }

// QuickScale sizes experiments for benchmarks and smoke tests.
func QuickScale() Scale { return experiments.QuickScale() }

// FullScale sizes experiments for the EXPERIMENTS.md numbers.
func FullScale() Scale { return experiments.FullScale() }

// NewRunner builds a serial experiment runner at the given scale.
func NewRunner(s Scale) *Runner { return experiments.NewRunner(s) }

// NewPool builds a parallel execution engine. A zero Options value
// gives GOMAXPROCS workers with no timeout, persistence or telemetry.
func NewPool(opts ExecOptions) *Pool { return runner.New(opts) }

// NewDiskCache opens (creating if needed) a persistent result cache
// rooted at dir. Entries are keyed by ConfigKey and namespaced by the
// engine's schema version.
func NewDiskCache(dir string) (*DiskCache, error) { return runner.NewDiskCache(dir) }

// ConfigKey returns the stable content hash naming cfg in the
// persistent cache.
func ConfigKey(cfg Config) (string, error) { return runner.ConfigKey(cfg) }

// Engine executes deduplicated simulation batches for a parallel
// Runner — a local *Pool, or internal/service/client's remote
// tempo-serve submission client.
type Engine = experiments.Engine

// NewParallelRunner builds an experiment runner whose simulations
// execute through the given engine: each figure enumerates its config
// set up front, the engine runs the deduplicated batch across its
// workers (skipping sims its cache already holds), and the figure is
// evaluated from the populated results. Reports are byte-identical to
// a serial run.
func NewParallelRunner(s Scale, eng Engine) *Runner {
	r := experiments.NewRunner(s)
	r.Engine = eng
	return r
}

// Claim re-exports the experiment claims machinery: the paper's
// qualitative assertions, checkable against regenerated figures.
type (
	Claim       = experiments.Claim
	ClaimResult = experiments.ClaimResult
)

// Claims returns the paper's checkable assertions.
func Claims() []Claim { return experiments.Claims() }

// EvaluateClaims regenerates the needed figures and checks every claim.
func EvaluateClaims(r *Runner) ([]ClaimResult, error) {
	return experiments.EvaluateClaims(r)
}

// FormatClaims renders claim results as a table.
func FormatClaims(results []ClaimResult) string {
	return experiments.FormatClaims(results)
}

// RunFigure regenerates one paper figure by id ("fig01" ... "fig17").
func RunFigure(id string, s Scale) (*Report, error) {
	f, ok := experiments.ByID(id)
	if !ok {
		return nil, fmt.Errorf("tempo: unknown figure %q", id)
	}
	return f.Run(experiments.NewRunner(s))
}
