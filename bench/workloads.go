package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	tempo "repro"
	"repro/internal/experiments"
)

// workloads are the benchmark's workloads, in BENCHMARK.json order.
var workloads = []string{"xsbench-tempo", "small-fastpath", "mc4-tempo", "sweep-quick"}

const (
	// sweepName is the one workload that regenerates figures instead of
	// timing a single run.
	sweepName = "sweep-quick"
	// parallelism is the thread count a workload may use: the sweep
	// pool's simulations in flight, and mc4-tempo's intra-run workers.
	// It matches the 2-CPU hosts the bounds were measured on.
	parallelism = 2
	// tinyDiv shrinks the single runs' record counts for tests.
	tinyDiv = 200
	// setupRounds is how many times a single run's repetition times
	// NewSystem.
	setupRounds = 10
)

// singleConfig returns the configuration one repetition of a single-run
// workload simulates. tiny shrinks it to a fraction of a second for
// tests.
//
//   - xsbench-tempo is the paper's hot path: TLB miss, page walk, DRAM
//     PTE read, replay, on a footprint far beyond TLB reach.
//   - small-fastpath runs the same layers as hits: a 24 MB control
//     workload that mostly stays on chip, so the TLB-hit/L1-hit fast
//     path dominates and the walker, DRAM and TEMPO idle.
//   - mc4-tempo is the only workload where the multi-core coordinator,
//     the scheduler's deep shared queue and the epoch engine work.
func singleConfig(name string, seed int64, tiny bool) (tempo.Config, error) {
	footprint := uint64(256 << 20)
	div := 1
	if tiny {
		footprint, div = 32<<20, tinyDiv
	}
	cfg := tempo.DefaultConfig("xsbench")
	cfg.Tempo = tempo.DefaultTempo()
	cfg.Seed = seed
	switch name {
	case "xsbench-tempo":
		cfg.Workloads[0].Footprint = footprint
		cfg.Records = 2_000_000 / div
	case "small-fastpath":
		cfg.Workloads[0].Name = "gcc.small"
		cfg.Records = 6_000_000 / div
	case "mc4-tempo":
		// Threads of one application: a shared address space, and
		// per-core seeds derived from cfg.Seed.
		cfg.Workloads = nil
		for i := 0; i < 4; i++ {
			cfg.Workloads = append(cfg.Workloads, tempo.WorkloadSpec{Name: "xsbench", Footprint: footprint})
		}
		cfg.SharedAddressSpace = true
		cfg.Workers = parallelism
		cfg.Records = 400_000 / div
	default:
		return tempo.Config{}, fmt.Errorf("unknown workload %q (have %v)", name, workloads)
	}
	return cfg, nil
}

// sweepScale is the scale of sweep-quick: the figures' quick scale, or
// for tests a tiny one over a few workloads.
func sweepScale(tiny bool) tempo.Scale {
	s := tempo.QuickScale()
	if tiny {
		s.Records = 400
		s.Footprint = 32 << 20
		s.Big = []string{"xsbench", "spmv"}
		s.Small = s.Small[:1]
		s.Mixes = 1
		s.MixRecords = 200
		s.MixFootprint = 32 << 20
	}
	return s
}

// simRun is one simulation of a repetition.
type simRun struct {
	cfg        tempo.Config
	res        *tempo.Result
	err        error
	setup, run time.Duration // in NewSystem and in Run
	// epochRecords and stalls are the epoch engine's records absorbed
	// and barrier stalls.
	epochRecords, stalls uint64
}

// rep is one repetition of a workload: a single run, or a whole sweep.
type rep struct {
	sims []simRun
	// wall is the Run time of a single run, or the whole sweep's.
	wall time.Duration
	// setups are the repetition's set-up times: each NewSystem of a
	// single run, or a sweep's NewSystem time summed over its
	// simulations.
	setups []time.Duration
	// reports and figErrs are the sweep's regenerated figures, and the
	// figures that failed.
	reports map[string]*tempo.Report
	figErrs []string
}

// records is the number of trace records the repetition simulated.
func (r *rep) records() uint64 {
	var n uint64
	for _, s := range r.sims {
		if s.res != nil {
			n += s.res.Total.MemRefs
		}
	}
	return n
}

// runSim assembles and runs one simulation, timing the two steps.
func runSim(cfg tempo.Config) simRun {
	t0 := time.Now()
	sys, err := tempo.NewSystem(cfg)
	t1 := time.Now()
	s := simRun{cfg: cfg, setup: t1.Sub(t0), err: err}
	if err != nil {
		return s
	}
	s.res, s.err = sys.Run()
	s.run = time.Since(t1)
	ps := sys.ParallelStats()
	s.epochRecords, s.stalls = ps.EpochRecords, ps.BarrierStalls
	return s
}

// runSingle is one repetition of a single-run workload. A single
// NewSystem takes about a millisecond, too little to time once, so the
// repetition assembles the system setupRounds times and runs the last.
// Each round starts from a collected heap, so that a collection of the
// earlier rounds' systems does not land in a later round's time.
func runSingle(cfg tempo.Config) rep {
	var setups []time.Duration
	for i := 1; i < setupRounds; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := tempo.NewSystem(cfg); err != nil {
			break // runSim reports it
		}
		setups = append(setups, time.Since(t0))
	}
	runtime.GC()
	s := runSim(cfg)
	return rep{sims: []simRun{s}, wall: s.run, setups: append(setups, s.setup)}
}

// runSweep is one repetition of sweep-quick: every figure regenerated
// through a pool of parallelism workers, with seed overriding each
// simulation's Config.Seed (seed 1 leaves the registry's configurations
// unchanged).
func runSweep(scale tempo.Scale, seed int64) rep {
	var (
		mu   sync.Mutex
		sims []simRun
	)
	pool := tempo.NewPool(tempo.ExecOptions{
		Parallelism: parallelism,
		Exec: func(cfg tempo.Config) (*tempo.Result, error) {
			cfg.Seed = seed
			s := runSim(cfg)
			mu.Lock()
			sims = append(sims, s)
			mu.Unlock()
			return s.res, s.err
		},
	})
	runner := tempo.NewParallelRunner(scale, pool)
	r := rep{reports: map[string]*tempo.Report{}}
	runtime.GC()
	start := time.Now()
	for _, f := range tempo.Figures() {
		report, err := runner.RunFigure(f)
		if err != nil {
			r.figErrs = append(r.figErrs, fmt.Sprintf("%s: %v", f.ID, err))
			continue
		}
		r.reports[f.ID] = report
	}
	r.wall = time.Since(start)
	r.sims = sims
	var setup time.Duration
	for _, s := range sims {
		setup += s.setup
	}
	r.setups = []time.Duration{setup}
	return r
}

// check runs every simulation of r through c, keyed by configuration
// hash, and returns the repetition's digest: a hash of its simulations'
// digests and, for a sweep, its figures.
func check(c *checker, r *rep) string {
	lines := make([]string, 0, len(r.sims)+len(r.reports))
	for _, s := range r.sims {
		key, err := tempo.ConfigKey(s.cfg)
		if err != nil {
			c.add("unhashable config", nil, err)
			continue
		}
		lines = append(lines, key+" "+c.add(key, s.res, s.err))
	}
	for _, e := range r.figErrs {
		c.fail(e)
	}
	for id, report := range r.reports {
		lines = append(lines, id+" "+report.String())
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// paperBands scores a sweep's figures against the paper: the number of
// PaperPoints rows in band, and the summed distance of the others to
// their nearest band edge, each relative to that edge (to the band's
// width where the edge is 0).
func paperBands(reports map[string]*tempo.Report) (in int, miss float64, err error) {
	for _, p := range experiments.PaperPoints() {
		report, ok := reports[p.Figure]
		if !ok {
			return 0, 0, fmt.Errorf("paper band for %s: figure missing", p.Figure)
		}
		v := p.Extract(report)
		if v >= p.PaperLo && v <= p.PaperHi {
			in++
			continue
		}
		edge := p.PaperLo
		if v > p.PaperHi {
			edge = p.PaperHi
		}
		scale := math.Abs(edge)
		if scale == 0 {
			scale = p.PaperHi - p.PaperLo
		}
		miss += math.Abs(v-edge) / scale
	}
	return in, miss, nil
}
