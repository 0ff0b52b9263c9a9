package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	tempo "repro"
	"repro/internal/obsv"
	"repro/internal/stats"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to measurements.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// summary describes a timing's samples: their median, quartiles and
// count, and the highest percentile with at least ten samples beyond
// it, where there are enough samples for one.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	TailP  float64 `json:"tail_p,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	s := summary{Median: median(xs), Q1: q1, Q3: q3, N: len(xs)}
	if p, ok := tailPercentile(len(xs)); ok {
		s.TailP, s.Tail = p, percentile(xs, p)
	}
	return s
}

// host identifies the machine and build a record was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// record is everything one invocation measured: what the result line
// summarizes, plus the raw per-repetition samples and digests that
// -compare and later investigations need.
type record struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Traced    bool                 `json:"traced"`
	Host      host                 `json:"host"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Correct   bool                 `json:"correct"`
	Problems  []string             `json:"problems,omitempty"`
	Samples   map[string][]float64 `json:"samples"`
	Summary   map[string]summary   `json:"summary"`
	Digests   []string             `json:"digests"`
	Metrics   metrics              `json:"metrics"`
}

// options selects what one invocation measures.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// tiny shrinks the workload for tests.
	tiny bool
	// dir receives the traced run's CPU profile while it is folded.
	dir string
}

// measure runs one workload in three phases: a warm-up repetition,
// checked and discarded; timed repetitions for the end-to-end metrics;
// and, when traced, further repetitions under the CPU profiler for the
// per-layer metrics, each phase taking half the time. Every simulation
// of every phase is checked.
func measure(o options) (*record, error) {
	var (
		cfg    tempo.Config
		repeat func() rep
	)
	if o.workload == sweepName {
		scale := sweepScale(o.tiny)
		repeat = func() rep { return runSweep(scale, o.seed) }
	} else {
		var err error
		if cfg, err = singleConfig(o.workload, o.seed, o.tiny); err != nil {
			return nil, err
		}
		repeat = func() rep { return runSingle(cfg) }
	}
	c := newChecker()
	rec := &record{
		Workload: o.workload,
		Seed:     o.seed,
		Traced:   o.traced,
		Host:     hostInfo(),
		Samples:  map[string][]float64{},
		Summary:  map[string]summary{},
		Metrics:  metrics{},
	}

	warm := repeat()
	rec.Digests = append(rec.Digests, check(c, &warm))

	// mc4-tempo's serial reference: the same configuration at Workers=1,
	// whose digest every Workers=2 repetition must equal.
	var ref *rep
	if cfg.Workers > 1 {
		serial := cfg
		serial.Workers = 1
		r := runSingle(serial)
		rec.Digests = append(rec.Digests, check(c, &r))
		ref = &r
	}

	budget, minReps := o.seconds, 3
	if o.traced {
		budget, minReps = o.seconds/2, 1
	}
	timed := repeatFor(budget, minReps, repeat)
	for i := range timed {
		r := &timed[i]
		rec.Digests = append(rec.Digests, check(c, r))
		rec.Samples["wall_s"] = append(rec.Samples["wall_s"], r.wall.Seconds())
		for _, d := range r.setups {
			rec.Samples["setup_s"] = append(rec.Samples["setup_s"], d.Seconds())
		}
		rec.Samples["records_per_s"] = append(rec.Samples["records_per_s"], rate(r))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rec.Samples["peak_rss_mb"] = []float64{rss}
	for name, xs := range rec.Samples {
		rec.Summary[name] = summarize(xs)
	}

	m := rec.Metrics
	if !o.traced {
		m.set("wall_s", rec.Summary["wall_s"].Median, "s")
		m.set("records_per_s", rec.Summary["records_per_s"].Median, "records/s")
		m.set("setup_s", rec.Summary["setup_s"].Median, "s")
		m.set("peak_rss_mb", rss, "MB")
	} else {
		var traced []rep
		split, err := profile(o.dir, func() { traced = repeatFor(o.seconds/2, 1, repeat) })
		if err != nil {
			return nil, err
		}
		var recs uint64
		var wall time.Duration
		for i := range traced {
			rec.Digests = append(rec.Digests, check(c, &traced[i]))
			recs += traced[i].records()
			wall += traced[i].wall
		}
		hostMetrics(m, split, recs)
		m.set("host.trace_overhead", rec.Summary["records_per_s"].Median/(float64(recs)/wall.Seconds())-1, "ratio")
		simMetrics(m, &timed[0])
		epochMetrics(m, &timed[0], ref, rec.Summary["wall_s"].Median)
		runnerMetrics(m, timed)
		if err := sweepMetrics(m, &timed[0], o.workload == sweepName); err != nil {
			c.fail(err.Error())
		}
		if err := runMicros(m); err != nil {
			return nil, err
		}
		m.set("failed_frac", c.failedFrac(), "ratio")
	}
	rec.Attempted, rec.Failed, rec.Correct, rec.Problems = c.attempted, c.failed, c.ok(), c.problems
	return rec, nil
}

// repeatFor repeats fn until budget seconds have passed and it has run
// at least min times.
func repeatFor(budget float64, min int, fn func() rep) []rep {
	var reps []rep
	start := time.Now()
	for len(reps) < min || time.Since(start).Seconds() < budget {
		reps = append(reps, fn())
	}
	return reps
}

// rate is a repetition's simulated records per host second.
func rate(r *rep) float64 {
	if r.wall <= 0 {
		return 0
	}
	return float64(r.records()) / r.wall.Seconds()
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hostMetrics reports each layer's share of the traced run's CPU time
// and its CPU nanoseconds per simulated record.
func hostMetrics(m metrics, split hostSplit, records uint64) {
	var total time.Duration
	for _, d := range split.cpu {
		total += d
	}
	for _, l := range layers {
		d := float64(split.cpu[l])
		m.set("host."+l+".share", ratio(d, float64(total)), "ratio")
		m.set("host."+l+".ns_per_record", ratio(d, float64(records)), "ns")
	}
	m.set("host.samples", float64(split.samples), "count")
}

// simMetrics reports the simulated counts of a repetition, summed over
// its simulations. They are exact: a change that only speeds up the
// simulator leaves every one of them unchanged.
func simMetrics(m metrics, r *rep) {
	var t tempo.Stats
	var cycles uint64
	for _, s := range r.sims {
		if s.res != nil {
			t.Add(&s.res.Total)
			cycles += s.res.Total.Cycles
		}
	}
	recs := float64(t.MemRefs)
	pkr := func(n uint64) float64 { return ratio(1000*float64(n), recs) }
	frac := func(a, b uint64) float64 { return ratio(float64(a), float64(b)) }
	var rowHits, rowAll uint64
	for c := range t.DRAMOutcomes {
		for o, n := range t.DRAMOutcomes[c] {
			rowAll += n
			if stats.RowOutcome(o) == stats.RowHit {
				rowHits += n
			}
		}
	}
	m.set("tlb.miss_rate", t.TLBMissRate(), "ratio")
	m.set("ptwalk.walks_pkr", pkr(t.WalksStarted), "1/krecord")
	m.set("ptwalk.mmu_hit_rate", frac(t.MMUCacheHits, t.MMUCacheHits+t.MMUCacheMisses), "ratio")
	m.set("ptwalk.dram_walk_frac", frac(t.WalkDRAMTouched, t.WalksStarted), "ratio")
	m.set("cache.l1_hit_rate", frac(t.L1Hits, t.L1Hits+t.L1Misses), "ratio")
	m.set("cache.l2_hit_rate", frac(t.L2Hits, t.L2Hits+t.L2Misses), "ratio")
	m.set("cache.llc_hit_rate", frac(t.LLCHits, t.LLCHits+t.LLCMisses), "ratio")
	m.set("dram.refs_pkr", pkr(t.TotalDRAMRefs(true)), "1/krecord")
	m.set("dram.row_hit_rate", frac(rowHits, rowAll), "ratio")
	m.set("dram.ptw_ref_frac", t.DRAMRefFraction(tempo.DRAMPTW), "ratio")
	m.set("dram.busy_frac", frac(t.DRAMBusyCycles, cycles), "ratio")
	m.set("dram.ptw_lat_p95_cycles", float64(t.DRAMLatencyPercentile(tempo.DRAMPTW, 0.95)), "cycles")
	m.set("core.tempo_prefetches_pkr", pkr(t.TempoPrefetches), "1/krecord")
	m.set("core.tempo_useful_frac", frac(t.TempoUseful, t.TempoPrefetches), "ratio")
	m.set("core.replay_llc_frac", t.ReplayServiceFraction(tempo.ReplayLLC), "ratio")
	m.set("sim.ipc", frac(t.Instructions, t.CPICycles), "instr/cycle")
	for b, name := range obsv.CPIBucketMetrics {
		m.set("sim.cpi."+strings.TrimPrefix(name, "cpi/"), frac(t.CPIStack[b], t.Instructions), "cycles/instr")
	}
	m.set("sim.cpi.hidden_by_prefetch_pkr", pkr(t.CPIHiddenByPrefetch), "1/krecord")
}

// epochMetrics reports the epoch engine's engagement on mc4-tempo, and
// its speedup: the serial reference's wall time against the median
// Workers=2 repetition's. They read 0 on workloads without the engine.
func epochMetrics(m metrics, r *rep, ref *rep, wall float64) {
	var engagement, stallsPKR, speedup float64
	if ref != nil {
		var epochRecords, stalls uint64
		for _, s := range r.sims {
			epochRecords += s.epochRecords
			stalls += s.stalls
		}
		recs := float64(r.records())
		engagement = ratio(float64(epochRecords), recs)
		stallsPKR = ratio(1000*float64(stalls), recs)
		speedup = ratio(ref.wall.Seconds(), wall)
	}
	m.set("sim.epoch.engagement", engagement, "ratio")
	m.set("sim.epoch.stalls_pkr", stallsPKR, "1/krecord")
	m.set("sim.epoch.speedup", speedup, "ratio")
}

// runnerMetrics reports how the sweep's pool spent its time, over all
// timed repetitions: simulations per sweep, the median and 95th
// percentile of one simulation's wall time (NewSystem plus Run), the
// share of that in NewSystem, and how busy the pool's workers were.
// Single runs do not use the pool; there they read 0.
func runnerMetrics(m metrics, reps []rep) {
	var walls []float64
	var setup, busy, elapsed float64
	for i := range reps {
		r := &reps[i]
		if r.reports == nil {
			continue
		}
		for _, s := range r.sims {
			w := (s.setup + s.run).Seconds()
			walls = append(walls, w)
			busy += w
			setup += s.setup.Seconds()
		}
		elapsed += r.wall.Seconds()
	}
	m.set("runner.sims", ratio(float64(len(walls)), float64(len(reps))), "count")
	m.set("runner.sim_wall_p50_s", percentile(walls, 0.5), "s")
	m.set("runner.sim_wall_p95_s", percentile(walls, 0.95), "s")
	m.set("runner.setup_frac", ratio(setup, busy), "ratio")
	m.set("runner.utilization", ratio(busy, elapsed*parallelism), "ratio")
}

// sweepMetrics reports the sweep's accuracy against the paper's bands;
// single runs read 0.
func sweepMetrics(m metrics, r *rep, sweep bool) error {
	var in int
	var miss float64
	if sweep {
		var err error
		if in, miss, err = paperBands(r.reports); err != nil {
			return err
		}
	}
	m.set("paper_bands_in", float64(in), "count")
	m.set("paper_band_miss", miss, "ratio")
	return nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// hostInfo describes the host and build. The commit is read only when
// the working directory is a git checkout.
func hostInfo() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}
