package report

import (
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/translation"
)

// Tables builds every summary table the joined sweep supports. Tables
// whose inputs are entirely absent (no declared pairs, no interval
// series) are omitted rather than rendered empty. Rows are emitted in
// the order they were added; builders add them in sorted-key order so
// rendering is byte-deterministic.
func Tables(d *Data) []*experiments.Report {
	var out []*experiments.Report
	for _, t := range []*experiments.Report{PairTable(d), CPITable(d), RowBufferTable(d), WalkLatencyTable(d)} {
		if len(t.Rows) > 0 {
			out = append(out, t)
		}
	}
	return out
}

// PairTable has one row per run that declares a baseline (the "base"
// field of its runs.jsonl line), labelled by the run's key: runtime
// speedup (cycle ratio), core speedup (metrics.WeightedSpeedup with
// the baseline's per-core IPCs as the alone IPCs, over the core
// count), both IPCs, the energy ratio, the walk-reference DRAM latency
// p50 (how fast the translation path itself got) and the engagement
// counter of the run's mechanism — proof it acted, since a rival that
// never engages shows a flat 1.0 speedup indistinguishable from a
// broken one. Rows of the rival mechanisms are not paper-comparable;
// see the "Mechanism zoo" section of paper_vs_measured.md.
func PairTable(d *Data) *experiments.Report {
	t := &experiments.Report{
		ID:      "pairs",
		Title:   "Each variant against its declared baseline",
		Columns: []string{"speedup", "core_speedup", "base_ipc", "ipc", "energy_gain", "ptw_dram_p50", "engaged"},
	}
	for _, key := range d.Keys() {
		r := d.Get(key)
		base := d.byHash[r.Base]
		if r.Result == nil || base == nil || base.Result == nil {
			continue
		}
		b, v := base.Result, r.Result
		if b.Total.Cycles == 0 || v.Total.Cycles == 0 {
			continue
		}
		alone := make([]float64, len(b.Cores))
		for i := range b.Cores {
			alone[i] = b.Cores[i].IPC()
		}
		shared := make([]float64, len(v.Cores))
		for i := range v.Cores {
			shared[i] = v.Cores[i].IPC()
		}
		coreSpeedup, err := metrics.WeightedSpeedup(alone, shared)
		if err == nil {
			coreSpeedup /= float64(len(shared))
		}
		energy := 0.0
		if ve := v.Energy.Total(); ve > 0 {
			energy = b.Energy.Total() / ve
		}
		mech := v.Mechanism
		if v.TempoOn {
			mech = "tempo"
		}
		t.Rows = append(t.Rows, experiments.Row{Label: key, Values: []float64{
			metrics.Speedup(float64(b.Total.Cycles), float64(v.Total.Cycles)),
			coreSpeedup,
			b.Total.IPC(),
			v.Total.IPC(),
			energy,
			float64(v.Total.DRAMLatencyPercentile(stats.DRAMPTW, 0.50)),
			float64(translation.Engagement(mech, &v.Total, v.MechCounters)),
		}})
	}
	if len(t.Rows) > 0 {
		t.Notes = append(t.Notes,
			"speedup = base cycles / run cycles; core_speedup = weighted speedup over the baseline's per-core IPCs / cores; energy_gain = base energy / run energy",
			"ptw_dram_p50 = median DRAM latency of page-walk references; engaged = the mechanism's engagement counter (tempo: prefetches, victima: pte_hits, revelator: spec_hits)")
	}
	return t
}

// RowBufferTable reports each run's DRAM row-buffer hit rate, overall
// and for the prefetch category — the mechanism behind TEMPO's DRAM
// latency win (prefetches open the PT row's neighbourhood, so replays
// hit open rows).
func RowBufferTable(d *Data) *experiments.Report {
	t := &experiments.Report{
		ID:      "rowbuffer",
		Title:   "DRAM row-buffer hit rate by run",
		Columns: []string{"hit_rate", "ptw_hit_rate", "replay_hit_rate", "prefetch_hit_rate"},
	}
	for _, key := range d.Keys() {
		r := d.Get(key)
		if r.Result == nil {
			continue
		}
		m := &r.Result.Mem
		overall := rowHitRate(m, -1)
		t.Rows = append(t.Rows, experiments.Row{Label: key, Values: []float64{
			overall,
			rowHitRate(m, int(stats.DRAMPTW)),
			rowHitRate(m, int(stats.DRAMReplay)),
			rowHitRate(m, int(stats.DRAMPrefetch)),
		}})
	}
	return t
}

// rowHitRate computes row-buffer hits / accesses for one DRAM category
// (-1 for all categories combined); 0 when the category saw no
// traffic.
func rowHitRate(m *stats.Stats, cat int) float64 {
	var hits, total uint64
	for c := range m.DRAMOutcomes {
		if cat >= 0 && c != cat {
			continue
		}
		for o, n := range m.DRAMOutcomes[c] {
			total += n
			if o == int(stats.RowHit) {
				hits += n
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// WalkLatencyTable reports page-walk latency quantiles per run from
// the interval-stats series (summing every core's walk-latency
// histogram). Only runs that executed with -stats-interval have a
// series; cache hits are skipped.
func WalkLatencyTable(d *Data) *experiments.Report {
	t := &experiments.Report{
		ID:      "walklat",
		Title:   "Page-walk latency quantiles (cycles, power-of-two bucket upper bounds)",
		Columns: []string{"p50", "p95", "p99", "walks"},
	}
	for _, key := range d.Keys() {
		r := d.Get(key)
		if r.Series == nil {
			continue
		}
		h, ok := r.Series.SumHists("/walk/latency")
		if !ok || h.Count == 0 {
			continue
		}
		t.Rows = append(t.Rows, experiments.Row{Label: key, Values: []float64{
			float64(h.Quantile(0.50)),
			float64(h.Quantile(0.95)),
			float64(h.Quantile(0.99)),
			float64(h.Count),
		}})
	}
	if len(t.Rows) > 0 {
		t.Notes = append(t.Notes,
			"quantiles are inclusive upper bounds of power-of-two buckets reconstructed from the interval series")
	}
	return t
}
