package experiments

import (
	"fmt"

	"repro/internal/cache"
)

// Extras returns the ablation studies that go beyond the paper's
// figures: they probe the design choices DESIGN.md calls out. They run
// under the same Runner/Report machinery as the paper figures and are
// addressable from cmd/tempo-bench by id.
func Extras() []Figure {
	return []Figure{
		{"abl01", "TEMPO components: row-buffer-only vs full prefetching", (*Runner).Abl01Components},
		{"abl02", "Row-buffer size sweep (4/8/16KB)", (*Runner).Abl02RowSize},
		{"abl03", "TEMPO scheduler awareness vs prefetch-only", (*Runner).Abl03SchedulerAware},
		{"abl04", "LLC replacement: LRU vs SRRIP under TEMPO", (*Runner).Abl04LLCReplacement},
	}
}

// Abl01Components separates TEMPO's two prefetch destinations: the
// row-buffer half alone versus the full mechanism. The gap is the
// value of the LLC fill (the paper's Figure 11 shows the service-point
// split; this shows the performance split).
func (r *Runner) Abl01Components() (*Report, error) {
	rep := &Report{
		ID: "abl01", Title: "TEMPO improvement: row-buffer-only vs full",
		Columns: []string{"rowbuf-only", "full"},
	}
	for _, wl := range r.Scale.Big {
		base, err := r.run("base/"+wl, r.singleCfg(wl), "")
		if err != nil {
			return nil, err
		}
		cfgR := tempoVariant(r.singleCfg(wl))
		cfgR.Tempo.LLCPrefetch = false
		rowOnly, err := r.run("abl01/"+wl+"/row", cfgR, "base/"+wl)
		if err != nil {
			return nil, err
		}
		full, err := r.run("tempo/"+wl, tempoVariant(r.singleCfg(wl)), "base/"+wl)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, Row{Label: wl, Values: []float64{
			perf(base, rowOnly),
			perf(base, full),
		}})
	}
	rep.Notes = append(rep.Notes, "both halves versus the same no-TEMPO baseline")
	return rep, nil
}

// Abl02RowSize sweeps the row-buffer size. Bigger rows hold more
// spatially adjacent translations and data (helping TEMPO's row
// grouping) but cost more per activation.
func (r *Runner) Abl02RowSize() (*Report, error) {
	sizes := []uint64{4 << 10, 8 << 10, 16 << 10}
	rep := &Report{
		ID: "abl02", Title: "TEMPO improvement by row-buffer size",
		Columns: []string{"4KB", "8KB", "16KB"},
	}
	for _, wl := range r.Scale.Big {
		row := Row{Label: wl}
		for _, sz := range sizes {
			cfgB := r.singleCfg(wl)
			cfgB.Machine.DRAM.Geometry.RowBytes = sz
			base, tempo, err := r.baseTempoPair(
				fmt.Sprintf("abl02/%s/%d/base", wl, sz),
				fmt.Sprintf("abl02/%s/%d/tempo", wl, sz), cfgB)
			if err != nil {
				return nil, err
			}
			row.Values = append(row.Values, perf(base, tempo))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// Abl03SchedulerAware isolates the Section 4.3 transaction-queue
// policies from the prefetching itself on homogeneous multi-core runs.
func (r *Runner) Abl03SchedulerAware() (*Report, error) {
	rep := &Report{
		ID: "abl03", Title: "TEMPO improvement: scheduler-aware vs prefetch-only",
		Columns: []string{"aware", "prefetch-only"},
	}
	for _, wl := range r.Scale.Big {
		base, aware, err := r.baseTempoPair("f15/"+wl+"/base", "abl03/"+wl+"/aware", r.homoCfg(wl))
		if err != nil {
			return nil, err
		}
		cfgP := tempoVariant(r.homoCfg(wl))
		cfgP.Tempo.SchedulerAware = false
		plain, err := r.run("abl03/"+wl+"/plain", cfgP, "f15/"+wl+"/base")
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, Row{Label: wl, Values: []float64{
			perf(base, aware),
			perf(base, plain),
		}})
	}
	return rep, nil
}

// Abl04LLCReplacement compares TEMPO's benefit when the LLC uses LRU
// versus SRRIP (which inserts prefetched lines at a distant
// re-reference interval — a pollution-control stance TEMPO's exact
// prefetches do not need).
func (r *Runner) Abl04LLCReplacement() (*Report, error) {
	reps := []struct {
		name string
		kind cache.Replacement
	}{{"LRU", cache.ReplaceLRU}, {"SRRIP", cache.ReplaceSRRIP}}
	rep := &Report{
		ID: "abl04", Title: "TEMPO improvement by LLC replacement policy",
		Columns: []string{"LRU", "SRRIP"},
	}
	for _, wl := range r.Scale.Big {
		row := Row{Label: wl}
		for _, rp := range reps {
			cfgB := r.singleCfg(wl)
			cfgB.Machine.Caches.LLC.Replace = rp.kind
			base, tempo, err := r.baseTempoPair(
				fmt.Sprintf("abl04/%s/%s/base", wl, rp.name),
				fmt.Sprintf("abl04/%s/%s/tempo", wl, rp.name), cfgB)
			if err != nil {
				return nil, err
			}
			row.Values = append(row.Values, perf(base, tempo))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}
