package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// aloneIPC returns each application's IPC when run alone on the
// machine (the denominator of weighted speedup).
func (r *Runner) aloneIPC(specs []sim.WorkloadSpec) ([]float64, error) {
	out := make([]float64, len(specs))
	for i, spec := range specs {
		cfg := sim.DefaultConfig(spec.Name)
		cfg.Records = r.Scale.MixRecords
		cfg.Workloads = []sim.WorkloadSpec{spec}
		key := fmt.Sprintf("alone/%s/%d/%d", spec.Name, spec.Footprint, spec.Seed)
		res, err := r.run(key, cfg, "")
		if err != nil {
			return nil, err
		}
		out[i] = res.Cores[0].IPC()
	}
	return out, nil
}

// mixCfg builds the shared-system configuration for one mix, with
// memory channels scaled to its cores (scaleChannels).
func (r *Runner) mixCfg(mix int) sim.Config {
	cfg := sim.DefaultConfig("xsbench") // workloads replaced below
	cfg.Records = r.Scale.MixRecords
	cfg.Workloads = r.mixSpecs(mix)
	scaleChannels(&cfg)
	return cfg
}

// mixMetrics runs one mix configuration, measured against the run
// keyed base ("" for a baseline itself), and returns (weighted
// speedup, maximum slowdown) against the alone-IPC baselines.
func (r *Runner) mixMetrics(key string, cfg sim.Config, base string, alone []float64) (ws, ms float64, err error) {
	res, err := r.run(key, cfg, base)
	if err != nil {
		return 0, 0, err
	}
	shared := make([]float64, len(res.Cores))
	for i := range res.Cores {
		shared[i] = res.Cores[i].IPC()
	}
	ws, err = metrics.WeightedSpeedup(alone, shared)
	if err != nil {
		return 0, 0, err
	}
	ms, err = metrics.MaxSlowdown(alone, shared)
	return ws, ms, err
}

// Fig16 reproduces Figure 16: fractional improvements in weighted
// speedup and maximum slowdown under BLISS, as the TEMPO prefetch
// counter weight varies (left; demand weight is 2, so weight 1 is the
// paper's "half") and as the post-prefetch grace period varies
// (right). Values are averaged across the mixes.
func (r *Runner) Fig16() (*Report, error) {
	rep := &Report{
		ID: "fig16", Title: "BLISS sweeps: prefetch weight (left), grace period (right)",
		Columns: []string{"wspeedup", "maxslowdown"},
	}
	weights := []int{0, 1, 2, 4}
	graces := []uint64{0, 5, 15, 30}
	type acc struct{ ws, ms []float64 }
	weightAcc := make([]acc, len(weights))
	graceAcc := make([]acc, len(graces))

	for mix := 0; mix < r.Scale.Mixes; mix++ {
		specs := r.mixSpecs(mix)
		alone, err := r.aloneIPC(specs)
		if err != nil {
			return nil, err
		}
		baseCfg := r.mixCfg(mix)
		baseCfg.Scheduler = sim.SchedBLISS
		baseKey := fmt.Sprintf("f16/mix%d/base", mix)
		wsB, msB, err := r.mixMetrics(baseKey, baseCfg, "", alone)
		if err != nil {
			return nil, err
		}
		for wi, w := range weights {
			cfg := r.mixCfg(mix)
			cfg.Scheduler = sim.SchedBLISS
			cfg.Tempo = sim.DefaultTempo()
			cfg.BLISSPrefetchWeight = w
			cfg.BLISSGracePeriod = 15
			ws, ms, err := r.mixMetrics(fmt.Sprintf("f16/mix%d/w%d", mix, w), cfg, baseKey, alone)
			if err != nil {
				return nil, err
			}
			weightAcc[wi].ws = append(weightAcc[wi].ws, (ws-wsB)/wsB)
			weightAcc[wi].ms = append(weightAcc[wi].ms, (msB-ms)/msB)
		}
		for gi, g := range graces {
			cfg := r.mixCfg(mix)
			cfg.Scheduler = sim.SchedBLISS
			cfg.Tempo = sim.DefaultTempo()
			cfg.BLISSPrefetchWeight = 1
			cfg.BLISSGracePeriod = g
			ws, ms, err := r.mixMetrics(fmt.Sprintf("f16/mix%d/g%d", mix, g), cfg, baseKey, alone)
			if err != nil {
				return nil, err
			}
			graceAcc[gi].ws = append(graceAcc[gi].ws, (ws-wsB)/wsB)
			graceAcc[gi].ms = append(graceAcc[gi].ms, (msB-ms)/msB)
		}
	}
	for wi, w := range weights {
		rep.Rows = append(rep.Rows, Row{
			Label:  fmt.Sprintf("weight=%d", w),
			Values: []float64{mean(weightAcc[wi].ws), mean(weightAcc[wi].ms)},
		})
	}
	for gi, g := range graces {
		rep.Rows = append(rep.Rows, Row{
			Label:  fmt.Sprintf("grace=%d", g),
			Values: []float64{mean(graceAcc[gi].ws), mean(graceAcc[gi].ms)},
		})
	}
	rep.Notes = append(rep.Notes,
		"values are fractional improvements over baseline BLISS (no TEMPO), averaged over mixes",
		"demand requests weigh 2, so weight=1 is the paper's half-weight design point")
	return rep, nil
}

// Fig17 reproduces Figure 17: with 8 sub-row buffers per bank under
// FOA (left) and POA (right), the improvement in weighted speedup and
// maximum slowdown as the number of sub-rows dedicated to TEMPO
// prefetches varies.
func (r *Runner) Fig17() (*Report, error) {
	rep := &Report{
		ID: "fig17", Title: "Sub-row buffers: prefetch-dedicated sub-rows (FOA, POA)",
		Columns: []string{"wspeedup", "maxslowdown"},
	}
	dedic := []int{0, 1, 2, 4}
	policies := []struct {
		name string
		kind sim.SubRowPolicyKind
	}{{"FOA", sim.SubRowFOA}, {"POA", sim.SubRowPOA}}

	type acc struct{ ws, ms []float64 }
	results := make(map[string]*acc)
	for mix := 0; mix < r.Scale.Mixes; mix++ {
		specs := r.mixSpecs(mix)
		alone, err := r.aloneIPC(specs)
		if err != nil {
			return nil, err
		}
		for _, pol := range policies {
			baseCfg := r.mixCfg(mix)
			baseCfg.SubRows = 8
			baseCfg.SubRowPolicy = pol.kind
			baseKey := fmt.Sprintf("f17/mix%d/%s/base", mix, pol.name)
			wsB, msB, err := r.mixMetrics(baseKey, baseCfg, "", alone)
			if err != nil {
				return nil, err
			}
			for _, d := range dedic {
				cfg := r.mixCfg(mix)
				cfg.SubRows = 8
				cfg.SubRowPolicy = pol.kind
				cfg.PrefetchSubRows = d
				cfg.Tempo = sim.DefaultTempo()
				ws, ms, err := r.mixMetrics(fmt.Sprintf("f17/mix%d/%s/d%d", mix, pol.name, d), cfg, baseKey, alone)
				if err != nil {
					return nil, err
				}
				k := fmt.Sprintf("%s/dedicated=%d", pol.name, d)
				if results[k] == nil {
					results[k] = &acc{}
				}
				results[k].ws = append(results[k].ws, (ws-wsB)/wsB)
				results[k].ms = append(results[k].ms, (msB-ms)/msB)
			}
		}
	}
	for _, pol := range policies {
		for _, d := range dedic {
			k := fmt.Sprintf("%s/dedicated=%d", pol.name, d)
			a := results[k]
			rep.Rows = append(rep.Rows, Row{Label: k, Values: []float64{mean(a.ws), mean(a.ms)}})
		}
	}
	rep.Notes = append(rep.Notes,
		"improvements are versus the same allocation policy without TEMPO (8 × 1KB sub-rows per bank)")
	return rep, nil
}
