package experiments

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vm"
)

// tempoVariant returns cfg with the paper's TEMPO configuration
// enabled.
func tempoVariant(cfg sim.Config) sim.Config {
	cfg.Tempo = sim.DefaultTempo()
	return cfg
}

// baseTempoPair runs (or recalls) the baseline configuration and its
// TEMPO-enabled variant — the comparison at the heart of most figures.
func (r *Runner) baseTempoPair(baseKey, tempoKey string, cfg sim.Config) (base, tempo *sim.Result, err error) {
	if base, err = r.run(baseKey, cfg, ""); err != nil {
		return nil, nil, err
	}
	tempo, err = r.run(tempoKey, tempoVariant(cfg), baseKey)
	return base, tempo, err
}

// perf is v's runtime improvement over base: the fraction of base's
// cycles v saves.
func perf(base, v *sim.Result) float64 {
	return metrics.Improvement(float64(base.Total.Cycles), float64(v.Total.Cycles))
}

// energy is v's energy improvement over base, each run's energy as its
// own machine model accounted it (Result.Energy).
func energy(base, v *sim.Result) float64 {
	return metrics.Improvement(base.Energy.Total(), v.Energy.Total())
}

// Fig01 reproduces Figure 1: the fraction of application runtime spent
// in DRAM page-table-walk accesses, DRAM replay accesses, and other
// DRAM accesses, per big-data workload, on the baseline system.
func (r *Runner) Fig01() (*Report, error) {
	rep := &Report{
		ID: "fig01", Title: "Runtime fraction by DRAM category (baseline)",
		Columns: []string{"DRAM-PTW", "DRAM-Replay", "DRAM-Other"},
	}
	for _, wl := range r.Scale.Big {
		res, err := r.run("base/"+wl, r.singleCfg(wl), "")
		if err != nil {
			return nil, err
		}
		st := &res.Total
		rep.Rows = append(rep.Rows, Row{Label: wl, Values: []float64{
			st.RuntimeFraction(stats.DRAMPTW),
			st.RuntimeFraction(stats.DRAMReplay),
			st.RuntimeFraction(stats.DRAMOther),
		}})
	}
	return rep, nil
}

// Fig04 reproduces Figure 4: the fraction of DRAM *references* by
// category, plus the leaf-PT share of PTW traffic and the fraction of
// DRAM leaf walks whose replay also reached DRAM (the paper's 96%+
// and 98%+ observations).
func (r *Runner) Fig04() (*Report, error) {
	rep := &Report{
		ID: "fig04", Title: "DRAM reference fraction by category (baseline)",
		Columns: []string{"DRAM-PTW", "DRAM-Replay", "DRAM-Other", "leaf-share", "replay-follows"},
	}
	for _, wl := range r.Scale.Big {
		res, err := r.run("base/"+wl, r.singleCfg(wl), "")
		if err != nil {
			return nil, err
		}
		st := &res.Total
		rep.Rows = append(rep.Rows, Row{Label: wl, Values: []float64{
			st.DRAMRefFraction(stats.DRAMPTW),
			st.DRAMRefFraction(stats.DRAMReplay),
			st.DRAMRefFraction(stats.DRAMOther),
			st.LeafPTWFraction(),
			st.ReplayAfterPTWFraction(),
		}})
	}
	return rep, nil
}

// Fig10 reproduces Figure 10: TEMPO's performance and energy
// improvements per workload (left) and the superpage footprint
// fraction (right).
func (r *Runner) Fig10() (*Report, error) {
	rep := &Report{
		ID: "fig10", Title: "TEMPO improvement and superpage coverage",
		Columns: []string{"perf", "energy", "superpage"},
	}
	for _, wl := range r.Scale.Big {
		base, tempo, err := r.baseTempoPair("base/"+wl, "tempo/"+wl, r.singleCfg(wl))
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, Row{Label: wl, Values: []float64{
			perf(base, tempo),
			energy(base, tempo),
			tempo.Superpage[0],
		}})
	}
	return rep, nil
}

// Fig11 reproduces Figure 11: where TEMPO-covered replays are served
// (left: LLC / row buffer / DRAM array), and big-data vs
// small-footprint average improvements (right).
func (r *Runner) Fig11() (*Report, error) {
	rep := &Report{
		ID: "fig11", Title: "Replay service point under TEMPO; small-workload safety",
		Columns: []string{"LLC", "row-buffer", "DRAM-array", "perf", "energy"},
	}
	groupPerf := map[bool][]float64{}
	groupEnergy := map[bool][]float64{}
	addGroup := func(big bool, wl string, cfgFn func(string) sim.Config) error {
		base, tempo, err := r.baseTempoPair("base/"+wl, "tempo/"+wl, cfgFn(wl))
		if err != nil {
			return err
		}
		p, en := perf(base, tempo), energy(base, tempo)
		groupPerf[big] = append(groupPerf[big], p)
		groupEnergy[big] = append(groupEnergy[big], en)
		st := &tempo.Total
		rep.Rows = append(rep.Rows, Row{Label: wl, Values: []float64{
			st.ReplayServiceFraction(stats.ReplayLLC),
			st.ReplayServiceFraction(stats.ReplayRowBuffer),
			st.ReplayServiceFraction(stats.ReplayDRAMArray),
			p, en,
		}})
		return nil
	}
	for _, wl := range r.Scale.Big {
		if err := addGroup(true, wl, r.singleCfg); err != nil {
			return nil, err
		}
	}
	for _, wl := range r.Scale.Small {
		if err := addGroup(false, wl, r.smallCfg); err != nil {
			return nil, err
		}
	}
	rep.Rows = append(rep.Rows,
		Row{Label: "MEAN(big-data)", Values: []float64{0, 0, 0, mean(groupPerf[true]), mean(groupEnergy[true])}},
		Row{Label: "MEAN(small)", Values: []float64{0, 0, 0, mean(groupPerf[false]), mean(groupEnergy[false])}},
	)
	rep.Notes = append(rep.Notes,
		"LLC/row-buffer/DRAM-array columns are the service points of replays whose leaf PTE came from DRAM (TEMPO on)",
		"MEAN rows report only the perf/energy columns")
	return rep, nil
}

// Fig12 reproduces Figure 12: TEMPO's improvements with and without
// the IMP prefetcher. The "+IMP" rows are improvements of IMP+TEMPO
// over an IMP-only baseline.
func (r *Runner) Fig12() (*Report, error) {
	rep := &Report{
		ID: "fig12", Title: "TEMPO ± IMP indirect prefetcher",
		Columns: []string{"perf", "energy", "perf+IMP", "energy+IMP"},
	}
	for _, wl := range r.Scale.Big {
		base, tempo, err := r.baseTempoPair("base/"+wl, "tempo/"+wl, r.singleCfg(wl))
		if err != nil {
			return nil, err
		}
		cfgI := r.singleCfg(wl)
		cfgI.IMP = true
		imp, impTempo, err := r.baseTempoPair("imp/"+wl, "imp+tempo/"+wl, cfgI)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, Row{Label: wl, Values: []float64{
			perf(base, tempo),
			energy(base, tempo),
			perf(imp, impTempo),
			energy(imp, impTempo),
		}})
	}
	return rep, nil
}

// fig13Configs enumerates the page-size configurations on Figure 13's
// x-axis.
func fig13Configs() []struct {
	Label string
	OS    sim.OSPolicy
} {
	thp := func(memhog float64) sim.OSPolicy {
		p := sim.DefaultOSPolicy()
		p.MemhogFraction = memhog
		return p
	}
	return []struct {
		Label string
		OS    sim.OSPolicy
	}{
		{"4KB-only", sim.OSPolicy{Mode: vm.Mode4KOnly}},
		{"THP", thp(0)},
		{"THP+memhog25", thp(0.25)},
		{"THP+memhog50", thp(0.50)},
		{"THP+memhog75", thp(0.75)},
		// Reservations sized so coverage lands near the paper's x-axis
		// positions (~90% for 2MB pools, ~50% for the few 1GB pages a
		// scaled footprint can use).
		{"hugetlbfs-2MB", sim.OSPolicy{Mode: vm.ModeHugetlbfs2M, ReserveFraction: 0.45}},
		{"hugetlbfs-1GB", sim.OSPolicy{Mode: vm.ModeHugetlbfs1G, ReserveFraction: 0.50}},
	}
}

// Fig13 reproduces Figure 13: TEMPO's improvement as a function of the
// superpage coverage achieved by each paging configuration. Rows are
// workload/config pairs with (coverage, improvement) pairs — the
// scatter the paper plots.
func (r *Runner) Fig13() (*Report, error) {
	rep := &Report{
		ID: "fig13", Title: "TEMPO improvement vs superpage coverage",
		Columns: []string{"coverage", "perf"},
	}
	for _, wl := range r.Scale.Big {
		for _, pc := range fig13Configs() {
			cfgB := r.singleCfg(wl)
			cfgB.OS = pc.OS
			base, tempo, err := r.baseTempoPair(
				fmt.Sprintf("f13/%s/%s/base", wl, pc.Label),
				fmt.Sprintf("f13/%s/%s/tempo", wl, pc.Label), cfgB)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, Row{
				Label: wl + "/" + pc.Label,
				Values: []float64{
					tempo.Superpage[0],
					perf(base, tempo),
				},
			})
		}
	}
	rep.Notes = append(rep.Notes, "the THP/base configuration is the red circle used throughout the paper")
	return rep, nil
}

// Fig14 reproduces Figure 14: TEMPO's improvement under adaptive, open
// and closed row-buffer policies (each normalised to a baseline with
// the same policy), on homogeneous multi-core runs.
func (r *Runner) Fig14() (*Report, error) {
	rep := &Report{
		ID: "fig14", Title: "TEMPO improvement by row policy",
		Columns: []string{"adaptive", "open", "closed"},
	}
	policies := []dram.RowPolicy{dram.PolicyAdaptive, dram.PolicyOpen, dram.PolicyClosed}
	for _, wl := range r.Scale.Big {
		row := Row{Label: wl}
		for _, pol := range policies {
			cfgB := r.homoCfg(wl)
			cfgB.Machine.DRAM.Policy = pol
			base, tempo, err := r.baseTempoPair(
				fmt.Sprintf("f14/%s/%v/base", wl, pol),
				fmt.Sprintf("f14/%s/%v/tempo", wl, pol), cfgB)
			if err != nil {
				return nil, err
			}
			row.Values = append(row.Values, perf(base, tempo))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// Fig15 reproduces Figure 15: TEMPO's improvement as the PT-row wait
// window varies (0/5/10/15 cycles), on homogeneous multi-core runs.
func (r *Runner) Fig15() (*Report, error) {
	waits := []uint64{0, 5, 10, 15}
	rep := &Report{
		ID: "fig15", Title: "PT-row wait-cycle sweep (TEMPO improvement)",
		Columns: []string{"wait0", "wait5", "wait10", "wait15"},
	}
	for _, wl := range r.Scale.Big {
		baseKey := "f15/" + wl + "/base"
		base, err := r.run(baseKey, r.homoCfg(wl), "")
		if err != nil {
			return nil, err
		}
		row := Row{Label: wl}
		for _, w := range waits {
			cfgT := r.homoCfg(wl)
			cfgT.Tempo = sim.DefaultTempo()
			cfgT.Tempo.PTRowWait = w
			tempo, err := r.run(fmt.Sprintf("f15/%s/wait%d", wl, w), cfgT, baseKey)
			if err != nil {
				return nil, err
			}
			row.Values = append(row.Values, perf(base, tempo))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}
