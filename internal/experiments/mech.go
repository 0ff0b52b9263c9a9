package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/translation"
)

// mechWorkloads are the fixed mech01 workloads: the two big-data
// workloads with the most contrasting translation behaviour (xsbench's
// scattered lookups vs graph500's pointer chasing), so the head-to-head
// exposes each mechanism's strengths without sweeping all eight.
var mechWorkloads = []string{"xsbench", "graph500"}

// Mech01 is the mechanism-zoo head-to-head (not a paper figure; the
// methodology is MECHANISMS.md). Each workload runs once as the shared
// no-mechanism baseline and once per translation mechanism — tempo with
// the paper's full configuration, which is fig10's TEMPO run, rivals on
// their own — each declaring "base/<wl>" as its baseline, so
// tempo-report's pairs table lists them. Only the tempo rows are
// paper-comparable (the "Mechanism zoo" section of paper_vs_measured.md
// explains how to read the rest).
func (r *Runner) Mech01() (*Report, error) {
	mechs := r.Mechs
	if len(mechs) == 0 {
		mechs = translation.Names()
	}
	rep := &Report{
		ID:      "mech01",
		Title:   "Translation-mechanism zoo: speedup over shared baseline",
		Columns: []string{"speedup", "ipc", "ptw_dram_p50", "ptw_dram_p95", "engaged"},
		Notes: []string{
			"mechanisms: " + fmt.Sprint(mechs),
			"engaged = the mechanism's engagement counter (MECHANISMS.md); only tempo rows are paper-comparable",
		},
	}
	for _, wl := range mechWorkloads {
		base, err := r.run("base/"+wl, r.singleCfg(wl), "")
		if err != nil {
			return nil, err
		}
		for _, m := range mechs {
			cfg := r.singleCfg(wl)
			if m == "tempo" {
				// "tempo" names the default machine with the paper's
				// full TEMPO configuration: fig10's run.
				cfg = tempoVariant(cfg)
			} else {
				cfg.Mech = m
			}
			res, err := r.run("mech/"+m+"/"+wl, cfg, "base/"+wl)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, Row{Label: m + "/" + wl, Values: []float64{
				metrics.Speedup(float64(base.Total.Cycles), float64(res.Total.Cycles)),
				res.Total.IPC(),
				float64(res.Total.DRAMLatencyPercentile(stats.DRAMPTW, 0.50)),
				float64(res.Total.DRAMLatencyPercentile(stats.DRAMPTW, 0.95)),
				float64(translation.Engagement(m, &res.Total, res.MechCounters)),
			}})
		}
	}
	return rep, nil
}
