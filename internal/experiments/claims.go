package experiments

import (
	"fmt"
	"strings"
)

// Claim is one qualitative assertion the paper makes about its
// evaluation — the "shape" a reproduction must preserve: who wins, by
// roughly what factor, where trends point. Claims are *reported*, not
// asserted: a failing claim is a documented divergence, and
// EXPERIMENTS.md discusses every one.
type Claim struct {
	ID string
	// Figure whose report the claim reads.
	Figure string
	// Statement paraphrases the paper.
	Statement string
	// Check inspects the report and returns a measured summary plus
	// whether the claim holds.
	Check func(rep *Report) (got string, ok bool)
}

// ClaimResult is one evaluated claim.
type ClaimResult struct {
	Claim Claim
	Got   string
	OK    bool
	Err   error
}

// forEach applies f to every non-MEAN row and reports the worst case.
func forEach(rep *Report, col string, f func(v float64) bool) (string, bool) {
	ok := true
	worstLabel, worst := "", 0.0
	first := true
	for _, row := range rep.Rows {
		if strings.HasPrefix(row.Label, "MEAN") {
			continue
		}
		v, found := rep.Value(row.Label, col)
		if !found {
			continue
		}
		if !f(v) {
			ok = false
		}
		if first || v < worst {
			worst, worstLabel, first = v, row.Label, false
		}
	}
	return fmt.Sprintf("min %s = %.3f (%s)", col, worst, worstLabel), ok
}

// Claims returns the paper's checkable assertions in figure order.
func Claims() []Claim {
	return []Claim{
		{
			ID: "ptw-substantial", Figure: "fig04",
			Statement: "a substantial fraction (20-40% in the paper; ≥8% at this scale) of DRAM references are page-table accesses",
			Check: func(rep *Report) (string, bool) {
				return forEach(rep, "DRAM-PTW", func(v float64) bool { return v >= 0.08 })
			},
		},
		{
			ID: "leaf-dominates", Figure: "fig04",
			Statement: "96%+ of DRAM page-table references are leaf PTEs",
			Check: func(rep *Report) (string, bool) {
				return forEach(rep, "leaf-share", func(v float64) bool { return v >= 0.96 })
			},
		},
		{
			ID: "replay-follows", Figure: "fig04",
			Statement: "98%+ of DRAM leaf-PT lookups are followed by DRAM replays",
			Check: func(rep *Report) (string, bool) {
				return forEach(rep, "replay-follows", func(v float64) bool { return v >= 0.98 })
			},
		},
		{
			ID: "tempo-wins-everywhere", Figure: "fig10",
			Statement: "TEMPO improves performance for every big-data workload (10-30% in the paper)",
			Check: func(rep *Report) (string, bool) {
				return forEach(rep, "perf", func(v float64) bool { return v > 0 })
			},
		},
		{
			ID: "energy-saves", Figure: "fig10",
			Statement: "TEMPO saves energy on every big-data workload (1-14% in the paper), less than the performance gain",
			Check: func(rep *Report) (string, bool) {
				got, ok := forEach(rep, "energy", func(v float64) bool { return v > 0 })
				for _, row := range rep.Rows {
					p, _ := rep.Value(row.Label, "perf")
					e, _ := rep.Value(row.Label, "energy")
					if e >= p {
						ok = false
					}
				}
				return got, ok
			},
		},
		{
			ID: "thp-coverage", Figure: "fig10",
			Statement: "the OS backs more than half of every footprint with 2MB superpages under THP",
			Check: func(rep *Report) (string, bool) {
				return forEach(rep, "superpage", func(v float64) bool { return v > 0.5 })
			},
		},
		{
			ID: "replays-rescued", Figure: "fig11",
			Statement: "75%+ of covered replays hit the LLC and most of the rest the row buffer",
			Check: func(rep *Report) (string, bool) {
				got, ok := "", true
				for _, row := range rep.Rows {
					if strings.HasPrefix(row.Label, "MEAN") || strings.HasSuffix(row.Label, ".small") {
						continue
					}
					llc, _ := rep.Value(row.Label, "LLC")
					rb, _ := rep.Value(row.Label, "row-buffer")
					if llc < 0.75 || llc+rb < 0.95 {
						ok = false
						got = fmt.Sprintf("%s: LLC %.2f, +RB %.2f", row.Label, llc, llc+rb)
					}
				}
				if got == "" {
					got = "all big-data workloads ≥75% LLC, ≥95% incl. row buffer"
				}
				return got, ok
			},
		},
		{
			ID: "small-unharmed", Figure: "fig11",
			Statement: "not a single small-footprint workload becomes slower or consumes more energy",
			Check: func(rep *Report) (string, bool) {
				got, ok := "", true
				for _, row := range rep.Rows {
					if !strings.HasSuffix(row.Label, ".small") {
						continue
					}
					p, _ := rep.Value(row.Label, "perf")
					e, _ := rep.Value(row.Label, "energy")
					if p < -0.005 || e < -0.005 {
						ok = false
						got = fmt.Sprintf("%s: perf %.3f energy %.3f", row.Label, p, e)
					}
				}
				if got == "" {
					got = "all small workloads within ±0.5%"
				}
				return got, ok
			},
		},
		{
			ID: "imp-synergy", Figure: "fig12",
			Statement: "TEMPO is at least as useful with IMP as without for indirect-access workloads",
			Check: func(rep *Report) (string, bool) {
				ok := true
				var msgs []string
				for _, wl := range []string{"spmv", "sgms", "graph500", "lsh"} {
					plain, p1 := rep.Value(wl, "perf")
					with, p2 := rep.Value(wl, "perf+IMP")
					if !p1 || !p2 {
						continue
					}
					if with < plain-0.01 {
						ok = false
					}
					msgs = append(msgs, fmt.Sprintf("%s %.3f→%.3f", wl, plain, with))
				}
				return strings.Join(msgs, ", "), ok
			},
		},
		{
			ID: "superpages-erode", Figure: "fig13",
			Statement: "TEMPO's benefit falls as superpage coverage rises, and is largest when superpages are scarce",
			Check: func(rep *Report) (string, bool) {
				ok := true
				var worst string
				byWL := map[string][2]float64{} // wl -> {4K perf, best-coverage perf}
				for _, row := range rep.Rows {
					parts := strings.SplitN(row.Label, "/", 2)
					wl, cfg := parts[0], parts[1]
					cov, _ := rep.Value(row.Label, "coverage")
					perf, _ := rep.Value(row.Label, "perf")
					cur := byWL[wl]
					if cfg == "4KB-only" {
						cur[0] = perf
					}
					if cov > 0.85 {
						if perf > cur[1] {
							cur[1] = perf
						}
					}
					byWL[wl] = cur
				}
				for wl, v := range byWL {
					if v[0] <= v[1] {
						ok = false
						worst = fmt.Sprintf("%s: 4K %.3f vs high-coverage %.3f", wl, v[0], v[1])
					}
				}
				if worst == "" {
					worst = fmt.Sprintf("%d workloads, 4K-only always highest", len(byWL))
				}
				return worst, ok
			},
		},
		{
			ID: "row-policies", Figure: "fig14",
			Statement: "TEMPO consistently improves adaptive, open and closed row-management strategies",
			Check: func(rep *Report) (string, bool) {
				ok := true
				worst := 1.0
				worstAt := ""
				for _, row := range rep.Rows {
					for i, col := range rep.Columns {
						if row.Values[i] <= 0 {
							ok = false
						}
						if row.Values[i] < worst {
							worst, worstAt = row.Values[i], row.Label+"/"+col
						}
					}
				}
				return fmt.Sprintf("min improvement %.3f (%s)", worst, worstAt), ok
			},
		},
		{
			ID: "pt-wait-second-order", Figure: "fig15",
			Statement: "the PT-row wait window moves performance by only a few percent (1-4% in the paper)",
			Check: func(rep *Report) (string, bool) {
				ok := true
				spread := 0.0
				for _, row := range rep.Rows {
					lo, hi := row.Values[0], row.Values[0]
					for _, v := range row.Values {
						if v < lo {
							lo = v
						}
						if v > hi {
							hi = v
						}
					}
					if hi-lo > spread {
						spread = hi - lo
					}
					if hi-lo > 0.05 {
						ok = false
					}
				}
				return fmt.Sprintf("max spread %.3f", spread), ok
			},
		},
		{
			ID: "bliss-wspeedup", Figure: "fig16",
			Statement: "TEMPO improves BLISS weighted speedup at the paper's design point (half-weight counters)",
			Check: func(rep *Report) (string, bool) {
				v, found := rep.Value("weight=1", "wspeedup")
				return fmt.Sprintf("weight=1 wspeedup improvement %.3f", v), found && v > 0
			},
		},
		{
			ID: "subrows-help", Figure: "fig17",
			Statement: "dedicating 2 of 8 sub-rows to prefetches improves weighted speedup under FOA and POA",
			Check: func(rep *Report) (string, bool) {
				f, okF := rep.Value("FOA/dedicated=2", "wspeedup")
				p, okP := rep.Value("POA/dedicated=2", "wspeedup")
				return fmt.Sprintf("FOA %.3f, POA %.3f", f, p), okF && okP && f > 0 && p > 0
			},
		},
	}
}

// EvaluateClaims regenerates the needed figures (reusing the runner's
// memo — and its parallel engine when attached) and checks every
// claim.
func EvaluateClaims(r *Runner) ([]ClaimResult, error) {
	var out []ClaimResult
	for _, c := range Claims() {
		rep, err := r.figure(c.Figure)
		if err != nil {
			return nil, err
		}
		got, ok := c.Check(rep)
		out = append(out, ClaimResult{Claim: c, Got: got, OK: ok})
	}
	return out, nil
}

// FormatClaims renders claim results as a table.
func FormatClaims(results []ClaimResult) string {
	var b strings.Builder
	for _, r := range results {
		status := "PASS"
		if !r.OK {
			status = "DIVERGES"
		}
		fmt.Fprintf(&b, "[%-8s] %-22s (%s) %s\n           measured: %s\n",
			status, r.Claim.ID, r.Claim.Figure, r.Claim.Statement, r.Got)
	}
	return b.String()
}
