package report

import (
	"fmt"
	"strings"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// cpiGlyphs assigns each CPI bucket the single character that draws
// its slice in the stacked-bar figure, in bucket order. Chosen to read
// as a gradient: quiet on-chip time in low ink, DRAM time in capitals.
var cpiGlyphs = [stats.NumCPIBuckets]byte{
	stats.CPICompute:          '.',
	stats.CPITLBL2:            ':',
	stats.CPIWalkMMU:          'm',
	stats.CPIWalkPTECache:     'p',
	stats.CPIWalkPTEDRAM:      'P',
	stats.CPIDataL1:           '-',
	stats.CPIDataL2:           '=',
	stats.CPIDataLLC:          'l',
	stats.CPIDataDRAMQueue:    'Q',
	stats.CPIDataDRAMService:  'D',
	stats.CPIRowConflictExtra: 'X',
}

// CPITable reports each run's cycle attribution: overall CPI and the
// fraction of core cycles each stack bucket accounts for (fractions of
// cpi/cycles, so every row's bucket cells sum to 1 on an attributed
// run). Unattributed results (pre-CPI cache entries) are skipped.
func CPITable(d *Data) *experiments.Report {
	cols := []string{"cpi"}
	for b := stats.CPIBucket(0); b < stats.NumCPIBuckets; b++ {
		cols = append(cols, b.String())
	}
	t := &experiments.Report{
		ID:      "cpi",
		Title:   "CPI stacks: where did the cycles go",
		Columns: cols,
	}
	for _, key := range d.Keys() {
		r := d.Get(key)
		if r.Result == nil {
			continue
		}
		st := &r.Result.Total
		if st.CPICycles == 0 || st.Instructions == 0 {
			continue
		}
		cells := []float64{float64(st.CPICycles) / float64(st.Instructions)}
		for b := stats.CPIBucket(0); b < stats.NumCPIBuckets; b++ {
			cells = append(cells, float64(st.CPIStack[b])/float64(st.CPICycles))
		}
		t.Rows = append(t.Rows, experiments.Row{Label: key, Values: cells})
	}
	if len(t.Rows) > 0 {
		t.Notes = append(t.Notes,
			"cpi = summed per-core cycles / instructions; bucket columns are fractions of attributed cycles and sum to 1 per row",
			fmt.Sprintf("credit counters (events, not cycles) ride alongside: hidden-by-prefetch and mech-elided; see OBSERVABILITY.md %q", "CPI stacks"))
	}
	return t
}

// CPIFigure renders the CPI stacks as horizontal stacked bars in plain
// text (one bar per run, width proportional to that run's CPI relative
// to the worst run, each bucket's share drawn with its glyph), followed
// by a legend. Returns "" when no run is attributed — callers skip the
// figure the way Tables skips empty tables.
func CPIFigure(d *Data) string {
	type row struct {
		key string
		st  *stats.Stats
		cpi float64
	}
	var rows []row
	var worst float64
	labelW := 0
	for _, key := range d.Keys() {
		r := d.Get(key)
		if r.Result == nil {
			continue
		}
		st := &r.Result.Total
		if st.CPICycles == 0 || st.Instructions == 0 {
			continue
		}
		cpi := float64(st.CPICycles) / float64(st.Instructions)
		rows = append(rows, row{key, st, cpi})
		if cpi > worst {
			worst = cpi
		}
		if len(key) > labelW {
			labelW = len(key)
		}
	}
	if len(rows) == 0 || worst == 0 {
		return ""
	}

	const fullWidth = 60
	var b strings.Builder
	b.WriteString("CPI stacks (bar length ∝ CPI; worst run spans the full width)\n\n")
	for _, r := range rows {
		width := int(float64(fullWidth)*r.cpi/worst + 0.5)
		if width < 1 {
			width = 1
		}
		// Largest-remainder apportionment of the bar's cells across
		// buckets: floors first, then the highest remainders round up,
		// so the glyph counts always total the bar width exactly.
		var cells [stats.NumCPIBuckets]int
		type rem struct {
			b    stats.CPIBucket
			frac float64
		}
		var rems []rem
		used := 0
		for bk := stats.CPIBucket(0); bk < stats.NumCPIBuckets; bk++ {
			exact := float64(width) * float64(r.st.CPIStack[bk]) / float64(r.st.CPICycles)
			cells[bk] = int(exact)
			used += cells[bk]
			rems = append(rems, rem{bk, exact - float64(cells[bk])})
		}
		for used < width {
			best := 0
			for i := range rems {
				if rems[i].frac > rems[best].frac {
					best = i
				}
			}
			cells[rems[best].b]++
			rems[best].frac = -1
			used++
		}
		fmt.Fprintf(&b, "%-*s |", labelW, r.key)
		for bk := stats.CPIBucket(0); bk < stats.NumCPIBuckets; bk++ {
			b.WriteString(strings.Repeat(string(cpiGlyphs[bk]), cells[bk]))
		}
		fmt.Fprintf(&b, "| cpi %.2f\n", r.cpi)
	}
	b.WriteString("\nlegend:")
	for bk := stats.CPIBucket(0); bk < stats.NumCPIBuckets; bk++ {
		fmt.Fprintf(&b, " %c=%s", cpiGlyphs[bk], bk)
	}
	b.WriteByte('\n')
	return b.String()
}
