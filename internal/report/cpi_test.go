package report

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestCPITable(t *testing.T) {
	runsPath, cacheDir, _ := writeSweep(t)
	d, err := Load(runsPath, cacheDir, "")
	if err != nil {
		t.Fatal(err)
	}
	tab := CPITable(d)
	if len(tab.Rows) != 3 {
		t.Fatalf("got %d cpi rows, want 3: %+v", len(tab.Rows), tab.Rows)
	}
	if len(tab.Columns) != 1+int(stats.NumCPIBuckets) {
		t.Fatalf("got %d columns, want %d", len(tab.Columns), 1+int(stats.NumCPIBuckets))
	}
	for _, row := range tab.Rows {
		// Bucket fractions (cells after the cpi column) sum to 1.
		var sum float64
		for _, c := range row.Values[1:] {
			sum += c
		}
		if sum < 0.9999 || sum > 1.0001 {
			t.Errorf("%s: bucket fractions sum to %v, want 1", row.Label, sum)
		}
	}
	// base/xsbench: 2000 cycles / 1000 instructions.
	for _, row := range tab.Rows {
		if row.Label == "base/xsbench" && row.Values[0] != 2.0 {
			t.Errorf("base/xsbench cpi = %v, want 2.0", row.Values[0])
		}
	}
	md := tab.Markdown()
	for _, name := range []string{"compute", "data-dram-service", "row-conflict-extra"} {
		if !strings.Contains(md, name) {
			t.Errorf("markdown missing bucket column %q", name)
		}
	}
}

func TestCPIFigure(t *testing.T) {
	runsPath, cacheDir, _ := writeSweep(t)
	d, err := Load(runsPath, cacheDir, "")
	if err != nil {
		t.Fatal(err)
	}
	fig := CPIFigure(d)
	if fig == "" {
		t.Fatal("no figure from an attributed sweep")
	}
	if !strings.Contains(fig, "legend:") {
		t.Error("figure has no legend")
	}
	for _, key := range []string{"base/xsbench", "tempo/xsbench", "base/gups"} {
		if !strings.Contains(fig, key) {
			t.Errorf("figure missing run %q", key)
		}
	}
	// Every bucket name appears in the legend.
	for b := stats.CPIBucket(0); b < stats.NumCPIBuckets; b++ {
		if !strings.Contains(fig, b.String()) {
			t.Errorf("legend missing bucket %v", b)
		}
	}
	// Deterministic.
	if fig != CPIFigure(d) {
		t.Error("figure is not deterministic")
	}
	// base/gups has the most cycles per instruction (3.0) → longest bar.
	longest, longestKey := 0, ""
	for _, line := range strings.Split(fig, "\n") {
		open := strings.IndexByte(line, '|')
		close := strings.LastIndexByte(line, '|')
		if open < 0 || close <= open {
			continue
		}
		if w := close - open - 1; w > longest {
			longest, longestKey = w, strings.TrimSpace(line[:open])
		}
	}
	if longestKey != "base/gups" {
		t.Errorf("longest bar is %q (width %d), want base/gups", longestKey, longest)
	}
}

// TestCPIFigureSkipsUnattributed pins the legacy-cache behaviour: a
// sweep whose results predate attribution (CPICycles == 0) renders no
// figure and no table rows instead of dividing by zero.
func TestCPIFigureSkipsUnattributed(t *testing.T) {
	runsPath, cacheDir, _ := writeSweep(t)
	d, err := Load(runsPath, cacheDir, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range d.Keys() {
		if r := d.Get(key); r.Result != nil {
			r.Result.Total.CPICycles = 0
		}
	}
	if tab := CPITable(d); len(tab.Rows) != 0 {
		t.Errorf("unattributed sweep produced %d cpi rows", len(tab.Rows))
	}
	if fig := CPIFigure(d); fig != "" {
		t.Errorf("unattributed sweep produced a figure:\n%s", fig)
	}
}

// TestAuditAllFlagsCPIImbalance checks the per-core conservation check
// in AuditAll: a core whose stack does not sum to its cycles is
// flagged, while a legacy (unattributed) core self-skips.
func TestAuditAllFlagsCPIImbalance(t *testing.T) {
	runsPath, cacheDir, _ := writeSweep(t)
	d, err := Load(runsPath, cacheDir, "")
	if err != nil {
		t.Fatal(err)
	}
	// Steal cycles from one core's compute bucket.
	r := d.Get("base/xsbench")
	r.Result.Cores[0].CPIStack[stats.CPICompute] -= 7
	r.Result.Total.CPIStack[stats.CPICompute] -= 7
	v, _, _ := AuditAll(d)
	found := false
	for _, viol := range v["base/xsbench"] {
		if viol.Check == "cpi-stack-sums-to-cycles" {
			found = true
		}
	}
	if !found {
		t.Fatalf("imbalanced stack not flagged: %v", v)
	}

	// Zeroing CPICycles marks the result unattributed: self-skip.
	r.Result.Cores[0].CPICycles = 0
	r.Result.Total.CPICycles = 0
	v, _, _ = AuditAll(d)
	if len(v["base/xsbench"]) != 0 {
		t.Fatalf("unattributed result flagged: %v", v["base/xsbench"])
	}
}
