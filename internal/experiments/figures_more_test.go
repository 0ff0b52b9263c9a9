package experiments

import (
	"strings"
	"testing"
)

func TestFig12IMPInteraction(t *testing.T) {
	s := tinyScale()
	s.Big = []string{"spmv"} // the IMP showcase workload
	r := NewRunner(s)
	rep, err := r.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	perf, ok := rep.Value("spmv", "perf")
	if !ok {
		t.Fatal("missing perf")
	}
	perfIMP, _ := rep.Value("spmv", "perf+IMP")
	if perf <= 0 || perfIMP <= 0 {
		t.Errorf("TEMPO should help with and without IMP: %v, %v", perf, perfIMP)
	}
}

func TestFig13CoverageAxis(t *testing.T) {
	s := tinyScale()
	s.Big = []string{"graph500"}
	r := NewRunner(s)
	rep, err := r.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 paging configs", len(rep.Rows))
	}
	get := func(cfg, col string) float64 {
		v, ok := rep.Value("graph500/"+cfg, col)
		if !ok {
			t.Fatalf("missing %s", cfg)
		}
		return v
	}
	if c := get("4KB-only", "coverage"); c != 0 {
		t.Errorf("4KB-only coverage = %v", c)
	}
	if c := get("THP", "coverage"); c < 0.3 || c > 0.95 {
		t.Errorf("THP coverage = %v, want the paper's >50%%-ish band", c)
	}
	if c := get("hugetlbfs-2MB", "coverage"); c < 0.6 {
		t.Errorf("hugetlbfs 2MB coverage = %v", c)
	}
	// TEMPO's benefit at 0%% coverage must exceed the benefit at the
	// highest coverage (Figure 13's downward trend).
	lo := get("4KB-only", "perf")
	hiCfg := "hugetlbfs-2MB"
	if get("hugetlbfs-1GB", "coverage") > get(hiCfg, "coverage") {
		hiCfg = "hugetlbfs-1GB"
	}
	hi := get(hiCfg, "perf")
	if lo <= hi {
		t.Errorf("benefit should fall with coverage: 4K-only %v <= %s %v", lo, hiCfg, hi)
	}
	if lo <= 0 {
		t.Errorf("4KB-only TEMPO benefit = %v", lo)
	}
}

func TestFig14AllPoliciesPositive(t *testing.T) {
	s := tinyScale()
	s.Big = []string{"xsbench"}
	r := NewRunner(s)
	rep, err := r.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	for i, col := range rep.Columns {
		if v := rep.Rows[0].Values[i]; v <= 0 {
			t.Errorf("TEMPO under %s policy: %v <= 0", col, v)
		}
	}
}

func TestFig17ReportShape(t *testing.T) {
	s := tinyScale()
	r := NewRunner(s)
	rep, err := r.Fig17()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 8 {
		t.Fatalf("rows = %d, want 2 policies × 4 dedication levels", len(rep.Rows))
	}
	foa, poa := 0, 0
	for _, row := range rep.Rows {
		if strings.HasPrefix(row.Label, "FOA/") {
			foa++
		}
		if strings.HasPrefix(row.Label, "POA/") {
			poa++
		}
		if len(row.Values) != 2 {
			t.Errorf("%s has %d values", row.Label, len(row.Values))
		}
	}
	if foa != 4 || poa != 4 {
		t.Errorf("FOA rows %d, POA rows %d", foa, poa)
	}
}

func TestRunnerCacheReuseAcrossFigures(t *testing.T) {
	s := tinyScale()
	s.Big = []string{"xsbench"}
	s.Small = nil
	r := NewRunner(s)
	if _, err := r.Fig10(); err != nil {
		t.Fatal(err)
	}
	n := len(r.cache)
	// Fig11 reuses base+tempo runs of the same workloads.
	if _, err := r.Fig11(); err != nil {
		t.Fatal(err)
	}
	if len(r.cache) != n {
		t.Errorf("fig11 re-ran cached configs: %d -> %d", n, len(r.cache))
	}
}

func TestClaimsEngine(t *testing.T) {
	claims := Claims()
	if len(claims) < 12 {
		t.Fatalf("claims = %d", len(claims))
	}
	ids := map[string]bool{}
	for _, c := range claims {
		if c.ID == "" || c.Statement == "" || c.Check == nil {
			t.Errorf("claim %q incomplete", c.ID)
		}
		if ids[c.ID] {
			t.Errorf("duplicate claim id %q", c.ID)
		}
		ids[c.ID] = true
		if _, ok := ByID(c.Figure); !ok {
			t.Errorf("claim %s references unknown figure %s", c.ID, c.Figure)
		}
	}
}

func TestEvaluateClaimsRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("claims evaluation runs every figure")
	}
	s := tinyScale()
	r := NewRunner(s)
	results, err := EvaluateClaims(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(Claims()) {
		t.Fatalf("results = %d", len(results))
	}
	table := FormatClaims(results)
	for _, want := range []string{"ptw-substantial", "measured:"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q", want)
		}
	}
	// The core claims must hold even at tiny scale.
	for _, res := range results {
		switch res.Claim.ID {
		case "leaf-dominates", "replay-follows", "tempo-wins-everywhere", "row-policies":
			if !res.OK {
				t.Errorf("core claim %s diverges at tiny scale: %s", res.Claim.ID, res.Got)
			}
		}
	}
}

func TestPaperPointsWellFormed(t *testing.T) {
	pts := PaperPoints()
	if len(pts) < 12 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Extract == nil || p.Metric == "" {
			t.Errorf("point %s/%s incomplete", p.Figure, p.Metric)
		}
		if p.PaperLo > p.PaperHi {
			t.Errorf("%s: inverted band", p.Metric)
		}
		if _, ok := ByID(p.Figure); !ok {
			t.Errorf("%s references unknown figure %s", p.Metric, p.Figure)
		}
	}
}

func TestComparePaperRendersTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure")
	}
	s := tinyScale()
	r := NewRunner(s)
	table, err := ComparePaper(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"| Figure |", "fig10", "fig17"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q", want)
		}
	}
	if strings.Count(table, "\n") < 14 {
		t.Error("table too short")
	}
}

func TestExtrasRegistry(t *testing.T) {
	ex := Extras()
	if len(ex) != 4 {
		t.Fatalf("extras = %d", len(ex))
	}
	for _, f := range ex {
		if _, ok := ByID(f.ID); !ok {
			t.Errorf("%s not reachable through ByID", f.ID)
		}
	}
}

func TestAbl01ComponentsOrdering(t *testing.T) {
	s := tinyScale()
	s.Big = []string{"xsbench"}
	r := NewRunner(s)
	rep, err := r.Abl01Components()
	if err != nil {
		t.Fatal(err)
	}
	rowOnly, _ := rep.Value("xsbench", "rowbuf-only")
	full, _ := rep.Value("xsbench", "full")
	if rowOnly <= 0 || full <= 0 {
		t.Errorf("both halves should help: %v, %v", rowOnly, full)
	}
	if full <= rowOnly {
		t.Errorf("full TEMPO (%v) should beat row-buffer-only (%v)", full, rowOnly)
	}
}

func TestAbl02And04RunAtTinyScale(t *testing.T) {
	s := tinyScale()
	s.Big = []string{"mcf"}
	r := NewRunner(s)
	for _, fn := range []func() (*Report, error){r.Abl02RowSize, r.Abl04LLCReplacement} {
		rep, err := fn()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Rows) != 1 || len(rep.Rows[0].Values) < 2 {
			t.Errorf("%s malformed: %+v", rep.ID, rep.Rows)
		}
	}
}
