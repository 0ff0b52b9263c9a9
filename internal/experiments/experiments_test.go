package experiments

import (
	"strings"
	"testing"
)

// tinyScale keeps unit tests fast: two big workloads, short traces.
func tinyScale() Scale {
	s := QuickScale()
	s.Records = 6_000
	s.Footprint = 192 << 20
	s.Big = []string{"xsbench", "mcf"}
	s.Small = []string{"gcc.small"}
	s.Mixes = 1
	s.MixCores = 2
	s.MixRecords = 2_500
	s.MixFootprint = 128 << 20
	s.HomoCores = 2
	return s
}

func TestRegistry(t *testing.T) {
	figs := All()
	if len(figs) != 11 {
		t.Fatalf("figures = %d, want 11", len(figs))
	}
	want := []string{"fig01", "fig04", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "mech01"}
	for i, f := range figs {
		if f.ID != want[i] {
			t.Errorf("figure %d = %s, want %s", i, f.ID, want[i])
		}
		if f.Title == "" || f.Run == nil {
			t.Errorf("%s incomplete", f.ID)
		}
	}
	if _, ok := ByID("fig10"); !ok {
		t.Error("ByID(fig10) failed")
	}
	if _, ok := ByID("fig99"); ok {
		t.Error("ByID(fig99) should fail")
	}
}

func TestMech01HeadToHead(t *testing.T) {
	// Victima's engagement needs enough trace for PTE lines to be
	// re-probed while still on chip; tinyScale's 6k records are too few.
	s := tinyScale()
	s.Records = 60_000
	r := NewRunner(s)
	r.Mechs = []string{"tempo", "victima"}
	rep, err := r.Mech01()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 { // 2 mechanisms × 2 fixed workloads
		t.Fatalf("rows = %d, want 4", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.Values[0] <= 0 {
			t.Errorf("%s: non-positive speedup %v", row.Label, row.Values[0])
		}
		// Every mechanism must engage (last column) on these workloads.
		if row.Values[len(row.Values)-1] == 0 {
			t.Errorf("%s: mechanism never engaged", row.Label)
		}
		if strings.HasPrefix(row.Label, "tempo/") && row.Values[0] <= 1.0 {
			t.Errorf("%s: tempo must beat the shared baseline, got %v", row.Label, row.Values[0])
		}
	}
}

func TestFig01And04ShareRunsAndSumToOne(t *testing.T) {
	r := NewRunner(tinyScale())
	rep1, err := r.Fig01()
	if err != nil {
		t.Fatal(err)
	}
	runsAfter1 := len(r.cache)
	rep4, err := r.Fig04()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.cache) != runsAfter1 {
		t.Error("fig04 should reuse fig01's baseline runs")
	}
	for _, row := range rep1.Rows {
		sum := row.Values[0] + row.Values[1] + row.Values[2]
		if sum <= 0 || sum > 1 {
			t.Errorf("fig01 %s fractions sum to %v", row.Label, sum)
		}
	}
	for _, row := range rep4.Rows {
		sum := row.Values[0] + row.Values[1] + row.Values[2]
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("fig04 %s DRAM fractions sum to %v", row.Label, sum)
		}
		if row.Values[3] < 0.9 {
			t.Errorf("fig04 %s leaf share %v < 0.9", row.Label, row.Values[3])
		}
		if row.Values[4] < 0.9 {
			t.Errorf("fig04 %s replay-follows %v < 0.9", row.Label, row.Values[4])
		}
	}
}

func TestFig10TempoWins(t *testing.T) {
	r := NewRunner(tinyScale())
	rep, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		if row.Values[0] <= 0 {
			t.Errorf("%s: TEMPO perf improvement %v <= 0", row.Label, row.Values[0])
		}
		if row.Values[2] <= 0 || row.Values[2] > 1 {
			t.Errorf("%s: superpage fraction %v", row.Label, row.Values[2])
		}
	}
	if v, ok := rep.Value("xsbench", "perf"); !ok || v <= 0 {
		t.Error("Value lookup failed")
	}
}

func TestFig11ServiceFractionsAndSmallSafety(t *testing.T) {
	r := NewRunner(tinyScale())
	rep, err := r.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		if strings.HasPrefix(row.Label, "MEAN") {
			continue
		}
		if !strings.HasSuffix(row.Label, ".small") {
			covered := row.Values[0] + row.Values[1]
			if covered < 0.6 {
				t.Errorf("%s: TEMPO covered only %v of replays", row.Label, covered)
			}
		}
	}
	small, ok := rep.Value("MEAN(small)", "perf")
	if !ok {
		t.Fatal("missing small mean")
	}
	if small < -0.02 {
		t.Errorf("small workloads harmed: %v", small)
	}
	big, _ := rep.Value("MEAN(big-data)", "perf")
	if big <= small {
		t.Errorf("big-data improvement %v should exceed small %v", big, small)
	}
}

func TestFig15SweepShape(t *testing.T) {
	s := tinyScale()
	s.Big = []string{"xsbench"}
	r := NewRunner(s)
	rep, err := r.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	row := rep.Rows[0]
	for i, v := range row.Values {
		if v <= 0 {
			t.Errorf("wait sweep col %d: improvement %v <= 0", i, v)
		}
	}
}

func TestFig16RunsAndReports(t *testing.T) {
	r := NewRunner(tinyScale())
	rep, err := r.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 8 {
		t.Fatalf("rows = %d, want 4 weights + 4 graces", len(rep.Rows))
	}
	// The rendered table must include every row label.
	s := rep.String()
	for _, l := range []string{"weight=0", "weight=1", "grace=15", "grace=30"} {
		if !strings.Contains(s, l) {
			t.Errorf("report missing %q", l)
		}
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{
		ID: "figX", Title: "demo",
		Columns: []string{"a", "b"},
		Rows:    []Row{{Label: "w1", Values: []float64{0.5}}},
		Notes:   []string{"partial rows render dashes"},
	}
	s := rep.String()
	if !strings.Contains(s, "figX") || !strings.Contains(s, "w1") ||
		!strings.Contains(s, "0.5000") || !strings.Contains(s, "-") {
		t.Errorf("bad render:\n%s", s)
	}
	if _, ok := rep.Value("w1", "nosuch"); ok {
		t.Error("unknown column should miss")
	}
	if _, ok := rep.Value("nosuch", "a"); ok {
		t.Error("unknown label should miss")
	}
}

func TestMixSpecsDeterministicAndSized(t *testing.T) {
	r := NewRunner(tinyScale())
	a := r.mixSpecs(0)
	b := r.mixSpecs(0)
	if len(a) != r.Scale.MixCores {
		t.Fatalf("mix size = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Error("mixSpecs not deterministic")
		}
	}
	c := r.mixSpecs(1)
	same := true
	for i := range a {
		if a[i].Name != c[i].Name {
			same = false
		}
	}
	if same {
		t.Error("different mixes should differ")
	}
}

func TestReportCSV(t *testing.T) {
	rep := &Report{
		ID: "figX", Columns: []string{"a", "b"},
		Rows: []Row{
			{Label: "w1", Values: []float64{0.5, 1.25}},
			{Label: "w2", Values: []float64{2}},
		},
	}
	got := rep.CSV()
	want := "label,a,b\nw1,0.5,1.25\nw2,2,\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

// Threads (homoCfg) and mixes (mixCfg) get memory channels by one
// rule: one per two cores, never fewer than the default machine's two.
func TestChannelsScaleWithCores(t *testing.T) {
	for _, c := range []struct{ cores, want int }{{2, 2}, {4, 2}, {8, 4}, {16, 8}} {
		s := tinyScale()
		s.HomoCores, s.MixCores = c.cores, c.cores
		r := NewRunner(s)
		if got := r.homoCfg("xsbench").Machine.DRAM.Geometry.Channels; got != c.want {
			t.Errorf("homoCfg at %d cores: %d channels, want %d", c.cores, got, c.want)
		}
		if got := r.mixCfg(0).Machine.DRAM.Geometry.Channels; got != c.want {
			t.Errorf("mixCfg at %d cores: %d channels, want %d", c.cores, got, c.want)
		}
	}
}
