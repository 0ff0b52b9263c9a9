package tempo

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestPublicAPIQuickstart(t *testing.T) {
	cfg := DefaultConfig("xsbench")
	cfg.Records = 8_000
	cfg.Workloads[0].Footprint = 192 << 20
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tempo = DefaultTempo()
	tempo, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tempo.Total.Cycles >= base.Total.Cycles {
		t.Errorf("TEMPO did not help: %d vs %d", tempo.Total.Cycles, base.Total.Cycles)
	}
	if base.IPC() <= 0 || tempo.Energy.Total() <= 0 {
		t.Error("metrics missing")
	}
}

// Audit arms a rival mechanism's laws and checks every core on its
// own: it flags a corrupted victima counter, and a pair of cores whose
// CPI-stack errors cancel in the merged totals.
func TestAuditFlagsMechAndPerCoreFaults(t *testing.T) {
	cfg := DefaultConfig("xsbench")
	cfg.Records = 4_000
	cfg.Workloads[0].Footprint = 128 << 20
	second := cfg.Workloads[0]
	second.Seed = 2
	cfg.Workloads = append(cfg.Workloads, second)
	cfg.Mech = "victima"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v := Audit(res); len(v) != 0 {
		t.Fatalf("clean run flagged: %v", v)
	}
	res.MechCounters["mech/victima/pte_hits"]++
	res.Cores[0].CPIStack[stats.CPICompute] += 5
	res.Cores[1].CPIStack[stats.CPICompute] -= 5
	var checks []string
	for _, v := range Audit(res) {
		checks = append(checks, v.Check+": "+v.Detail)
	}
	got := strings.Join(checks, "\n")
	for _, want := range []string{"victima-lookup-partition", "cpi-stack-sums-to-cycles: core 0", "cpi-stack-sums-to-cycles: core 1"} {
		if !strings.Contains(got, want) {
			t.Errorf("no %q among the violations:\n%s", want, got)
		}
	}
}

func TestWorkloadCatalog(t *testing.T) {
	if len(BigWorkloads()) != 8 || len(SmallWorkloads()) != 6 {
		t.Errorf("catalog sizes: %d big, %d small", len(BigWorkloads()), len(SmallWorkloads()))
	}
	for _, w := range BigWorkloads() {
		if strings.HasSuffix(w, ".small") {
			t.Errorf("big list contains %s", w)
		}
	}
}

func TestFigureRegistryExposed(t *testing.T) {
	if len(Figures()) != 11 { // fig01..fig17 + mech01
		t.Errorf("figures = %d", len(Figures()))
	}
	if _, err := RunFigure("fig99", QuickScale()); err == nil {
		t.Error("unknown figure should error")
	}
}

func TestRunFigureSmoke(t *testing.T) {
	s := QuickScale()
	s.Records = 4_000
	s.Footprint = 128 << 20
	s.Big = []string{"mcf"}
	rep, err := RunFigure("fig01", s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 || rep.ID != "fig01" {
		t.Errorf("report = %+v", rep)
	}
	if !strings.Contains(rep.String(), "mcf") {
		t.Error("render missing workload")
	}
}
