package serve

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/obsv"
	"repro/internal/stats"
)

// scrape parses a Prometheus text exposition back into name → value,
// the way a scraper would (TYPE comments skipped, histogram series kept
// under their labelled names).
func scrape(t *testing.T, out string) map[string]uint64 {
	t.Helper()
	parsed := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseUint(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		parsed[line[:sp]] = v
	}
	return parsed
}

// TestWritePrometheusCPIRoundTrip registers the stats source the
// simulator registers (obsv.StatsSource over an attributed Stats),
// renders /metrics, and scrapes it back: every cpi/* metric
// must survive the name mapping with its exact value, and the scraped
// buckets must still satisfy the cpi-stack-sums-to-cycles law.
func TestWritePrometheusCPIRoundTrip(t *testing.T) {
	var st stats.Stats
	for b := range st.CPIStack {
		st.CPIStack[b] = uint64(100 * (b + 1))
		st.CPICycles += st.CPIStack[b]
	}
	st.CPIHiddenByPrefetch = 9
	st.CPIMechElided = 4
	st.TLBMisses = 50

	reg := obsv.NewRegistry()
	reg.Source(obsv.StatsSource(func() stats.Stats { return st }))

	var b strings.Builder
	if err := WritePrometheus(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	parsed := scrape(t, b.String())

	var sum uint64
	for bk, name := range obsv.CPIBucketMetrics {
		prom := "tempo_" + strings.ReplaceAll(name, "/", "_")
		v, ok := parsed[prom]
		if !ok {
			t.Fatalf("metric %q (bucket %v) missing from exposition:\n%s", prom, stats.CPIBucket(bk), b.String())
		}
		if v != st.CPIStack[bk] {
			t.Errorf("%s = %d, want %d", prom, v, st.CPIStack[bk])
		}
		sum += v
	}
	cycles, ok := parsed["tempo_cpi_cycles"]
	if !ok {
		t.Fatal("tempo_cpi_cycles missing from exposition")
	}
	if sum != cycles {
		t.Errorf("scraped buckets sum to %d != scraped cycles %d", sum, cycles)
	}
	if v := parsed["tempo_cpi_hidden_by_prefetch"]; v != 9 {
		t.Errorf("tempo_cpi_hidden_by_prefetch = %d, want 9", v)
	}
	if v := parsed["tempo_cpi_mech_elided"]; v != 4 {
		t.Errorf("tempo_cpi_mech_elided = %d, want 4", v)
	}
}

// TestPromNameEscaping pins the instrument-name → metric-name mapping:
// every character outside [a-zA-Z0-9_] becomes an underscore, the
// tempo_ prefix is always applied, and legal characters pass through
// untouched — so slash-hierarchy names and dashed bucket labels both
// land in the exposition charset.
func TestPromNameEscaping(t *testing.T) {
	cases := map[string]string{
		"cpi/data_l1":            "tempo_cpi_data_l1",
		"cpi/row_conflict_extra": "tempo_cpi_row_conflict_extra",
		"mech/victima/pte_hits":  "tempo_mech_victima_pte_hits",
		"core0/walk/latency":     "tempo_core0_walk_latency",
		// Dashes, dots, colons and spaces.
		"weird-name.with/every:char epsilon": "tempo_weird_name_with_every_char_epsilon",
		"Ünïcode/runes":                      "tempo__n_code_runes",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWritePrometheusCumulativeAcrossSparseBuckets extends the
// monotonicity check to a histogram with many sparse buckets: the
// cumulative counts must be non-decreasing even when empty buckets are
// elided, and close at the exact observation count.
func TestWritePrometheusCumulativeAcrossSparseBuckets(t *testing.T) {
	reg := obsv.NewRegistry()
	h := reg.Histogram("cpi/test_latency")
	var total uint64
	for i := 0; i < 40; i += 3 { // every third power-of-two bucket
		for j := 0; j <= i; j++ {
			h.Observe(uint64(1) << i)
			total++
		}
	}
	var b strings.Builder
	if err := WritePrometheus(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var prev, last uint64
	lines := 0
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.Contains(line, "_bucket{") {
			continue
		}
		lines++
		v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("cumulative bucket decreased: %q after %d", line, prev)
		}
		prev, last = v, v
	}
	if lines < 10 {
		t.Fatalf("expected a sparse multi-bucket series, got %d bucket lines", lines)
	}
	if last != total {
		t.Fatalf("final cumulative bucket = %d, want %d observations", last, total)
	}
}
