package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// writeTree materialises a map of relative path → contents under a
// fresh temp root and returns the root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, body := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const zooSource = `// Package translation is a fixture.
package translation

func Names() []string {
	return []string{"revelator", "tempo", "victima"}
}

func New(name string) (any, error) {
	switch name {
	case "notlisted":
	}
	return []string{"notreturnedbynames"}, nil
}
`

func TestRegisteredMechanismsParsesNames(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/translation/zoo.go": zooSource,
		// Test files must not contribute names.
		"internal/translation/zoo_test.go": "package translation\n\nfunc Names() []string { return []string{\"testonly\"} }\n",
	})
	names, err := registeredMechanisms(filepath.Join(root, "internal", "translation"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"revelator", "tempo", "victima"}; !slices.Equal(names, want) {
		t.Fatalf("registeredMechanisms = %v, want %v", names, want)
	}
}

// TestRegisteredMechanismsReadsTranslation runs the collector on the
// real package, so the MECHANISMS.md gate cannot pass by finding no
// names.
func TestRegisteredMechanismsReadsTranslation(t *testing.T) {
	names, err := registeredMechanisms(filepath.Join("..", "internal", "translation"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"revelator", "tempo", "victima"}; !slices.Equal(names, want) {
		t.Fatalf("registeredMechanisms(internal/translation) = %v, want %v", names, want)
	}
}

func TestRegisteredMechanismsWithoutNamesIsError(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/translation/zoo.go": "// Package translation is a fixture.\npackage translation\n\nfunc New(name string) {}\n",
	})
	if names, err := registeredMechanisms(filepath.Join(root, "internal", "translation")); err == nil {
		t.Fatalf("registeredMechanisms without Names = %v, want an error", names)
	}
}

func TestRegisteredMechanismsMissingDirIsEmpty(t *testing.T) {
	names, err := registeredMechanisms(filepath.Join(t.TempDir(), "no", "such", "dir"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("registeredMechanisms on missing dir = %v, want none", names)
	}
}

func TestMechanismDocGapsFailsOnMissingName(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/translation/zoo.go": zooSource,
		// victima appears only as a longer identifier; revelator is
		// absent entirely — both must be reported. tempo is covered.
		"MECHANISMS.md": "# zoo\n\nThe `tempo` mechanism. Also victimax exists.\n",
	})
	gaps := mechanismDocGaps(root)
	if len(gaps) != 2 {
		t.Fatalf("mechanismDocGaps = %v, want 2 gaps (revelator, victima)", gaps)
	}
}

func TestMechanismDocGapsPassesWhenAllMentioned(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/translation/zoo.go": zooSource,
		"MECHANISMS.md":               "# zoo\n\n`tempo`, `victima` and mech/revelator/* are all here.\n",
	})
	if gaps := mechanismDocGaps(root); len(gaps) != 0 {
		t.Fatalf("mechanismDocGaps = %v, want none", gaps)
	}
}

func TestMechanismDocGapsMissingSpecFileIsFatal(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/translation/zoo.go": zooSource,
	})
	gaps := mechanismDocGaps(root)
	if len(gaps) != 1 {
		t.Fatalf("mechanismDocGaps without MECHANISMS.md = %v, want 1", gaps)
	}
}

func TestMechanismDocGapsNoZooTriviallyPasses(t *testing.T) {
	if gaps := mechanismDocGaps(t.TempDir()); len(gaps) != 0 {
		t.Fatalf("mechanismDocGaps on empty repo = %v, want none", gaps)
	}
}

const obsvSource = `// Package obsv is a fixture.
package obsv

const (
	MetricTLBMisses = "sys/tlb_misses"
	MetricCPICycles = "cpi/cycles"
	notAMetric      = "sys/ignore_me"
)

// MetricDocstring is not a name constant (no string literal value).
var MetricDocstring = MetricTLBMisses
`

const registrarSource = `// Package sim is a fixture.
package sim

import "fmt"

func attach(reg registry, prefix string) {
	reg.Counter("mem/reads")
	reg.Histogram("dram/queue_depth")
	reg.Gauge("sim/epochs", nil)
	reg.Counter(prefix + "/misses")                    // computed: skipped
	reg.Histogram(fmt.Sprintf("core%d/walk", 0))       // computed: skipped
}
`

func TestRegisteredMetricNames(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/obsv/audit.go": obsvSource,
		"internal/sim/obsv.go":   registrarSource,
		// Registrations in test files must not contribute names.
		"internal/sim/obsv_test.go": "package sim\n\nfunc f(reg registry) { reg.Counter(\"cpi/test_only\") }\n",
	})
	names, err := registeredMetricNames(root, []string{
		filepath.Join(root, "internal", "obsv"),
		filepath.Join(root, "internal", "sim"),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"cpi/cycles", "dram/queue_depth", "mem/reads", "sim/epochs", "sys/tlb_misses"}
	if len(names) != len(want) {
		t.Fatalf("registeredMetricNames = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registeredMetricNames = %v, want %v", names, want)
		}
	}
}

func TestMetricDocGapsFlagsUndocumentedNames(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/obsv/audit.go": obsvSource,
		"internal/sim/obsv.go":   registrarSource,
		// sys/tlb_misses appears only as a longer name (no boundary
		// match); cpi/cycles and sim/epochs are absent entirely;
		// mem/reads and dram/queue_depth are covered.
		"OBSERVABILITY.md": "# obs\n\n`mem/reads`, dram/queue_depth and sys/tlb_misses_total.\n",
	})
	gaps := metricDocGaps(root, []string{
		filepath.Join(root, "internal", "obsv"),
		filepath.Join(root, "internal", "sim"),
	})
	if len(gaps) != 3 {
		t.Fatalf("metricDocGaps = %v, want 3 gaps (cpi/cycles, sim/epochs, sys/tlb_misses)", gaps)
	}
}

func TestMetricDocGapsPassesWhenAllMentioned(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/obsv/audit.go": obsvSource,
		"internal/sim/obsv.go":   registrarSource,
		"OBSERVABILITY.md": "# obs\n\n`mem/reads` `dram/queue_depth` `sim/epochs` " +
			"`sys/tlb_misses` `cpi/cycles`\n",
	})
	if gaps := metricDocGaps(root, []string{
		filepath.Join(root, "internal", "obsv"),
		filepath.Join(root, "internal", "sim"),
	}); len(gaps) != 0 {
		t.Fatalf("metricDocGaps = %v, want none", gaps)
	}
}

func TestMetricDocGapsMissingDocIsFatal(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/obsv/audit.go": obsvSource,
	})
	gaps := metricDocGaps(root, []string{filepath.Join(root, "internal", "obsv")})
	if len(gaps) != 1 {
		t.Fatalf("metricDocGaps without OBSERVABILITY.md = %v, want 1", gaps)
	}
}

func TestMetricDocGapsNoMetricsTriviallyPasses(t *testing.T) {
	if gaps := metricDocGaps(t.TempDir(), nil); len(gaps) != 0 {
		t.Fatalf("metricDocGaps on empty repo = %v, want none", gaps)
	}
}

func TestDocMentionsMetricBoundaries(t *testing.T) {
	cases := []struct {
		doc, name string
		want      bool
	}{
		{"the `sys/tlb_misses` gauge", "sys/tlb_misses", true},
		{"sys/tlb_misses_total", "sys/tlb_misses", false},
		{"mem/dram_refs/ptw", "mem/dram_refs", false}, // prefix of a longer path
		{"mem/dram_refs/ptw", "mem/dram_refs/ptw", true},
		{"cpi/cycles.", "cpi/cycles", true}, // '.' is a boundary
		{"xcpi/cycles", "cpi/cycles", false},
		{"", "cpi/cycles", false},
	}
	for _, c := range cases {
		if got := docMentionsMetric(c.doc, c.name); got != c.want {
			t.Errorf("docMentionsMetric(%q, %q) = %v, want %v", c.doc, c.name, got, c.want)
		}
	}
}

func TestDocMentionsWordBoundaries(t *testing.T) {
	cases := []struct {
		doc, name string
		want      bool
	}{
		{"the victima mechanism", "victima", true},
		{"`victima`", "victima", true},
		{"mech/victima/lookups", "victima", true},
		{"victimax", "victima", false},
		{"revictima", "victima", false},
		{"victima-like", "victima", false},
		{"", "victima", false},
		{"victima", "victima", true},
	}
	for _, c := range cases {
		if got := docMentionsWord(c.doc, c.name); got != c.want {
			t.Errorf("docMentionsWord(%q, %q) = %v, want %v", c.doc, c.name, got, c.want)
		}
	}
}
