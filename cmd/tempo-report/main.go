// Command tempo-report analyzes completed sweeps offline. It joins
// the three artifacts a tempo-bench run leaves behind — the runs.jsonl
// telemetry log, the persistent result cache, and the per-config
// interval-stats series — on their shared config hash, and renders
// paper-figure summary tables, CPI stacks and counter-conservation
// audits. Output is deterministic: two invocations
// over the same artifacts produce byte-identical bytes.
//
// Usage:
//
//	tempo-report tables -runs .tempo/runs.jsonl -cache-dir .tempo -obs-dir tempo-obs
//	tempo-report tables -runs runs.jsonl -cache-dir .tempo -format csv -o tables.csv
//	tempo-report cpi -runs runs.jsonl -cache-dir .tempo
//	tempo-report cpi -runs runs.jsonl -cache-dir .tempo -format csv -o cpi.csv
//	tempo-report audit -runs runs.jsonl -cache-dir .tempo
//
// tables renders the pairs, CPI-stack, DRAM row-buffer hit rate, and
// walk-latency quantile tables as markdown (-format md, default), CSV
// (-format csv) or both concatenated (-format all), to stdout or -o.
// -runs names the runs.jsonl log, -cache-dir the result cache root,
// -obs-dir the interval-stats directory ("" skips series-backed
// tables).
//
// The pairs table has one row per run that declares a baseline: the
// figures name each variant's baseline, and the variant's runs.jsonl
// line carries that baseline's config hash as its "base" field. A row
// gives speedup and per-core speedup over the baseline, both IPCs, the
// energy gain, the page-walk DRAM latency p50 and the engagement
// counter of the run's mechanism. A log written before pairs were
// declared has no base fields and renders no pairs table; re-running
// its sweep against the same cache, every job a cache hit, records
// them.
//
// cpi renders just the cycle-attribution view: the CPI-stack table
// (per-run bucket fractions; OBSERVABILITY.md "CPI stacks") followed,
// in markdown mode, by a stacked-bar text figure of the same data. It
// takes the same -runs, -cache-dir, -format and -o flags as tables
// (the bar figure is markdown-only; -format csv emits just the table).
//
// audit runs the obsv counter-conservation checks — including the
// per-core cpi-stack-sums-to-cycles law — over every cached result and
// exits 1 if any invariant is violated — the offline counterpart of
// the end-to-end audit test.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/report"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "tables":
		cmdTables(os.Args[2:])
	case "cpi":
		cmdCPI(os.Args[2:])
	case "audit":
		cmdAudit(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tempo-report tables|cpi|audit [flags]")
	os.Exit(2)
}

func cmdCPI(args []string) {
	fs := flag.NewFlagSet("cpi", flag.ExitOnError)
	runs := fs.String("runs", "", "runs.jsonl telemetry log (required)")
	cacheDir := fs.String("cache-dir", "", "persistent result cache directory (required)")
	format := fs.String("format", "md", "output format: md, csv or all")
	out := fs.String("o", "", "write output here instead of stdout")
	fs.Parse(args)
	if *runs == "" || *cacheDir == "" {
		fatal("cpi: -runs and -cache-dir are required")
	}
	d, err := report.Load(*runs, *cacheDir, "")
	if err != nil {
		fatal("cpi: %v", err)
	}
	t := report.CPITable(d)
	if len(t.Rows) == 0 {
		fatal("cpi: no attributed runs (results cached before CPI attribution have no stack; re-run the sweep)")
	}
	var b strings.Builder
	switch *format {
	case "md":
		b.WriteString(t.Markdown())
		if fig := report.CPIFigure(d); fig != "" {
			b.WriteString("```\n")
			b.WriteString(fig)
			b.WriteString("```\n")
		}
	case "csv":
		b.WriteString(t.CSV())
	case "all":
		b.WriteString(t.Markdown())
		if fig := report.CPIFigure(d); fig != "" {
			b.WriteString("```\n")
			b.WriteString(fig)
			b.WriteString("```\n")
		}
		b.WriteString(t.CSV())
	default:
		fatal("cpi: unknown -format %q (want md, csv or all)", *format)
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
			fatal("cpi: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
		return
	}
	fmt.Print(b.String())
}

func cmdTables(args []string) {
	fs := flag.NewFlagSet("tables", flag.ExitOnError)
	runs := fs.String("runs", "", "runs.jsonl telemetry log (required)")
	cacheDir := fs.String("cache-dir", "", "persistent result cache directory (required)")
	obsDir := fs.String("obs-dir", "", "interval-stats directory (optional)")
	format := fs.String("format", "md", "output format: md, csv or all")
	out := fs.String("o", "", "write output here instead of stdout")
	fs.Parse(args)
	if *runs == "" || *cacheDir == "" {
		fatal("tables: -runs and -cache-dir are required")
	}
	d, err := report.Load(*runs, *cacheDir, *obsDir)
	if err != nil {
		fatal("tables: %v", err)
	}
	tables := report.Tables(d)
	if len(tables) == 0 {
		fatal("tables: no joinable runs (need cached results under -cache-dir matching -runs hashes)")
	}
	var b strings.Builder
	for _, t := range tables {
		switch *format {
		case "md":
			b.WriteString(t.Markdown())
		case "csv":
			b.WriteString(t.CSV())
			b.WriteByte('\n')
		case "all":
			b.WriteString(t.Markdown())
			b.WriteString(t.CSV())
			b.WriteByte('\n')
		default:
			fatal("tables: unknown -format %q (want md, csv or all)", *format)
		}
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
			fatal("tables: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
		return
	}
	fmt.Print(b.String())
}

func cmdAudit(args []string) {
	fs := flag.NewFlagSet("audit", flag.ExitOnError)
	runs := fs.String("runs", "", "runs.jsonl telemetry log (required)")
	cacheDir := fs.String("cache-dir", "", "persistent result cache directory (required)")
	fs.Parse(args)
	if *runs == "" || *cacheDir == "" {
		fatal("audit: -runs and -cache-dir are required")
	}
	d, err := report.Load(*runs, *cacheDir, "")
	if err != nil {
		fatal("audit: %v", err)
	}
	violations, audited, skipped := report.AuditAll(d)
	fmt.Printf("audited %d runs (%d without cached results skipped)\n", audited, skipped)
	if len(violations) == 0 {
		fmt.Println("all counter-conservation checks passed")
		return
	}
	for _, key := range d.Keys() {
		for _, v := range violations[key] {
			fmt.Printf("FAIL %s: %s\n", key, v)
		}
	}
	os.Exit(1)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tempo-report: "+format+"\n", args...)
	os.Exit(1)
}
