// Command bench is the repository's benchmark. Each invocation runs one
// named workload through the simulator's public API (tempo.NewSystem,
// System.Run, tempo.NewPool with tempo.NewParallelRunner, and
// experiments.PaperPoints), timing the calls from outside, and checks
// every simulation it runs: a simulation fails when it returns an
// error, breaks a counter-conservation law or a core's CPI-stack sum,
// or produces a result whose digest differs from another repetition's
// at the same seed (or, on mc4-tempo, from the serial reference run).
//
// A run has three phases: one discarded warm-up repetition, timed
// repetitions that give the end-to-end metrics, and — with -trace 1 —
// further repetitions under the CPU profiler, folded by layer with
// `go tool pprof -traces`, that give the per-layer metrics, followed by
// microbenchmarks of single layer calls. BENCHMARK.json at the
// repository root declares the workloads and metrics; README.md in
// this directory describes them.
//
// From the repository root, bench/run.sh builds the benchmark inside
// the checkout and runs it:
//
//	bash bench/run.sh -workload xsbench-tempo -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -compare A.txt B.txt
//
// Flags:
//
//	-workload  xsbench-tempo, small-fastpath, mc4-tempo or sweep-quick
//	-seed      input seed (default 1; seed 2 is held out from tuning)
//	-seconds   measuring time of the run (default 20)
//	-trace     0 prints the end-to-end metrics, 1 the per-layer ones
//	-compare   compare two files of saved output (see README.md)
//
// The output is one line per metric, then the run's full record as a
// JSON line (host, raw samples, digests), then a JSON result line:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line of the output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "input seed (seed 2 is held out from tuning)")
	seconds := fs.Float64("seconds", 20, "measuring time of the run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: a profiled run and per-layer metrics")
	cmp := fs.Bool("compare", false, "compare two files of saved output: -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files")
			return 2
		}
		ok, err := compare("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	rec, err := measure(options{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		dir:      ".bench_build",
	})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(stderr, "bench: check failed:", p)
	}
	if err := write(stdout, rec); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// write prints a record's metrics one per line, then the record, then
// the result line.
func write(w io.Writer, rec *record) error {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d traced=%v: %d simulations, %d failed\n",
		rec.Workload, rec.Seed, rec.Traced, rec.Attempted, rec.Failed)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(w, "%-34s %14.6g %s", n, m.Value, m.Unit)
		if s, ok := rec.Summary[n]; ok && s.N > 1 {
			fmt.Fprintf(w, "  (median of %d; quartiles %.6g .. %.6g)", s.N, s.Q1, s.Q3)
		}
		fmt.Fprintln(w)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(rec); err != nil {
		return err
	}
	return enc.Encode(result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
}
