package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRecords returns the untraced records in a file of benchmark
// output; every other line is skipped.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var r record
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Workload == "" || r.Traced {
			continue
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// values are one side's samples of a metric: each run's reported value
// when the side has several runs, or the raw repetitions of its one run.
func values(recs []record, name string) []float64 {
	if len(recs) == 1 {
		return recs[0].Samples[name]
	}
	var xs []float64
	for _, r := range recs {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// compare prints, for each workload and end-to-end metric, how far B's
// median moved from A's against the metric's declared bound. A pair
// whose quartile spread on either side exceeds the bound is
// "unresolved": the runs cannot tell a change of that size from noise.
// It reports whether no resolved pair got worse by more than its bound.
func compare(specPath, aPath, bPath string, w io.Writer) (bool, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-16s %-14s %5s %12s %12s %8s %6s %7s  %s\n",
		"workload", "metric", "runs", "A median", "B median", "delta", "bound", "spread", "verdict")
	for _, wl := range spec.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			missing := aPath
			if len(ra) > 0 {
				missing = bPath
			}
			fmt.Fprintf(w, "%-16s missing from %s\n", wl.Name, missing)
			continue
		}
		if ha, hb := ra[0].Host, rb[0].Host; ha.NProc != hb.NProc || ha.GOMAXPROCS != hb.GOMAXPROCS || ha.GoVersion != hb.GoVersion {
			fmt.Fprintf(w, "%-16s note: hosts differ (%+v vs %+v)\n", wl.Name, ha, hb)
		}
		for _, e := range spec.EndToEnd {
			xa, xb := values(ra, e.Name), values(rb, e.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-16s %-14s no samples\n", wl.Name, e.Name)
				continue
			}
			ma, mb := median(xa), median(xb)
			delta := ratio(mb-ma, ma)
			worse := delta
			if e.Better == "higher" {
				worse = -delta
			}
			sp := max(spread(xa), spread(xb))
			verdict := "within bound"
			switch {
			case sp > e.Bound:
				verdict = "unresolved"
			case worse > e.Bound:
				verdict = "WORSE than bound"
				ok = false
			}
			fmt.Fprintf(w, "%-16s %-14s %2d/%-2d %12.6g %12.6g %+7.1f%% %5.0f%% %6.1f%%  %s\n",
				wl.Name, e.Name, len(ra), len(rb), ma, mb, 100*delta, 100*e.Bound, 100*sp, verdict)
		}
	}
	return ok, nil
}
