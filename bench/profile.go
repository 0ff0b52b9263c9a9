package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// layers are the simulator's layers, named after its packages under
// repro/internal, plus "runtime" for samples outside all of them.
var layers = []string{
	"workload", "tlb", "ptwalk", "vm", "cache", "dram", "sched", "core",
	"translation", "prefetch", "sim", "runner", "experiments", "runtime",
}

// internalPrefix is the import-path prefix of the simulator's packages.
const internalPrefix = "repro/internal/"

// samplePeriod is the CPU profiler's sampling interval (runtime/pprof
// samples at 100 Hz).
const samplePeriod = 10 * time.Millisecond

// hostSplit is a CPU profile folded by layer.
type hostSplit struct {
	cpu     map[string]time.Duration // CPU time per layer
	samples int
}

// profile runs fn under the CPU profiler and folds the profile by
// layer with `go tool pprof -traces`. The profile is written to a file
// in dir and removed once folded.
func profile(dir string, fn func()) (hostSplit, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return hostSplit{}, err
	}
	f, err := os.CreateTemp(dir, "trace-*.pprof")
	if err != nil {
		return hostSplit{}, err
	}
	defer os.Remove(f.Name())
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return hostSplit{}, err
	}
	fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return hostSplit{}, fmt.Errorf("writing profile: %w", err)
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", f.Name()).Output()
	if err != nil {
		return hostSplit{}, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return foldTraces(bytes.NewReader(out))
}

// foldTraces reads the text `go tool pprof -traces` prints for a CPU
// profile and charges each sample to the innermost frame whose package
// is a layer. Frames of other packages — shared utilities such as
// assoc, mem and stats, math/rand, and runtime work such as map
// operations and memclr — are passed over, so their time counts toward
// the layer that called them. A sample with no layer frame at all (GC
// workers, the scheduler) counts as "runtime".
func foldTraces(r io.Reader) (hostSplit, error) {
	split := hostSplit{cpu: map[string]time.Duration{}}
	sc := bufio.NewScanner(r)
	var (
		inTrace bool          // inside a trace block
		value   time.Duration // the current block's sample time
		layer   string        // the current block's layer, once found
	)
	flush := func() {
		if !inTrace {
			return
		}
		if layer == "" {
			layer = "runtime"
		}
		split.cpu[layer] += value
		split.samples += int((value + samplePeriod/2) / samplePeriod)
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTrace, value, layer = false, 0, ""
			continue
		}
		text := strings.TrimSpace(line)
		if !inTrace {
			// A block opens with "<time>   <leaf frame>"; any other line
			// before it belongs to the profile's header.
			v, rest, ok := strings.Cut(text, " ")
			d, err := time.ParseDuration(v)
			if !ok || err != nil {
				continue
			}
			inTrace, value = true, d
			text = strings.TrimSpace(rest)
		}
		if layer == "" {
			layer = layerOf(strings.TrimSuffix(text, " (inline)"))
		}
	}
	if err := sc.Err(); err != nil {
		return hostSplit{}, err
	}
	flush()
	if split.samples == 0 {
		return hostSplit{}, fmt.Errorf("profile holds no samples")
	}
	return split, nil
}

// layerOf returns the layer a function belongs to, or "" when its
// package is not a layer.
func layerOf(fn string) string {
	pkg := pkgOf(fn)
	if !strings.HasPrefix(pkg, internalPrefix) {
		return ""
	}
	name := strings.TrimPrefix(pkg, internalPrefix)
	for _, l := range layers[:len(layers)-1] {
		if name == l {
			return l
		}
	}
	return ""
}

// pkgOf returns the import path of a profiled function name such as
// "repro/internal/cache.(*Cache).Access": everything before the first
// dot after the last slash, looking only ahead of any receiver or type
// parameter list (those may hold slashes of their own).
func pkgOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	if dot := strings.Index(head[slash+1:], "."); dot >= 0 {
		return head[:slash+1+dot]
	}
	return head
}
