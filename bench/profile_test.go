package main

import (
	"strings"
	"testing"
	"time"
)

// tracesGolden is hand-written `go tool pprof -traces` output covering
// each fold rule: a layer frame under a utility frame, a utility called
// from a layer, runtime work under a layer, a generic frame whose type
// arguments hold spaces and slashes, a sample with no repro frame, and
// one whose repro frames are none of them layers.
const tracesGolden = `File: bench
Type: cpu
Time: 2026-01-02 03:04:05 UTC
Duration: 1.20s, Total samples = 130ms (10.83%)
-----------+-------------------------------------------------------
      30ms   repro/internal/assoc.(*Set).Lookup (inline)
             repro/internal/cache.(*Cache).Access
             repro/internal/sim.(*Core).step
-----------+-------------------------------------------------------
      20ms   runtime.mapaccess1_fast64
             repro/internal/vm.(*AddressSpace).touch
             repro/internal/sim.New
-----------+-------------------------------------------------------
      10ms   math/rand.(*Rand).Int63
             repro/internal/workload.(*gen).Next
             repro/internal/sim.(*Core).step
-----------+-------------------------------------------------------
      20ms   repro/internal/assoc.(*Table[go.shape.struct { A repro/internal/mem.VAddr }]).Get
             repro/internal/tlb.(*TLB).Lookup (inline)
             repro/internal/sim.(*Core).step
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
             runtime.goexit
-----------+-------------------------------------------------------
      20ms   runtime.memclrNoHeapPointers
             repro/internal/stats.(*Stats).Add
             repro/internal/obsv.Audit
             main.check
             runtime.main
-----------+-------------------------------------------------------
      20ms   repro/internal/runner.(*Pool).execute.func1
-----------+-------------------------------------------------------
`

func TestFoldTracesGolden(t *testing.T) {
	split, err := foldTraces(strings.NewReader(tracesGolden))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"cache":    30 * time.Millisecond,
		"vm":       20 * time.Millisecond,
		"workload": 10 * time.Millisecond,
		"tlb":      20 * time.Millisecond,
		"runtime":  30 * time.Millisecond,
		"runner":   20 * time.Millisecond,
	}
	if len(split.cpu) != len(want) {
		t.Errorf("layers %v, want %v", split.cpu, want)
	}
	for l, d := range want {
		if split.cpu[l] != d {
			t.Errorf("%s: %v, want %v", l, split.cpu[l], d)
		}
	}
	if split.samples != 13 {
		t.Errorf("samples %d, want 13", split.samples)
	}
}

func TestFoldTracesRejectsEmptyProfile(t *testing.T) {
	if _, err := foldTraces(strings.NewReader("File: bench\nType: cpu\n")); err == nil {
		t.Error("a profile without samples folded without error")
	}
}

func TestLayersAreInternalPackages(t *testing.T) {
	for _, l := range layers[:len(layers)-1] {
		if got := layerOf(internalPrefix + l + ".F"); got != l {
			t.Errorf("layerOf(%s.F) = %q", l, got)
		}
	}
	for _, fn := range []string{"repro/internal/obsv/serve.F", "repro.NewSystem", "main.main", "runtime.mallocgc"} {
		if got := layerOf(fn); got != "" {
			t.Errorf("layerOf(%s) = %q, want none", fn, got)
		}
	}
}
