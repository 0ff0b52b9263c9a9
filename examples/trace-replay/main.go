// Trace-replay demonstrates the trace substrate that stands in for the
// paper's Pin pipeline: capture a workload's memory trace to a file,
// replay it through the simulator, and verify the replay is
// bit-identical to the live run — the property that makes every
// experiment in this repository reproducible.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	tempo "repro"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	const (
		wl        = "graph500"
		records   = 40_000
		footprint = 512 << 20
	)
	dir, err := os.MkdirTemp("", "tempo-trace")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, wl+".trc")

	// Capture — what `tempo-trace gen` does.
	g, err := workload.New(wl, workload.Config{FootprintBytes: footprint, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		log.Fatal(err)
	}
	for _, rec := range trace.Take(g, records) {
		if err := w.Write(rec); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(path)
	fmt.Printf("captured %d records of %s into %s (%.1f KB, %.2f bytes/record)\n",
		records, wl, filepath.Base(path), float64(info.Size())/1024,
		float64(info.Size())/records)

	// Live run.
	live := tempo.DefaultConfig(wl)
	live.Records = records
	live.Workloads[0].Footprint = footprint
	live.Workloads[0].Seed = 1
	live.Tempo = tempo.DefaultTempo()
	liveRes, err := tempo.Run(live)
	if err != nil {
		log.Fatal(err)
	}

	// Replay from the file through an identical machine.
	replay := live
	replay.Workloads = []tempo.WorkloadSpec{{TracePath: path, Footprint: footprint}}
	replayRes, err := tempo.Run(replay)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("live run:   %d cycles, %d TEMPO prefetches\n",
		liveRes.Total.Cycles, liveRes.Total.TempoPrefetches)
	fmt.Printf("replay run: %d cycles, %d TEMPO prefetches\n",
		replayRes.Total.Cycles, replayRes.Total.TempoPrefetches)
	if liveRes.Total.Cycles == replayRes.Total.Cycles &&
		liveRes.Total.TempoPrefetches == replayRes.Total.TempoPrefetches {
		fmt.Println("replay is bit-identical to the live run ✓")
	} else {
		fmt.Println("MISMATCH — determinism broken!")
		os.Exit(1)
	}
}
