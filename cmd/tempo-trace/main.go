// Command tempo-trace captures workload generator output into the
// binary trace format and inspects existing trace files. It stands in
// for the paper's Pin-based trace collection.
//
// Usage:
//
//	tempo-trace gen -workload xsbench -records 100000 -o xs.trc
//	tempo-trace gen -workload spmv -footprint-mb 512 -seed 7 -o spmv.trc
//	tempo-trace info xs.trc
//	tempo-trace dump -n 20 xs.trc
//
// gen captures -records records of -workload (sized by -footprint-mb,
// 0 meaning the workload default, and seeded by -seed) into the file
// named by -o; dump prints the first -n records of a trace.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		cmdGen(os.Args[2:])
	case "info":
		cmdInfo(os.Args[2:])
	case "dump":
		cmdDump(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tempo-trace gen|info|dump [flags] [file]")
	os.Exit(2)
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	wl := fs.String("workload", "xsbench", "workload to capture")
	records := fs.Int("records", 100_000, "records to capture")
	footprint := fs.Uint64("footprint-mb", 0, "footprint in MB (0 = default)")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("o", "", "output file (required)")
	fs.Parse(args)
	if *out == "" {
		fatal("gen: -o is required")
	}
	g, err := workload.New(*wl, workload.Config{FootprintBytes: *footprint << 20, Seed: *seed})
	if err != nil {
		fatal("gen: %v", err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal("gen: %v", err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		fatal("gen: %v", err)
	}
	each(g, *records, func(rec trace.Record) {
		if err := w.Write(rec); err != nil {
			fatal("gen: %v", err)
		}
	})
	if err := w.Flush(); err != nil {
		fatal("gen: %v", err)
	}
	fmt.Printf("wrote %d records of %s to %s\n", *records, *wl, *out)
}

// each calls fn on the records of s in order, reading them a batch at
// a time, until s ends or fn has seen limit records.
func each(s trace.Stream, limit int, fn func(trace.Record)) {
	var batch [256]trace.Record
	for limit > 0 {
		want := min(limit, len(batch))
		n := s.Read(batch[:want])
		for _, rec := range batch[:n] {
			fn(rec)
		}
		if n < want {
			return
		}
		limit -= n
	}
}

func openTrace(path string) *trace.Reader {
	f, err := os.Open(path)
	if err != nil {
		fatal("%v", err)
	}
	r, err := trace.NewReader(f)
	if err != nil {
		fatal("%s: %v", path, err)
	}
	return r
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal("info: one trace file required")
	}
	r := openTrace(fs.Arg(0))
	var (
		n, loads, stores, withValue uint64
		insts                       uint64
		pages                       = map[uint64]bool{}
		lo, hi                      mem.VAddr
	)
	lo = ^mem.VAddr(0)
	each(r, math.MaxInt, func(rec trace.Record) {
		n++
		insts += uint64(rec.Gap) + 1
		if rec.Kind == trace.Store {
			stores++
		} else {
			loads++
		}
		if rec.HasValue {
			withValue++
		}
		pages[rec.VAddr.VPN()] = true
		if rec.VAddr < lo {
			lo = rec.VAddr
		}
		if rec.VAddr > hi {
			hi = rec.VAddr
		}
	})
	if err := r.Err(); err != nil {
		fatal("info: %v", err)
	}
	fmt.Printf("records        %d (%d loads, %d stores, %d index loads)\n", n, loads, stores, withValue)
	fmt.Printf("instructions   %d\n", insts)
	fmt.Printf("distinct pages %d (%.1f MB touched)\n", len(pages), float64(len(pages))*4096/1e6)
	fmt.Printf("address range  %#x .. %#x\n", uint64(lo), uint64(hi))
}

func cmdDump(args []string) {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	n := fs.Int("n", 20, "records to print")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal("dump: one trace file required")
	}
	r := openTrace(fs.Arg(0))
	i := 0
	each(r, *n, func(rec trace.Record) {
		kind := "LD"
		if rec.Kind == trace.Store {
			kind = "ST"
		}
		val := ""
		if rec.HasValue {
			val = fmt.Sprintf("  val=%d", rec.Value)
		}
		fmt.Printf("%6d  pc=%#08x  %s %#012x  gap=%d%s\n", i, rec.PC, kind, uint64(rec.VAddr), rec.Gap, val)
		i++
	})
	if err := r.Err(); err != nil {
		fatal("dump: %v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tempo-trace: "+format+"\n", args...)
	os.Exit(1)
}
