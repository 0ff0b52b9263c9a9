// Package workload provides deterministic synthetic trace generators
// standing in for the paper's Pin traces (DESIGN.md substitution #1).
// Each generator reproduces the *access structure* of its namesake —
// pointer chasing, indirect indexing, Monte-Carlo lookups, BFS — at a
// scaled footprint, because the phenomena TEMPO exploits (TLB miss
// rate, leaf-PT reuse, replay coldness) depend on structure and the
// footprint:cache ratio, not on absolute terabytes.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Config scales a generator.
type Config struct {
	// FootprintBytes is the main data footprint (default per workload
	// if zero).
	FootprintBytes uint64
	// Seed drives the deterministic random stream.
	Seed int64
}

// Generator is an infinite, deterministic record stream.
type Generator interface {
	trace.Stream
	Name() string
	// Footprint is the nominal data footprint in bytes.
	Footprint() uint64
}

// dataBase is where workload data regions start in the virtual address
// space (well above null pages, below the canonical boundary).
const dataBase = mem.VAddr(0x10_0000_0000)

// DefaultBigFootprint scales the paper's 3–4TB footprints into this
// simulator's regime (see DESIGN.md): large enough to dwarf the TLB
// reach and LLC many hundred-fold.
const DefaultBigFootprint = 2 << 30

// DefaultSmallFootprint is used for the Spec/Parsec-like control
// workloads whose footprints mostly fit on chip.
const DefaultSmallFootprint = 24 << 20

// builders registers every workload.
var builders = map[string]struct {
	big   bool
	build func(Config) Generator
}{
	"mcf":       {true, newMCF},
	"canneal":   {true, newCanneal},
	"lsh":       {true, newLSH},
	"spmv":      {true, newSPMV},
	"sgms":      {true, newSGMS},
	"graph500":  {true, newGraph500},
	"xsbench":   {true, newXSBench},
	"illustris": {true, newIllustris},

	"gcc.small":           {false, newGCCSmall},
	"bzip2.small":         {false, newBzip2Small},
	"blackscholes.small":  {false, newBlackscholesSmall},
	"streamcluster.small": {false, newStreamclusterSmall},
	"astar.small":         {false, newAstarSmall},
	"milc.small":          {false, newMilcSmall},
}

// Big returns the big-data workload names in stable order.
func Big() []string { return names(true) }

// Small returns the small-footprint control workloads.
func Small() []string { return names(false) }

// All returns every workload name.
func All() []string { return append(Big(), Small()...) }

func names(big bool) []string {
	var out []string
	for n, b := range builders {
		if b.big == big {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// New builds a generator by name.
func New(name string, cfg Config) (Generator, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q", name)
	}
	if cfg.FootprintBytes == 0 {
		if b.big {
			cfg.FootprintBytes = DefaultBigFootprint
		} else {
			cfg.FootprintBytes = DefaultSmallFootprint
		}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return b.build(cfg), nil
}

// gen is the shared generator chassis: a record queue refilled by one
// logical operation at a time.
type gen struct {
	name      string
	footprint uint64
	rng       *rand.Rand
	queue     []trace.Record
	head      int
	refill    func(*gen)
}

func newGen(name string, cfg Config, refill func(*gen)) *gen {
	return &gen{
		name:      name,
		footprint: cfg.FootprintBytes,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		refill:    refill,
	}
}

// Name implements Generator.
func (g *gen) Name() string { return g.name }

// Footprint implements Generator.
func (g *gen) Footprint() uint64 { return g.footprint }

// Read implements trace.Stream: it copies queued records into dst,
// refilling the queue as it empties, until dst is full.
func (g *gen) Read(dst []trace.Record) int {
	n := 0
	for n < len(dst) {
		if g.head == len(g.queue) {
			g.queue = g.queue[:0]
			g.head = 0
			g.refill(g)
		}
		k := copy(dst[n:], g.queue[g.head:])
		g.head += k
		n += k
	}
	return n
}

// load/store/indexLoad append records to the queue.
func (g *gen) load(pc uint64, v mem.VAddr, gap int) {
	g.queue = append(g.queue, trace.Record{PC: pc, VAddr: v, Kind: trace.Load, Gap: uint16(gap)})
}

func (g *gen) store(pc uint64, v mem.VAddr, gap int) {
	g.queue = append(g.queue, trace.Record{PC: pc, VAddr: v, Kind: trace.Store, Gap: uint16(gap)})
}

func (g *gen) indexLoad(pc uint64, v mem.VAddr, gap int, value uint64) {
	g.queue = append(g.queue, trace.Record{
		PC: pc, VAddr: v, Kind: trace.Load, Gap: uint16(gap),
		Value: value, HasValue: true,
	})
}

// uniform returns a uniformly random, 8-byte aligned address within
// [base, base+span).
func (g *gen) uniform(base mem.VAddr, span uint64) mem.VAddr {
	return base + mem.VAddr(uint64(g.rng.Int63n(int64(span)))&^7)
}
