// Package translation is the seam between the TLB-miss/page-walk
// pipeline in internal/sim and the rival translation mechanisms that
// accelerate it: Victima (PTEs cached in underutilized L2/LLC capacity)
// and Revelator (software-guided hash-based speculative translation)
// drop in through the same three per-core hooks. The paper's TEMPO is
// not one of them: its Prefetch Engine sits in the memory controller,
// and sim.New wires it whenever Config.Tempo.Enabled is set.
// MECHANISMS.md is the normative spec for the interface contract, each
// mechanism's model and its deviations from its source paper, and the
// `-mech` comparison workflow; this package is its implementation.
//
// The contract, in brief: New builds a rival Mechanism once per run, it
// hands each core a CoreHooks instance, and it reports its activity as
// mech/<name>/* counters that feed the obsv conservation audit and the
// tempo-report head-to-head tables.
package translation

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/obsv"
	"repro/internal/stats"
	"repro/internal/vm"
)

// Action is a CoreHooks.OnTLBMiss verdict. Hit short-circuits the
// hardware walk: the core installs Translation into its TLB, charges
// Latency, and proceeds straight to the data access — the Victima
// path, where the translation is served from a PTE line resident in
// the on-chip caches. A zero Action lets the walk proceed normally.
type Action struct {
	// Hit reports that the mechanism resolved the translation itself.
	Hit bool
	// Translation is the resolved mapping (valid when Hit).
	Translation vm.Translation
	// Latency is the resolution cost in cycles (valid when Hit).
	Latency uint64
}

// CorePort is the per-core window a CoreHooks implementation drives:
// non-perturbing residence probes, timed on-chip reads, and LLC-bound
// speculative prefetches. The simulator implements it over the core's
// cache hierarchy and the shared controller; all three methods are
// called only from inside the owning core's hooks, on the simulation
// thread, with `now` the core's current clock.
type CorePort interface {
	// PeekOnChip reports whether the line holding p is resident in the
	// core's L1/L2 or the shared LLC, without perturbing any state.
	PeekOnChip(p mem.PAddr) bool
	// ReadLine performs a demand read of an on-chip line through the
	// hierarchy (promoting it as a real access would) and returns its
	// latency. The caller must have established on-chip residence via
	// PeekOnChip on the same line.
	ReadLine(p mem.PAddr, now uint64) uint64
	// PrefetchLine fetches the line holding p from DRAM toward the LLC
	// with speculative provenance (cache.FillSpec), returning false if
	// the line was already LLC-resident (no request issued).
	PrefetchLine(p mem.PAddr, now uint64) bool
}

// CoreHooks is one core's view of a mechanism: the three interception
// points of the TLB-miss lifecycle. Implementations must be cheap and
// allocation-free — the hooks run on the simulator's per-record path.
// A core of the default machine has no hooks: it runs the same record
// kernel and skips every hook call.
type CoreHooks interface {
	// OnTLBMiss fires on every demand TLB miss, before the hardware
	// walk begins. A Hit Action suppresses the walk entirely.
	OnTLBMiss(v mem.VAddr, now uint64) Action
	// OnWalkComplete fires when the demand walk that followed a non-hit
	// OnTLBMiss finishes with a valid translation, before the TLB-fill
	// replay is charged. leafPTE is the physical address of the leaf
	// PTE the walk read.
	OnWalkComplete(v mem.VAddr, tr vm.Translation, leafPTE mem.PAddr)
	// OnPrefetchUseful fires when a demand access hits an LLC line the
	// mechanism prefetched speculatively (cache.FillSpec provenance).
	OnPrefetchUseful()
}

// Mechanism is one rival translation-path mechanism, built once per
// run. See MECHANISMS.md for the normative contract.
type Mechanism interface {
	// Name returns the mechanism's name ("victima", "revelator").
	Name() string
	// NewCore hands core coreID its hooks.
	NewCore(coreID int, port CorePort) CoreHooks
	// CountersInto emits every mechanism counter under its canonical
	// mech/<name>/* registry name. The name set is fixed at
	// construction (zero values included), so every registry snapshot,
	// the first interval line included, carries the full schema.
	CountersInto(emit func(name string, v uint64))
	// EnergyJ returns the mechanism's modelled energy overhead in
	// joules — the hardware the baseline machine does not have (tag
	// stores, prediction tables).
	EnergyJ() float64
}

// Names returns every mechanism name -mech accepts, in sorted order.
// "tempo" names the default machine, whose TEMPO engine sim.New wires.
func Names() []string {
	return []string{"revelator", "tempo", "victima"}
}

// New builds the named rival mechanism for one run. "" and "tempo"
// select the default machine, which has no mechanism: New returns nil.
func New(name string) (Mechanism, error) {
	switch name {
	case "", "tempo":
		return nil, nil
	case "victima":
		return &victimaMech{}, nil
	case "revelator":
		return &revelatorMech{}, nil
	}
	return nil, fmt.Errorf("translation: unknown mechanism %q (registered: %v)", name, Names())
}

// Engagement returns the count that proves the named mechanism acted
// in a run (the column the head-to-head tables report): TEMPO's issued
// prefetches from the run's total stats, a rival's engagement counter
// from its mech/* counters, or 0 for an unknown name.
func Engagement(name string, total *stats.Stats, mech map[string]uint64) uint64 {
	switch name {
	case "tempo":
		return total.TempoPrefetches
	case "victima":
		return mech[MetricVictimaPTEHits]
	case "revelator":
		return mech[MetricRevelatorSpecHits]
	}
	return 0
}

// Canonical mech/* registry names, re-exported from internal/obsv
// (which owns the strings so the conservation audit and the mechanisms
// cannot drift apart). Every mechanism counter appears in live series,
// Result.MechCounters and the obsv audit under exactly these names.
const (
	// MetricVictimaLookups counts tag-store probes (one per TLB miss).
	MetricVictimaLookups = obsv.MetricMechVictimaLookups
	// MetricVictimaPTEHits counts walks elided by a cached PTE.
	MetricVictimaPTEHits = obsv.MetricMechVictimaPTEHits
	// MetricVictimaPTEMisses counts tag-store misses.
	MetricVictimaPTEMisses = obsv.MetricMechVictimaPTEMisses
	// MetricVictimaEvicted counts tag hits whose PTE line had fallen
	// out of the on-chip hierarchy (entry dropped, walk proceeds).
	MetricVictimaEvicted = obsv.MetricMechVictimaEvicted
	// MetricVictimaInserts counts tag-store installs (one per
	// completed demand walk).
	MetricVictimaInserts = obsv.MetricMechVictimaInserts

	// MetricRevelatorPredictions counts TLB misses with a table hit.
	MetricRevelatorPredictions = obsv.MetricMechRevelatorPredictions
	// MetricRevelatorSpecPrefetches counts issued speculative
	// prefetches (predictions minus already-LLC-resident targets).
	MetricRevelatorSpecPrefetches = obsv.MetricMechRevelatorSpecPrefetches
	// MetricRevelatorSpecHits counts predictions the verification walk
	// confirmed (predicted line == translated line).
	MetricRevelatorSpecHits = obsv.MetricMechRevelatorSpecHits
	// MetricRevelatorSpecMisses counts refuted predictions (partial-tag
	// aliases, remapped pages).
	MetricRevelatorSpecMisses = obsv.MetricMechRevelatorSpecMisses
	// MetricRevelatorSpecUseful counts demand hits on FillSpec lines.
	MetricRevelatorSpecUseful = obsv.MetricMechRevelatorSpecUseful
)
