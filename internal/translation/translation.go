// Package translation is the pluggable translation-path engine: the
// seam between the TLB-miss/page-walk pipeline in internal/sim and the
// mechanism that accelerates it. The paper's TEMPO is one registered
// Mechanism among peers — Victima (PTEs cached in underutilized L2/LLC
// capacity) and Revelator (software-guided hash-based speculative
// translation) drop in through the same four hooks — which turns the
// repository from a one-paper reproduction into a virtual-memory
// mechanism testbed. MECHANISMS.md is the normative spec for the
// interface contract, each mechanism's model and its deviations from
// its source paper, and the `-mech` comparison workflow; this package
// is its implementation.
//
// The contract, in brief: a Mechanism is built once per run from Deps
// (shared memory-side services), hands each core a CoreHooks instance
// (nil for mechanisms that live entirely on the memory side, like
// TEMPO — a core with nil hooks makes no hook calls), and reports its
// activity as mech/<name>/* counters that feed the obsv conservation
// audit and the tempo-report head-to-head tables.
package translation

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/obsv"
	"repro/internal/stats"
	"repro/internal/vm"
)

// Default is the mechanism an empty Config.Mech selects: the paper's
// TEMPO path, bit-identical to the simulator before this seam existed.
const Default = "tempo"

// Params carries the configuration axes mechanisms consume. Tempo*
// mirror sim.TempoConfig; rival mechanisms reject TempoEnabled so a
// sweep cannot silently stack two translation mechanisms in one run.
type Params struct {
	// TempoEnabled turns the TEMPO engine on (tempo mechanism only).
	TempoEnabled bool
	// TempoLLC enables the LLC half of TEMPO's prefetch.
	TempoLLC bool
	// LLCFillExtra is the DRAM-completion-to-LLC-usable fill latency,
	// applied to every mechanism's LLC-bound prefetch.
	LLCFillExtra uint64
	// Cores is the run's core count.
	Cores int
}

// Deps are the shared memory-side services a Mechanism may wire into.
// All fields are owned by the simulator and live for the whole run.
type Deps struct {
	// Reader resolves a physical address to the page-table entry it
	// holds (TEMPO parses the DRAM burst that serviced a walk).
	Reader core.PTEReader
	// MemStats is the shared memory-side stats sink.
	MemStats *stats.Stats
	// Ctrl is the shared memory controller.
	Ctrl *dram.Controller
	// Fill is the memory-side LLC prefetch fill path.
	Fill FillPort
	// Params carries the mechanism-relevant configuration.
	Params Params
}

// FillPort registers a prefetched line that becomes LLC-visible at the
// given cycle (the simulator's memSys implements it).
type FillPort interface {
	AddPending(addr mem.PAddr, ready uint64, prov cache.Provenance)
}

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

// CoreHooks is one core's view of a mechanism: the four interception
// points of the TLB-miss lifecycle. Implementations must be cheap and
// allocation-free — the hooks run on the simulator's per-record path.
// A mechanism whose NewCore returns nil has no core-side presence: the
// core runs the same record kernel and skips every hook call.
type CoreHooks interface {
	// OnTLBMiss fires on every demand TLB miss, before the hardware
	// walk begins. A Hit Action suppresses the walk entirely.
	OnTLBMiss(v mem.VAddr, now uint64) Action
	// OnWalkStep fires for every answered PTE reference of a walk
	// issued through this core's walker (demand and background alike).
	OnWalkStep(step vm.WalkStep, fromDRAM bool)
	// OnWalkComplete fires when a demand walk finishes with a valid
	// translation, before the TLB-fill replay is charged.
	OnWalkComplete(v mem.VAddr, tr vm.Translation, leafFromDRAM bool, now uint64)
	// OnPrefetchUseful fires when a demand access hits an LLC line the
	// mechanism prefetched speculatively (cache.FillSpec provenance).
	OnPrefetchUseful()
}

// Mechanism is one registered translation-path mechanism, built once
// per run. See MECHANISMS.md for the normative contract.
type Mechanism interface {
	// Name returns the registry name ("tempo", "victima", ...).
	Name() string
	// NewCore hands core coreID its hooks, or nil when the mechanism
	// has no core-side presence (that core then makes no hook calls).
	NewCore(coreID int, port CorePort) CoreHooks
	// Attach wires the obsv event recorder into the mechanism's
	// memory-side components (nil-safe; no-op for most mechanisms).
	Attach(rec *obsv.Recorder)
	// CountersInto emits every mechanism counter under its canonical
	// mech/<name>/* registry name. The name set is fixed at
	// construction (zero values included) so gauges registered before
	// the run observe the full schema.
	CountersInto(emit func(name string, v uint64))
	// EnergyJ returns the mechanism's modelled energy overhead in
	// joules — the hardware the baseline machine does not have (tag
	// stores, prediction tables). TEMPO returns 0 here because its
	// engine power is already accounted by dram.EnergyModel.Account.
	EnergyJ() float64
}

// Factory builds a mechanism for one run.
type Factory func(Deps) (Mechanism, error)

var registry = map[string]Factory{}

// Register adds a mechanism factory under name. Mechanisms register
// from init; duplicate names panic (a programming error).
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("translation: Register needs a name and a factory")
	}
	if _, dup := registry[name]; dup {
		panic("translation: duplicate mechanism " + name)
	}
	registry[name] = f
}

// Names returns every registered mechanism name in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// New builds the named mechanism ("" selects Default) for one run.
func New(name string, d Deps) (Mechanism, error) {
	if name == "" {
		name = Default
	}
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("translation: unknown mechanism %q (registered: %v)", name, Names())
	}
	m, err := f(d)
	if err != nil {
		return nil, fmt.Errorf("translation: %s: %w", name, err)
	}
	return m, nil
}

// Engagement returns the canonical counter name that proves the named
// mechanism actually engaged in a run (the column the head-to-head
// tables report), or "" for an unknown name.
func Engagement(name string) string {
	switch name {
	case "tempo":
		return MetricTempoMirrorPrefetches
	case "victima":
		return MetricVictimaPTEHits
	case "revelator":
		return MetricRevelatorSpecHits
	}
	return ""
}

// Canonical mech/* registry names, re-exported from internal/obsv
// (which owns the strings so the conservation audit and the mechanisms
// cannot drift apart). Every mechanism counter appears in live gauges,
// Result.MechCounters and the obsv audit under exactly these names.
const (
	// MetricTempoMirrorTriggers mirrors mem/tempo_triggers under the
	// mech/* schema (the audit cross-checks the two views).
	MetricTempoMirrorTriggers = obsv.MetricMechTempoTriggers
	// MetricTempoMirrorPrefetches mirrors mem/tempo_prefetches.
	MetricTempoMirrorPrefetches = obsv.MetricMechTempoPrefetches
	// MetricTempoMirrorSuppressed mirrors mem/tempo_suppressed.
	MetricTempoMirrorSuppressed = obsv.MetricMechTempoSuppressed

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
