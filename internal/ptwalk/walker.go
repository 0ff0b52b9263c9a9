// Package ptwalk models the hardware page-table walker. On a TLB miss
// it walks the x86-64 radix table, consulting the MMU (page-walk)
// caches to skip upper levels, and issues cacheable memory references
// for the PTEs it must read. TEMPO's walker-side change lives here:
// the reference for the *leaf* PTE is tagged, and the cache-line index
// the replay will use inside the translated page is appended to the
// request (Section 4.1).
package ptwalk

import (
	"repro/internal/mem"
	"repro/internal/obsv"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/vm"
)

// MemPort is the walker's path into the memory hierarchy. The
// implementation (the simulator's memory system) performs a cacheable
// read of the PTE line and returns its latency and whether the line
// had to come from DRAM.
type MemPort interface {
	// ReadPTE reads the PTE at paddr starting at cycle `at`. For the
	// leaf reference, isLeaf is set and replayLine carries the
	// line-in-page bits TEMPO appends (the memory controller uses
	// them only if the read reaches DRAM).
	ReadPTE(paddr mem.PAddr, level int, isLeaf bool, replayLine uint64, at uint64) (latency uint64, fromDRAM bool)
}

// StepObserver sees every answered PTE reference of walks issued
// through a walker. translation.CoreHooks satisfies it structurally;
// the field is nil-safe and costs one pointer test per answered step.
type StepObserver interface {
	OnWalkStep(step vm.WalkStep, fromDRAM bool)
}

// ReplayLineBits is how many line-index bits the walker appends. 6
// bits suffice for 4KB pages (the paper's figure); we carry enough for
// a 1GB page so superpage leaves work identically.
const ReplayLineBits = 24

// ReplayLineOf extracts the bits the walker appends for v: the index
// of v's cache line within its (up to 1GB) page-aligned region.
func ReplayLineOf(v mem.VAddr) uint64 {
	return (uint64(v) >> mem.LineShift) & (1<<ReplayLineBits - 1)
}

// Result summarises one hardware walk.
type Result struct {
	Translation vm.Translation
	// OK is false if the walk hit a non-present entry (page fault).
	OK bool
	// Latency is the full serialised walk latency in cycles.
	Latency uint64
	// CacheLatency and DRAMLatency split Latency by where the PTE
	// reads were answered: cycles spent in on-chip cache probes vs the
	// DRAM round-trip portion of DRAM-served reads. The remainder
	// (Latency − CacheLatency − DRAMLatency) is the walker's own
	// per-reference step overhead — the split the CPI stack's
	// walk-pte-cache / walk-pte-dram / walk-mmu buckets charge.
	CacheLatency uint64
	DRAMLatency  uint64
	// LeafFromDRAM reports whether the leaf PTE was read from DRAM —
	// TEMPO's trigger condition.
	LeafFromDRAM bool
	// DRAMRefs counts walk references served by DRAM.
	DRAMRefs int
	// Refs counts memory references issued (post MMU-cache skip).
	Refs int
}

// Walker is one core's page-table walker.
type Walker struct {
	mmu   *tlb.MMUCache
	table *vm.PageTable
	st    *stats.Stats

	// StepOverhead is the fixed per-reference walker latency added on
	// top of the memory system's (pointer chase, address formation).
	StepOverhead uint64

	// Rec, when non-nil, receives per-walk lifecycle events (MMU-cache
	// probes, per-level PTE references, whole-walk spans) attributed to
	// CoreID. WalkLatency, when non-nil, histograms the serialised
	// latency of completed walks. Both are nil-safe obsv hooks: the
	// uninstrumented walk path pays one pointer test per site.
	Rec         *obsv.Recorder
	CoreID      int
	WalkLatency *obsv.Histogram

	// Mech, when non-nil, observes every answered walk step (the
	// translation-mechanism hook; see internal/translation).
	Mech StepObserver
}

// New builds a walker over a page table with its own MMU caches.
func New(table *vm.PageTable, mmu *tlb.MMUCache, st *stats.Stats) *Walker {
	return &Walker{mmu: mmu, table: table, st: st, StepOverhead: 2}
}

// WalkState is one in-progress hardware walk, resumable between PTE
// references. It exists so a blocking core can park mid-walk on a DRAM
// read without holding a goroutine stack: the core drives the loop —
// Begin, then alternating Next (which step to reference) and Feed (the
// memory system's answer) until Next reports no more steps, then
// Finish. A WalkState is plain data and is embedded in the core, so a
// steady-state walk allocates nothing.
type WalkState struct {
	w          *Walker
	v          mem.VAddr
	steps      [mem.Levels]vm.WalkStep
	n          int // steps returned by the software walk
	i          int // index of the step handed out by Next
	ok         bool
	startLevel int
	replayLine uint64
	start      uint64 // cycle the walk began (for event timestamps)
	res        Result
}

// Begin starts a walk of v at cycle now from its software descent
// (steps[:n], ok), as vm.PageTable.Walk returns it for v on the
// walker's table, and performs the MMU-cache lookup and its stats
// updates exactly as Walk does. The caller runs the descent so that it
// can double as the caller's residency check. now anchors the walk's
// event timestamps; pass 0 when the caller has no clock (it only
// affects tracing).
func (w *Walker) Begin(ws *WalkState, v mem.VAddr, now uint64, steps [mem.Levels]vm.WalkStep, n int, ok bool) {
	w.st.WalksStarted++

	// MMU-cache skip: resume below the deepest cached level.
	startLevel := mem.Levels
	hitA := uint8(0)
	if lvl, _, hit := w.mmu.Lookup(v); hit {
		w.st.MMUCacheHits++
		startLevel = lvl - 1
		hitA = 1
	} else {
		w.st.MMUCacheMisses++
	}
	if w.Rec.Active() {
		w.Rec.Emit(obsv.Event{Kind: obsv.EvMMUCache, Cycle: now,
			Core: int16(w.CoreID), A: hitA, Addr: uint64(v)})
	}
	*ws = WalkState{
		w: w, v: v, steps: steps, n: n, ok: ok,
		startLevel: startLevel, replayLine: ReplayLineOf(v), start: now,
		res: Result{OK: ok},
	}
}

// Next returns the next PTE reference the hardware issues, skipping
// levels covered by the MMU caches. Every returned step must be
// answered with Feed before Next is called again.
func (ws *WalkState) Next() (vm.WalkStep, bool) {
	for ws.i < ws.n {
		step := ws.steps[ws.i]
		if step.Level > ws.startLevel {
			ws.i++
			continue
		}
		ws.res.Refs++
		return step, true
	}
	return vm.WalkStep{}, false
}

// Latency returns the serialised walk latency accumulated so far; the
// current reference starts at walk-begin time plus this.
func (ws *WalkState) Latency() uint64 { return ws.res.Latency }

// ReplayLine returns the line-in-page bits the walker appends to the
// leaf reference.
func (ws *WalkState) ReplayLine() uint64 { return ws.replayLine }

// Feed records the memory system's answer for the step Next returned:
// accumulates latency, tracks DRAM provenance, and refills the MMU
// caches from non-leaf entries. The whole answered latency lands in
// the matching CacheLatency/DRAMLatency split; callers that know the
// on-chip probe portion of a DRAM-served read use FeedDRAM instead.
func (ws *WalkState) Feed(latency uint64, fromDRAM bool) {
	if fromDRAM {
		ws.res.DRAMLatency += latency
	} else {
		ws.res.CacheLatency += latency
	}
	ws.feed(latency, fromDRAM)
}

// FeedDRAM records a DRAM-served answer whose first cachePortion
// cycles were the on-chip probe that missed (charged to CacheLatency);
// the remainder is the DRAM round trip. cachePortion must not exceed
// latency.
func (ws *WalkState) FeedDRAM(latency, cachePortion uint64) {
	ws.res.CacheLatency += cachePortion
	ws.res.DRAMLatency += latency - cachePortion
	ws.feed(latency, true)
}

func (ws *WalkState) feed(latency uint64, fromDRAM bool) {
	w := ws.w
	step := ws.steps[ws.i]
	ws.i++
	if w.Mech != nil {
		w.Mech.OnWalkStep(step, fromDRAM)
	}
	if w.Rec.Active() {
		flags := uint8(0)
		if fromDRAM {
			flags |= 1
		}
		if step.IsLeaf {
			flags |= 2
		}
		w.Rec.Emit(obsv.Event{Kind: obsv.EvWalkStep,
			Cycle: ws.start + ws.res.Latency, Dur: latency,
			Core: int16(w.CoreID), Addr: uint64(step.PTEAddr),
			A: uint8(step.Level), B: flags})
	}
	ws.res.Latency += latency + w.StepOverhead
	if fromDRAM {
		ws.res.DRAMRefs++
		if step.IsLeaf {
			ws.res.LeafFromDRAM = true
		}
	}
	// Cache the non-leaf entry we just read (levels 4..2 point at
	// the next table page).
	if !step.IsLeaf && step.Level >= 2 {
		if pte, _, found := w.table.ReadPTE(step.PTEAddr); found && pte.Present && !pte.Leaf {
			w.mmu.Insert(ws.v, step.Level, pte.Frame)
		}
	}
}

// Finish completes the walk: resolves the translation and updates the
// walk-outcome counters.
func (ws *WalkState) Finish() Result {
	res := ws.res
	w := ws.w
	w.WalkLatency.Observe(res.Latency)
	if w.Rec.Active() {
		flags := uint8(0)
		if res.LeafFromDRAM {
			flags = 1
		}
		w.Rec.Emit(obsv.Event{Kind: obsv.EvWalkEnd, Cycle: ws.start,
			Dur: res.Latency, Core: int16(w.CoreID), Addr: uint64(ws.v), B: flags})
	}
	if !ws.ok {
		return res
	}
	tr, found := ws.w.table.Lookup(ws.v)
	if !found {
		res.OK = false
		return res
	}
	res.Translation = tr
	if res.LeafFromDRAM {
		ws.w.st.WalkDRAMTouched++
	}
	return res
}

// Walk translates v starting at cycle `at`, issuing PTE reads through
// port. It updates MMU caches and the walk counters in stats. It is
// the synchronous convenience over Begin/Next/Feed/Finish, used for
// walks that never park the core (background prefetcher walks, tests).
func (w *Walker) Walk(v mem.VAddr, at uint64, port MemPort) Result {
	var ws WalkState
	steps, n, ok := w.table.Walk(v)
	w.Begin(&ws, v, at, steps, n, ok)
	for {
		step, more := ws.Next()
		if !more {
			break
		}
		lat, fromDRAM := port.ReadPTE(step.PTEAddr, step.Level, step.IsLeaf, ws.replayLine, at+ws.res.Latency)
		ws.Feed(lat, fromDRAM)
	}
	return ws.Finish()
}
