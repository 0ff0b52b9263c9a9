// Package stats collects the counters the TEMPO paper reports:
// DRAM-reference category counts (Figure 4), cycle attribution
// (Figure 1), replay service points (Figure 11), row-buffer outcomes,
// page-table-walk breakdowns, and energy totals.
//
// A single Stats value is shared (via pointers) by the core, walker,
// caches and DRAM controller of one simulated system; multi-core
// systems keep one Stats per core plus a shared one for the memory
// system. Stats is not safe for concurrent use: the simulator is
// single-threaded by design (deterministic replay).
package stats

import (
	"fmt"
	"math/bits"
)

// LatBuckets is the number of power-of-two latency buckets tracked per
// DRAM category: bucket i counts services with latency in
// [2^i, 2^(i+1)) cycles.
const LatBuckets = 24

// DRAMCategory classifies a DRAM reference the way Figures 1 and 4 do.
type DRAMCategory uint8

const (
	// DRAMPTW is a page-table-walk access that reached DRAM.
	DRAMPTW DRAMCategory = iota
	// DRAMReplay is the post-walk replay of the original reference.
	DRAMReplay
	// DRAMOther is any other demand access that reached DRAM.
	DRAMOther
	// DRAMPrefetch is a TEMPO or IMP prefetch issued to DRAM.
	DRAMPrefetch
	// DRAMWriteback is a dirty line evicted from the LLC and written
	// back to memory (off every critical path; excluded from the
	// demand-reference fractions of Figure 4).
	DRAMWriteback

	numDRAMCategories
)

// String implements fmt.Stringer.
func (c DRAMCategory) String() string {
	switch c {
	case DRAMPTW:
		return "DRAM-PTW-Access"
	case DRAMReplay:
		return "DRAM-Replay-Access"
	case DRAMOther:
		return "DRAM-Other"
	case DRAMPrefetch:
		return "DRAM-Prefetch"
	case DRAMWriteback:
		return "DRAM-Writeback"
	default:
		return fmt.Sprintf("DRAMCategory(%d)", uint8(c))
	}
}

// RowOutcome classifies how a DRAM access was served by the row buffer.
type RowOutcome uint8

const (
	// RowHit means the target row was already open.
	RowHit RowOutcome = iota
	// RowMiss means the bank was precharged (closed) — an ACT is
	// needed but no PRECHARGE on the critical path.
	RowMiss
	// RowConflict means a different row was open — PRECHARGE then ACT.
	RowConflict

	numRowOutcomes
)

// String implements fmt.Stringer.
func (o RowOutcome) String() string {
	switch o {
	case RowHit:
		return "row-hit"
	case RowMiss:
		return "row-miss"
	case RowConflict:
		return "row-conflict"
	default:
		return fmt.Sprintf("RowOutcome(%d)", uint8(o))
	}
}

// ReplayService records where a post-walk replay found its data
// (Figure 11, left).
type ReplayService uint8

const (
	// ReplayLLC: the replay hit in the LLC (TEMPO's best case, or a
	// lucky residency).
	ReplayLLC ReplayService = iota
	// ReplayRowBuffer: the replay went to DRAM but hit an open row.
	ReplayRowBuffer
	// ReplayDRAMArray: the replay paid a full DRAM array access.
	ReplayDRAMArray

	numReplayServices
)

// String implements fmt.Stringer.
func (s ReplayService) String() string {
	switch s {
	case ReplayLLC:
		return "LLC"
	case ReplayRowBuffer:
		return "row-buffer"
	case ReplayDRAMArray:
		return "DRAM-array"
	default:
		return fmt.Sprintf("ReplayService(%d)", uint8(s))
	}
}

// Stats aggregates every counter one simulated system produces.
type Stats struct {
	// Cycles is total simulated runtime.
	Cycles uint64
	// Instructions counts retired instructions (memory + non-memory).
	Instructions uint64
	// MemRefs counts memory references replayed from the trace.
	MemRefs uint64

	// ReplayDRAMCycles counts the CPI stack's demand-data DRAM cycles
	// (data-dram-queue, data-dram-service, row-conflict-extra) that
	// post-walk replays stalled on: the one split Figure 1 needs that
	// the stack does not keep (DRAMStallCycles).
	ReplayDRAMCycles uint64

	// TLB and walk behaviour.
	TLBHits      uint64
	TLBMisses    uint64
	WalksStarted uint64
	// WalkDRAMTouched counts walks that found a translation and read
	// their leaf PTE from DRAM. A walk whose upper-level PTEs alone
	// reached DRAM is not counted.
	WalkDRAMTouched uint64
	// WalkDRAMThenReplayDRAM counts walks whose leaf PTE came from
	// DRAM and whose replay also went to DRAM (the paper's 98%+
	// observation).
	WalkDRAMThenReplayDRAM uint64
	// MMUCacheHits / Misses count page-walk-cache lookups for the
	// upper levels (L4/L3/L2 PTs).
	MMUCacheHits   uint64
	MMUCacheMisses uint64

	// DRAM reference counters by category (Figure 4) and, within the
	// PTW category, how many were leaf-level PT accesses.
	DRAMRefs     [numDRAMCategories]uint64
	DRAMPTWLeaf  uint64
	DRAMOutcomes [numDRAMCategories][numRowOutcomes]uint64

	// Replay service points (Figure 11 left).
	ReplayServiced [numReplayServices]uint64

	// DRAMLatency histograms service latency (enqueue to completion)
	// per category in power-of-two buckets.
	DRAMLatency [numDRAMCategories][LatBuckets]uint64

	// TEMPO engine counters.
	TempoTriggers   uint64 // leaf-PT DRAM accesses seen by the engine
	TempoPrefetches uint64 // prefetches actually issued
	TempoSuppressed uint64 // suppressed (unallocated PTE)
	TempoLLCFills   uint64 // prefetched lines filled into LLC
	TempoUseful     uint64 // prefetched lines consumed by a replay

	// IMP prefetcher counters. IMPWalks counts the background page
	// walks IMP performs to translate prefetch targets that miss the
	// TLB — walks not driven by a demand TLB miss, so the walk/miss
	// conservation law is WalksStarted ≤ TLBMisses + IMPWalks.
	IMPPrefetches uint64
	IMPUseful     uint64
	IMPWalks      uint64

	// Cache hierarchy counters (demand accesses only).
	L1Hits, L1Misses   uint64
	L2Hits, L2Misses   uint64
	LLCHits, LLCMisses uint64

	// DRAM command counters (for energy).
	ActCount, PreCount, RdCount, WrCount uint64
	// RefCount counts all-bank auto-refreshes.
	RefCount uint64
	// DRAMBusyCycles approximates time with the channel active.
	DRAMBusyCycles uint64

	// Superpage accounting, filled by the OS model: bytes of the
	// footprint backed by each page size at end of run.
	FootprintBytes [3]uint64 // indexed by mem.PageSizeClass

	// CPI-stack attribution (OBSERVABILITY.md "CPI stacks"): every
	// cycle a core's clock advances is charged to exactly one bucket,
	// so the buckets sum to CPICycles. CPICycles is the per-core cycle
	// count under summing merge semantics — unlike Cycles (which Add
	// maxes, giving the multiprogrammed runtime) it accumulates across
	// cores, making it the stack's denominator in merged views. Zero
	// CPICycles marks an unattributed result (a cache entry written
	// before attribution existed); consumers skip the stack then.
	CPIStack  [NumCPIBuckets]uint64
	CPICycles uint64
	// Credit counters ride along with the stack: events where latency
	// was hidden rather than paid, so they are not part of the cycle
	// sum. CPIHiddenByPrefetch counts post-walk replays served on-chip
	// from a prefetched line (TEMPO/IMP/speculative provenance) — each
	// one a DRAM trip the paper's mechanism absorbed. CPIMechElided
	// counts TLB misses a translation mechanism resolved without a
	// hardware walk (victima's cached PTEs). Both are bounded by the
	// TLB miss count.
	CPIHiddenByPrefetch uint64
	CPIMechElided       uint64
}

// AddDRAMRef records a DRAM reference of the given category with its
// row-buffer outcome.
func (s *Stats) AddDRAMRef(c DRAMCategory, o RowOutcome) {
	s.DRAMRefs[c]++
	s.DRAMOutcomes[c][o]++
}

// AddDRAMLatency records the service latency of one DRAM reference.
func (s *Stats) AddDRAMLatency(c DRAMCategory, cycles uint64) {
	b := bits.Len64(cycles)
	if b > 0 {
		b--
	}
	if b >= LatBuckets {
		b = LatBuckets - 1
	}
	s.DRAMLatency[c][b]++
}

// DRAMLatencyPercentile returns an upper bound on the given percentile
// (0..1) of the category's service latency, from the histogram. It
// returns 0 when the category saw no traffic.
func (s *Stats) DRAMLatencyPercentile(c DRAMCategory, p float64) uint64 {
	var total uint64
	for _, n := range s.DRAMLatency[c] {
		total += n
	}
	if total == 0 {
		return 0
	}
	target := uint64(float64(total) * p)
	var acc uint64
	for i, n := range s.DRAMLatency[c] {
		acc += n
		if acc > target {
			return 1 << uint(i+1) // bucket upper bound
		}
	}
	return 1 << LatBuckets
}

// TotalDRAMRefs returns the number of DRAM references across demand
// categories; includePrefetch controls whether prefetch traffic counts.
func (s *Stats) TotalDRAMRefs(includePrefetch bool) uint64 {
	t := s.DRAMRefs[DRAMPTW] + s.DRAMRefs[DRAMReplay] + s.DRAMRefs[DRAMOther]
	if includePrefetch {
		t += s.DRAMRefs[DRAMPrefetch]
	}
	return t
}

// DRAMRefFraction returns the fraction of demand DRAM references in the
// given category (Figure 4's y-axis). Returns 0 when no references.
func (s *Stats) DRAMRefFraction(c DRAMCategory) float64 {
	total := s.TotalDRAMRefs(false)
	if total == 0 {
		return 0
	}
	return float64(s.DRAMRefs[c]) / float64(total)
}

// DRAMStallCycles returns the cycles the cores stalled on demand DRAM
// accesses of category c, read off the CPI stack (Figure 1): page
// walks are the walk-pte-dram bucket, replays ReplayDRAMCycles, and
// other misses the three demand-data DRAM buckets less the replays'
// share. Other categories stall no core and return 0.
func (s *Stats) DRAMStallCycles(c DRAMCategory) uint64 {
	switch c {
	case DRAMPTW:
		return s.CPIStack[CPIWalkPTEDRAM]
	case DRAMReplay:
		return s.ReplayDRAMCycles
	case DRAMOther:
		return s.CPIStack[CPIDataDRAMQueue] + s.CPIStack[CPIDataDRAMService] +
			s.CPIStack[CPIRowConflictExtra] - s.ReplayDRAMCycles
	}
	return 0
}

// RuntimeFraction returns the fraction of cycles the cores stalled on
// DRAM accesses of category c (Figure 1's y-axis). The stall cycles are
// summed over cores, so they are divided by CPICycles, the per-core
// cycle sum the CPI stack adds up to, not by Cycles, the slowest
// core's count; the two agree on one core.
func (s *Stats) RuntimeFraction(c DRAMCategory) float64 {
	if s.CPICycles == 0 {
		return 0
	}
	return float64(s.DRAMStallCycles(c)) / float64(s.CPICycles)
}

// LeafPTWFraction returns the share of DRAM page-table references that
// were leaf-level (the paper reports 96%+).
func (s *Stats) LeafPTWFraction() float64 {
	if s.DRAMRefs[DRAMPTW] == 0 {
		return 0
	}
	return float64(s.DRAMPTWLeaf) / float64(s.DRAMRefs[DRAMPTW])
}

// ReplayAfterPTWFraction returns, among walks whose leaf PTE was read
// from DRAM, the fraction whose replay also accessed DRAM (the paper
// reports 98%+). TEMPO converts these replays to LLC/row-buffer hits,
// so when TEMPO is on the prefetched services count as DRAM-destined.
func (s *Stats) ReplayAfterPTWFraction() float64 {
	if s.WalkDRAMTouched == 0 {
		return 0
	}
	return float64(s.WalkDRAMThenReplayDRAM) / float64(s.WalkDRAMTouched)
}

// ReplayServiceFraction returns the fraction of post-DRAM-walk replays
// serviced at the given point (Figure 11 left).
func (s *Stats) ReplayServiceFraction(p ReplayService) float64 {
	var total uint64
	for i := range s.ReplayServiced {
		total += s.ReplayServiced[i]
	}
	if total == 0 {
		return 0
	}
	return float64(s.ReplayServiced[p]) / float64(total)
}

// IPC returns instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// TLBMissRate returns misses per lookup.
func (s *Stats) TLBMissRate() float64 {
	t := s.TLBHits + s.TLBMisses
	if t == 0 {
		return 0
	}
	return float64(s.TLBMisses) / float64(t)
}

// Add accumulates other into s (used to merge per-core stats into a
// system view for multiprogrammed runs).
func (s *Stats) Add(o *Stats) {
	s.Cycles = max(s.Cycles, o.Cycles)
	s.Instructions += o.Instructions
	s.MemRefs += o.MemRefs
	s.ReplayDRAMCycles += o.ReplayDRAMCycles
	s.TLBHits += o.TLBHits
	s.TLBMisses += o.TLBMisses
	s.WalksStarted += o.WalksStarted
	s.WalkDRAMTouched += o.WalkDRAMTouched
	s.WalkDRAMThenReplayDRAM += o.WalkDRAMThenReplayDRAM
	s.MMUCacheHits += o.MMUCacheHits
	s.MMUCacheMisses += o.MMUCacheMisses
	for c := range s.DRAMRefs {
		s.DRAMRefs[c] += o.DRAMRefs[c]
		for r := range s.DRAMOutcomes[c] {
			s.DRAMOutcomes[c][r] += o.DRAMOutcomes[c][r]
		}
	}
	s.DRAMPTWLeaf += o.DRAMPTWLeaf
	for i := range s.ReplayServiced {
		s.ReplayServiced[i] += o.ReplayServiced[i]
	}
	for c := range s.DRAMLatency {
		for b := range s.DRAMLatency[c] {
			s.DRAMLatency[c][b] += o.DRAMLatency[c][b]
		}
	}
	s.TempoTriggers += o.TempoTriggers
	s.TempoPrefetches += o.TempoPrefetches
	s.TempoSuppressed += o.TempoSuppressed
	s.TempoLLCFills += o.TempoLLCFills
	s.TempoUseful += o.TempoUseful
	s.IMPPrefetches += o.IMPPrefetches
	s.IMPUseful += o.IMPUseful
	s.IMPWalks += o.IMPWalks
	s.L1Hits += o.L1Hits
	s.L1Misses += o.L1Misses
	s.L2Hits += o.L2Hits
	s.L2Misses += o.L2Misses
	s.LLCHits += o.LLCHits
	s.LLCMisses += o.LLCMisses
	s.ActCount += o.ActCount
	s.PreCount += o.PreCount
	s.RdCount += o.RdCount
	s.WrCount += o.WrCount
	s.RefCount += o.RefCount
	s.DRAMBusyCycles += o.DRAMBusyCycles
	for i := range s.FootprintBytes {
		s.FootprintBytes[i] += o.FootprintBytes[i]
	}
	for i := range s.CPIStack {
		s.CPIStack[i] += o.CPIStack[i]
	}
	s.CPICycles += o.CPICycles
	s.CPIHiddenByPrefetch += o.CPIHiddenByPrefetch
	s.CPIMechElided += o.CPIMechElided
}
