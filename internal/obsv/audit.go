package obsv

import (
	"fmt"

	"repro/internal/stats"
)

// Canonical registry names for the cross-subsystem metrics the audit
// and the cross-run tooling (cmd/tempo-report, the introspection
// server) consume. "mem/..." metrics live in the shared memory-system
// stats; "sys/..." metrics are sums across cores. The two views of
// these names — live sources (StatsSource, over a running simulation
// or a sweep's summed totals) and end-of-run snapshots
// (StatsSnapshot) — both come from emitStats, so a check written
// against one view holds for the other.
const (
	MetricReads           = "mem/reads"
	MetricWrites          = "mem/writes"
	MetricRefreshes       = "mem/refreshes"
	MetricLeafPTReads     = "mem/leaf_pt_reads"
	MetricTempoTriggers   = "mem/tempo_triggers"
	MetricTempoPrefetches = "mem/tempo_prefetches"
	MetricTempoSuppressed = "mem/tempo_suppressed"
	MetricTempoLLCFills   = "mem/tempo_llc_fills"
	MetricDRAMRefsPTW     = "mem/dram_refs/ptw"
	MetricDRAMRefsReplay  = "mem/dram_refs/replay"
	MetricDRAMRefsOther   = "mem/dram_refs/other"
	MetricDRAMRefsPf      = "mem/dram_refs/prefetch"
	MetricTempoUseful     = "sys/tempo_useful"
	MetricIMPPrefetches   = "sys/imp_prefetches"
	MetricIMPUseful       = "sys/imp_useful"
	MetricIMPWalks        = "sys/imp_walks"
	MetricTLBHits         = "sys/tlb_hits"
	MetricTLBMisses       = "sys/tlb_misses"
	MetricWalksStarted    = "sys/walks_started"
	MetricWalkDRAM        = "sys/walk_dram_touched"
	MetricWalkDRAMReplay  = "sys/walk_dram_then_replay"
	MetricMemRefs         = "sys/mem_refs"
	MetricInstructions    = "sys/instructions"
)

// Canonical registry names for the per-core CPI stack (OBSERVABILITY.md
// "CPI stacks"). The cpi/* bucket metrics are summed across cores;
// cpi/cycles is the matching denominator (per-core cycles summed, where
// sys-level Cycles would take the max), so the
// cpi-stack-sums-to-cycles law holds on merged views too. The two
// credit metrics are event counts, not cycles: DRAM round trips a
// prefetch hid from a post-walk replay, and hardware walks a
// translation mechanism elided — each bounded by the TLB misses that
// could have triggered them. sys/replay_dram_cycles is the share of the
// three data-DRAM buckets that post-walk replays stalled on, the one
// split Figure 1 reads beside the buckets (stats.DRAMStallCycles).
const (
	MetricCPICompute          = "cpi/compute"
	MetricCPITLBL2            = "cpi/tlb_l2"
	MetricCPIWalkMMU          = "cpi/walk_mmu"
	MetricCPIWalkPTECache     = "cpi/walk_pte_cache"
	MetricCPIWalkPTEDRAM      = "cpi/walk_pte_dram"
	MetricCPIDataL1           = "cpi/data_l1"
	MetricCPIDataL2           = "cpi/data_l2"
	MetricCPIDataLLC          = "cpi/data_llc"
	MetricCPIDataDRAMQueue    = "cpi/data_dram_queue"
	MetricCPIDataDRAMService  = "cpi/data_dram_service"
	MetricCPIRowConflictExtra = "cpi/row_conflict_extra"
	MetricCPICycles           = "cpi/cycles"
	MetricCPIHiddenByPrefetch = "cpi/hidden_by_prefetch"
	MetricCPIMechElided       = "cpi/mech_elided"
	MetricReplayDRAMCycles    = "sys/replay_dram_cycles"
)

// CPIBucketMetrics maps each stats.CPIBucket to its registry name, in
// bucket order — the iteration the audit, the report tables and the
// Prometheus round-trip tests share.
var CPIBucketMetrics = [stats.NumCPIBuckets]string{
	stats.CPICompute:          MetricCPICompute,
	stats.CPITLBL2:            MetricCPITLBL2,
	stats.CPIWalkMMU:          MetricCPIWalkMMU,
	stats.CPIWalkPTECache:     MetricCPIWalkPTECache,
	stats.CPIWalkPTEDRAM:      MetricCPIWalkPTEDRAM,
	stats.CPIDataL1:           MetricCPIDataL1,
	stats.CPIDataL2:           MetricCPIDataL2,
	stats.CPIDataLLC:          MetricCPIDataLLC,
	stats.CPIDataDRAMQueue:    MetricCPIDataDRAMQueue,
	stats.CPIDataDRAMService:  MetricCPIDataDRAMService,
	stats.CPIRowConflictExtra: MetricCPIRowConflictExtra,
}

// Canonical registry names for the translation-mechanism zoo
// (internal/translation, MECHANISMS.md). Each rival mechanism reports
// its activity under "mech/<name>/...", and its counters obey their own
// conservation laws (a lookup ends in exactly one verdict, a verified
// prediction was made, and so on). TEMPO has no mech/* counters: its
// engine reports under mem/tempo_*. The name strings are owned here so
// the audit and the mechanisms cannot drift apart; the translation
// package re-exports them.
const (
	MetricMechVictimaLookups   = "mech/victima/lookups"
	MetricMechVictimaPTEHits   = "mech/victima/pte_hits"
	MetricMechVictimaPTEMisses = "mech/victima/pte_misses"
	MetricMechVictimaEvicted   = "mech/victima/line_evicted"
	MetricMechVictimaInserts   = "mech/victima/inserts"

	MetricMechRevelatorPredictions    = "mech/revelator/predictions"
	MetricMechRevelatorSpecPrefetches = "mech/revelator/spec_prefetches"
	MetricMechRevelatorSpecHits       = "mech/revelator/spec_hits"
	MetricMechRevelatorSpecMisses     = "mech/revelator/spec_misses"
	MetricMechRevelatorSpecUseful     = "mech/revelator/spec_useful"
)

// Canonical registry names for the job-serving subsystem
// (internal/service, SERVICE.md). "svc/jobs_*" metrics partition every
// accepted job record by lifecycle state — submitted is the monotonic
// total, queued/running are the live populations, and
// completed/failed/canceled are the terminal tallies — so Audit can
// check that no job is lost or double-counted. The rejection and
// dedup counters sit outside the conservation law: a rejected
// submission never becomes a job record, and a deduplicated one
// attaches to an existing record.
const (
	MetricSvcSubmitted     = "svc/jobs_submitted"
	MetricSvcQueued        = "svc/jobs_queued"
	MetricSvcRunning       = "svc/jobs_running"
	MetricSvcCompleted     = "svc/jobs_completed"
	MetricSvcFailed        = "svc/jobs_failed"
	MetricSvcCanceled      = "svc/jobs_canceled"
	MetricSvcCacheHits     = "svc/cache_hits"
	MetricSvcDedupHits     = "svc/dedup_hits"
	MetricSvcRejectedQuota = "svc/rejected/quota"
	MetricSvcRejectedQueue = "svc/rejected/backpressure"
)

// Canonical registry names for a runner pool's counts, the source
// tempo-bench -http and tempo-serve register ((*runner.Pool).CountersInto).
const (
	MetricBenchExecuted              = "bench/executed"
	MetricBenchCacheHits             = "bench/cache_hits"
	MetricBenchCacheMisses           = "bench/cache_misses"
	MetricBenchFailed                = "bench/failed"
	MetricBenchCacheSchemaMismatches = "bench/cache_schema_mismatches"
)

// emitStats emits every canonical metric of st. st should be a merged
// system view (Result.Total) so memory-side and per-core counters are
// both populated.
func emitStats(st *stats.Stats, emit func(name string, v uint64)) {
	for b, name := range CPIBucketMetrics {
		emit(name, st.CPIStack[b])
	}
	emit(MetricCPICycles, st.CPICycles)
	emit(MetricCPIHiddenByPrefetch, st.CPIHiddenByPrefetch)
	emit(MetricCPIMechElided, st.CPIMechElided)
	emit(MetricReplayDRAMCycles, st.ReplayDRAMCycles)
	emit(MetricReads, st.RdCount)
	emit(MetricWrites, st.WrCount)
	emit(MetricRefreshes, st.RefCount)
	emit(MetricLeafPTReads, st.DRAMPTWLeaf)
	emit(MetricTempoTriggers, st.TempoTriggers)
	emit(MetricTempoPrefetches, st.TempoPrefetches)
	emit(MetricTempoSuppressed, st.TempoSuppressed)
	emit(MetricTempoLLCFills, st.TempoLLCFills)
	emit(MetricDRAMRefsPTW, st.DRAMRefs[stats.DRAMPTW])
	emit(MetricDRAMRefsReplay, st.DRAMRefs[stats.DRAMReplay])
	emit(MetricDRAMRefsOther, st.DRAMRefs[stats.DRAMOther])
	emit(MetricDRAMRefsPf, st.DRAMRefs[stats.DRAMPrefetch])
	emit(MetricTempoUseful, st.TempoUseful)
	emit(MetricIMPPrefetches, st.IMPPrefetches)
	emit(MetricIMPUseful, st.IMPUseful)
	emit(MetricIMPWalks, st.IMPWalks)
	emit(MetricTLBHits, st.TLBHits)
	emit(MetricTLBMisses, st.TLBMisses)
	emit(MetricWalksStarted, st.WalksStarted)
	emit(MetricWalkDRAM, st.WalkDRAMTouched)
	emit(MetricWalkDRAMReplay, st.WalkDRAMThenReplayDRAM)
	emit(MetricMemRefs, st.MemRefs)
	emit(MetricInstructions, st.Instructions)
}

// StatsSnapshot builds a registry Snapshot from end-of-run stats
// totals, under the same canonical names StatsSource emits live. It
// lets offline tooling (tempo-report) run Audit against cached results
// exactly as the introspection server runs it against a live registry.
func StatsSnapshot(st *stats.Stats) Snapshot {
	s := Snapshot{Counters: map[string]uint64{}, Hists: map[string]HistSnapshot{}}
	if st != nil {
		emitStats(st, func(name string, v uint64) { s.Counters[name] = v })
	}
	return s
}

// StatsSource returns a registry Source over a merged system view:
// each snapshot calls read once and emits every canonical metric of
// what it returns, so a live snapshot satisfies the same Audit laws as
// an end-of-run StatsSnapshot. read must be safe to call whenever
// Snapshot is (the simulator snapshots on its own thread at interval
// boundaries).
func StatsSource(read func() stats.Stats) func(emit func(name string, v uint64)) {
	return func(emit func(name string, v uint64)) {
		st := read()
		emitStats(&st, emit)
	}
}

// AuditViolation is one failed conservation check.
type AuditViolation struct {
	// Check names the invariant ("tempo-trigger-conservation").
	Check string
	// Detail states the observed counter values.
	Detail string
}

// String implements fmt.Stringer.
func (v AuditViolation) String() string { return v.Check + ": " + v.Detail }

// Audit evaluates cross-subsystem counter conservation laws against a
// snapshot and returns every violated invariant (nil when all hold).
// The checks encode how the TEMPO request lifecycle chains subsystems
// together:
//
//   - every page walk is started by a demand TLB miss or an IMP
//     background translation, so walks ≤ misses + IMP walks;
//   - walks that touched DRAM, and walks whose replay then also went
//     to DRAM, are successively smaller subsets;
//   - the engine examines exactly the leaf-PTE reads DRAM serves, and
//     each examination either issues a prefetch or suppresses one, so
//     triggers = prefetches + suppressed and (TEMPO on) triggers =
//     leaf reads;
//   - a prefetch is filled into the LLC at most once and is useful at
//     most once, and only filled lines can be useful;
//   - prefetch DRAM references cannot exceed issued prefetches, and
//     DRAM read commands are conserved across the reference
//     categories;
//   - accepted service jobs are conserved across lifecycle states
//     (submitted = queued + running + completed + failed + canceled),
//     and cache-served completions are a subset of completions;
//   - every core cycle was charged to exactly one CPI-stack bucket, so
//     the cpi/* buckets sum to cpi/cycles, and the hidden-by-prefetch /
//     mech-elided credits cannot exceed the TLB misses that could have
//     produced them;
//   - the cycles post-walk replays stalled on DRAM are a share of the
//     demand-data DRAM buckets, so Figure 1's other-miss share (the
//     buckets less the replays') cannot wrap.
//
// A check whose operands are absent from the snapshot is skipped, so
// Audit accepts partial snapshots (an interval delta, a registry with
// only some subsystems attached). Snapshots must be quiescent —
// end-of-run totals or an interval boundary — because in-flight
// requests make paired counters momentarily unequal.
func Audit(s Snapshot) []AuditViolation {
	var out []AuditViolation
	get := func(name string) (uint64, bool) {
		v, ok := s.Counters[name]
		return v, ok
	}
	fail := func(check, format string, args ...any) {
		out = append(out, AuditViolation{Check: check, Detail: fmt.Sprintf(format, args...)})
	}

	if walks, ok := get(MetricWalksStarted); ok {
		// Demand walks are started by TLB misses; IMP additionally
		// performs background walks to translate prefetch targets, which
		// it counts separately.
		if misses, ok := get(MetricTLBMisses); ok {
			impWalks, _ := get(MetricIMPWalks)
			if walks > misses+impWalks {
				fail("walks-need-tlb-misses",
					"%d walks started but only %d TLB misses + %d IMP background walks",
					walks, misses, impWalks)
			}
		}
		if touched, ok := get(MetricWalkDRAM); ok && touched > walks {
			fail("walk-dram-subset",
				"%d walks touched DRAM out of %d started", touched, walks)
		}
	}
	if touched, ok := get(MetricWalkDRAM); ok {
		if replay, ok := get(MetricWalkDRAMReplay); ok && replay > touched {
			fail("replay-chain-subset",
				"%d walk→replay DRAM chains out of %d DRAM-touching walks", replay, touched)
		}
	}

	triggers, hasTriggers := get(MetricTempoTriggers)
	prefetches, hasPrefetches := get(MetricTempoPrefetches)
	if hasTriggers && hasPrefetches {
		if suppressed, ok := get(MetricTempoSuppressed); ok && triggers != prefetches+suppressed {
			fail("tempo-trigger-conservation",
				"%d triggers != %d prefetches + %d suppressed", triggers, prefetches, suppressed)
		}
		// With TEMPO off the engine never runs, so leaf reads outnumber
		// the zero triggers legitimately; with it on, every DRAM-served
		// leaf PTE is a trigger opportunity.
		if leaf, ok := get(MetricLeafPTReads); ok && triggers > 0 && leaf != triggers {
			fail("leaf-reads-are-trigger-opportunities",
				"%d leaf-PTE DRAM reads but %d TEMPO triggers", leaf, triggers)
		}
	}
	if hasPrefetches {
		fills, hasFills := get(MetricTempoLLCFills)
		if hasFills && fills > prefetches {
			fail("prefetch-fill-conservation",
				"%d LLC fills from %d prefetches issued (drops cannot be negative)", fills, prefetches)
		}
		if useful, ok := get(MetricTempoUseful); ok && hasFills && useful > fills {
			fail("useful-needs-fill",
				"%d useful prefetches but only %d LLC fills", useful, fills)
		}
		if pfRefs, ok := get(MetricDRAMRefsPf); ok {
			imp, _ := get(MetricIMPPrefetches)
			spec, _ := get(MetricMechRevelatorSpecPrefetches)
			if pfRefs > prefetches+imp+spec {
				fail("prefetch-dram-subset",
					"%d prefetch DRAM references from %d TEMPO + %d IMP + %d speculative prefetches issued",
					pfRefs, prefetches, imp, spec)
			}
		}
	}

	// Translation-mechanism zoo (mech/* — present only on rival
	// mechanism runs, so every law here self-skips elsewhere).
	if lookups, ok := get(MetricMechVictimaLookups); ok {
		hits, ok1 := get(MetricMechVictimaPTEHits)
		misses, ok2 := get(MetricMechVictimaPTEMisses)
		// Every tag-store probe ends in exactly one verdict (evictions
		// happen mid-probe and are counted separately).
		if ok1 && ok2 && hits+misses != lookups {
			fail("victima-lookup-partition",
				"%d PTE hits + %d PTE misses != %d lookups", hits, misses, lookups)
		}
		if tlbMisses, ok := get(MetricTLBMisses); ok && lookups > tlbMisses {
			fail("victima-lookups-need-tlb-misses",
				"%d victima lookups but only %d TLB misses", lookups, tlbMisses)
		}
		inserts, okIns := get(MetricMechVictimaInserts)
		if evicted, ok := get(MetricMechVictimaEvicted); ok && okIns && evicted > inserts {
			fail("victima-evicted-subset",
				"%d evicted-line drops from %d inserts", evicted, inserts)
		}
		if walks, ok := get(MetricWalksStarted); ok && okIns && inserts > walks {
			fail("victima-inserts-need-walks",
				"%d inserts but only %d walks started", inserts, walks)
		}
	}
	if preds, ok := get(MetricMechRevelatorPredictions); ok {
		hits, ok1 := get(MetricMechRevelatorSpecHits)
		misses, ok2 := get(MetricMechRevelatorSpecMisses)
		// Every prediction is verified by its walk (hit or refuted).
		if ok1 && ok2 && hits+misses != preds {
			fail("revelator-verdict-partition",
				"%d confirmed + %d refuted != %d predictions", hits, misses, preds)
		}
		spec, okSpec := get(MetricMechRevelatorSpecPrefetches)
		if okSpec && spec > preds {
			fail("revelator-prefetch-subset",
				"%d speculative prefetches from %d predictions", spec, preds)
		}
		if useful, ok := get(MetricMechRevelatorSpecUseful); ok && okSpec && useful > spec {
			fail("revelator-useful-needs-prefetch",
				"%d useful speculative lines but only %d prefetches issued", useful, spec)
		}
		if tlbMisses, ok := get(MetricTLBMisses); ok && preds > tlbMisses {
			fail("revelator-predictions-need-tlb-misses",
				"%d predictions but only %d TLB misses", preds, tlbMisses)
		}
	}
	if submitted, ok := get(MetricSvcSubmitted); ok {
		queued, ok1 := get(MetricSvcQueued)
		running, ok2 := get(MetricSvcRunning)
		completed, ok3 := get(MetricSvcCompleted)
		failedN, ok4 := get(MetricSvcFailed)
		canceled, ok5 := get(MetricSvcCanceled)
		// Every accepted job record is in exactly one lifecycle state,
		// so the states partition the submissions. Holds at any
		// quiescent point (state transitions happen under the
		// coordinator's lock).
		if ok1 && ok2 && ok3 && ok4 && ok5 &&
			submitted != queued+running+completed+failedN+canceled {
			fail("service-job-conservation",
				"%d jobs submitted != %d queued + %d running + %d completed + %d failed + %d canceled",
				submitted, queued, running, completed, failedN, canceled)
		}
		if hits, ok := get(MetricSvcCacheHits); ok && ok3 && hits > completed {
			fail("service-cache-hits-subset",
				"%d cache-served jobs out of %d completed", hits, completed)
		}
	}

	// CPI stack conservation: every attributed cycle went somewhere, and
	// the buckets sum back to the clock. cpi/cycles == 0 marks an
	// unattributed result (a legacy cache entry or a zeroed snapshot),
	// which self-skips like any absent operand.
	if cycles, ok := get(MetricCPICycles); ok && cycles > 0 {
		var sum uint64
		complete := true
		for _, name := range CPIBucketMetrics {
			v, ok := get(name)
			if !ok {
				complete = false
				break
			}
			sum += v
		}
		if complete && sum != cycles {
			fail("cpi-stack-sums-to-cycles",
				"%d attributed cycles across %d buckets != %d core cycles (diff %+d)",
				sum, len(CPIBucketMetrics), cycles, int64(sum)-int64(cycles))
		}
	}
	if replay, ok := get(MetricReplayDRAMCycles); ok {
		queue, ok1 := get(MetricCPIDataDRAMQueue)
		service, ok2 := get(MetricCPIDataDRAMService)
		conflict, ok3 := get(MetricCPIRowConflictExtra)
		if ok1 && ok2 && ok3 && replay > queue+service+conflict {
			fail("replay-dram-within-data-dram",
				"%d replay DRAM stall cycles exceed %d data-DRAM cycles (%d queue + %d service + %d row-conflict)",
				replay, queue+service+conflict, queue, service, conflict)
		}
	}
	if tlbMisses, ok := get(MetricTLBMisses); ok {
		// Each credit event stems from a TLB miss: a hidden replay
		// required a walk (hence a miss), and an elided walk is a miss the
		// mechanism absorbed.
		if hidden, ok := get(MetricCPIHiddenByPrefetch); ok && hidden > tlbMisses {
			fail("cpi-hidden-by-prefetch-bound",
				"%d prefetch-hidden replays but only %d TLB misses", hidden, tlbMisses)
		}
		if elided, ok := get(MetricCPIMechElided); ok && elided > tlbMisses {
			fail("cpi-mech-elided-bound",
				"%d mechanism-elided walks but only %d TLB misses", elided, tlbMisses)
		}
	}

	if reads, ok := get(MetricReads); ok {
		ptw, ok1 := get(MetricDRAMRefsPTW)
		rep, ok2 := get(MetricDRAMRefsReplay)
		oth, ok3 := get(MetricDRAMRefsOther)
		pf, ok4 := get(MetricDRAMRefsPf)
		if ok1 && ok2 && ok3 && ok4 && reads != ptw+rep+oth+pf {
			fail("dram-read-conservation",
				"%d DRAM read commands != %d PTW + %d replay + %d other + %d prefetch references",
				reads, ptw, rep, oth, pf)
		}
	}
	return out
}
