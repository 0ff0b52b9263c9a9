// Package sched implements the memory schedulers the paper evaluates
// TEMPO under: FR-FCFS (Rixner et al. [43]) and the BLISS blacklisting
// scheduler (Subramanian et al. [23, 24]), each with the TEMPO-aware
// extensions of Section 4.3 — page-table accesses grouped by row,
// prefetches bonded to their triggering PT access, and row-buffer
// grace periods.
package sched

import (
	"repro/internal/dram"
)

// FRFCFS is the classic first-ready, first-come-first-serve scheduler:
// row-buffer hits win, ties break by age, and a starvation cap keeps
// very old requests from waiting forever.
//
// With TempoAware set it adds the paper's transaction-queue policy:
// leaf page-table accesses are critical-path and scheduled first
// (grouped so same-row PT accesses go back to back), then prefetches
// that would row-hit, then everything else FR-FCFS.
type FRFCFS struct {
	TempoAware bool
	// AgeCap promotes any request older than this many cycles to the
	// highest priority (starvation guard). Zero means 1500 — the value
	// the golden fixtures (sim.TestSchedulerEquivalenceGolden and the
	// checked-in figure outputs) were captured with; changing it
	// reorders serves and shifts every downstream counter.
	AgeCap uint64
}

// NewFRFCFS returns the baseline scheduler.
func NewFRFCFS() *FRFCFS { return &FRFCFS{} }

// NewTempoFRFCFS returns the TEMPO-aware variant.
func NewTempoFRFCFS() *FRFCFS { return &FRFCFS{TempoAware: true} }

func (s *FRFCFS) ageCap() uint64 {
	if s.AgeCap == 0 {
		return 1500
	}
	return s.AgeCap
}

// Pick implements dram.Scheduler. A lone request is picked without
// scoring it, since scoring only refreshes row-hit memos.
func (s *FRFCFS) Pick(q []*dram.Request, now, cutoff uint64, rows dram.RowPeeker) int {
	if len(q) == 1 {
		return 0
	}
	best, bestScore := 0, -1
	for i, r := range q {
		if r.Enqueue > cutoff {
			continue
		}
		score := s.score(r, now, rows)
		if score > bestScore || (score == bestScore && r.Enqueue < q[best].Enqueue) {
			best, bestScore = i, score
		}
	}
	return best
}

func (s *FRFCFS) score(r *dram.Request, now uint64, rows dram.RowPeeker) int {
	if now > r.Enqueue && now-r.Enqueue > s.ageCap() {
		return 100 // starvation guard
	}
	hit := rows != nil && rows.WouldRowHitReq(r)
	if s.TempoAware {
		// Row hits still rule (reordering for locality, not class
		// starvation); within them, leaf-PT accesses group first and
		// prefetches ride along — Section 4.3's transaction-queue
		// policy. Cold requests stay in pure age order so demands are
		// never starved behind translation traffic.
		switch {
		case r.IsLeafPT && hit:
			return 5
		case r.Prefetch && hit:
			return 4
		case hit:
			return 3
		default:
			return 2
		}
	}
	if hit {
		return 3
	}
	return 2
}

// OnServed implements dram.Scheduler.
func (s *FRFCFS) OnServed(*dram.Request, uint64) {}
