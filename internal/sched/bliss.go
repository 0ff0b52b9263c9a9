package sched

import (
	"repro/internal/dram"
)

// BLISS is the blacklisting memory scheduler: applications that issue
// long streaks of consecutive requests are classified as
// interference-causing and blacklisted; non-blacklisted applications
// get priority. The blacklist clears periodically.
//
// The TEMPO extensions (Section 4.3, "Scheduling for fairness"):
//
//   - TEMPO prefetches increment the streak counter with a reduced
//     weight (half a demand reference by default — the paper's best
//     setting, swept in Figure 16 left);
//   - a prefetch is scheduled immediately after its triggering
//     page-table access, before switching applications;
//   - after a prefetch, the scheduler stays with the same
//     application's stream for a grace period (15 cycles best,
//     Figure 16 right) so the prefetched row is consumed.
type BLISS struct {
	// Threshold is the streak value at which an application is
	// blacklisted. The papers use 4 consecutive requests; with demand
	// weight 2 that is a threshold of 8.
	Threshold int
	// ClearInterval is the blacklist-clearing period in cycles.
	ClearInterval uint64
	// DemandWeight and PrefetchWeight are the streak increments for
	// demand and TEMPO-prefetch requests.
	DemandWeight, PrefetchWeight int
	// TempoAware enables prefetch bonding and grace periods.
	TempoAware bool
	// GracePeriod is the post-prefetch stream-stickiness in cycles.
	GracePeriod uint64

	blacklisted map[int]bool
	streakCore  int
	streak      int
	lastClear   uint64

	// Bonding and grace state.
	lastPT     *dram.Request
	graceCore  int
	graceUntil uint64
}

// NewBLISS returns the baseline blacklisting scheduler.
func NewBLISS() *BLISS {
	return &BLISS{
		Threshold:      8,
		ClearInterval:  10_000,
		DemandWeight:   2,
		PrefetchWeight: 2,
		blacklisted:    make(map[int]bool),
		streakCore:     -1,
		graceCore:      -1,
	}
}

// NewTempoBLISS returns BLISS with the paper's TEMPO integration:
// half-weight prefetch counting and a 15-cycle grace period.
func NewTempoBLISS() *BLISS {
	b := NewBLISS()
	b.TempoAware = true
	b.PrefetchWeight = 1
	b.GracePeriod = 15
	return b
}

// Pick implements dram.Scheduler.
func (b *BLISS) Pick(q []*dram.Request, now, cutoff uint64, rows dram.RowPeeker) int {
	b.maybeClear(now)
	grace := b.TempoAware && now < b.graceUntil
	best, bestScore := 0, -1
	for i, r := range q {
		if r.Enqueue > cutoff {
			continue
		}
		score := 0
		if !b.blacklisted[r.CoreID] {
			score += 4
		}
		if rows != nil && rows.WouldRowHitReq(r) {
			score += 2
		}
		// Bonding: the prefetch paired with the PT access just served
		// goes ahead of stream switches among equally-ranked requests
		// (but never ahead of row hits).
		if b.TempoAware && b.lastPT != nil && r.Prefetch && r.PairedWith == b.lastPT {
			score++
		}
		// Grace: mild stickiness to the stream that just prefetched.
		if grace && r.CoreID == b.graceCore {
			score++
		}
		if score > bestScore || (score == bestScore && r.Enqueue < q[best].Enqueue) {
			best, bestScore = i, score
		}
	}
	if b.TempoAware && q[best].Prefetch && q[best].PairedWith == b.lastPT {
		b.lastPT = nil
	}
	return best
}

// OnServed implements dram.Scheduler: streak accounting, blacklisting,
// bonding and grace-period bookkeeping.
func (b *BLISS) OnServed(r *dram.Request, now uint64) {
	b.maybeClear(now)
	inc := b.DemandWeight
	if r.Prefetch {
		inc = b.PrefetchWeight
	}
	if r.CoreID == b.streakCore {
		b.streak += inc
	} else {
		b.streakCore = r.CoreID
		b.streak = inc
	}
	if b.streak >= b.Threshold {
		b.blacklisted[r.CoreID] = true
	}
	if !b.TempoAware {
		return
	}
	if r.IsLeafPT {
		// The controller enqueues the paired prefetch right after
		// this callback; remember the PT request so Pick can bond.
		b.lastPT = r
		b.graceCore = r.CoreID
	}
	if r.Prefetch {
		b.graceCore = r.CoreID
		b.graceUntil = now + b.GracePeriod
	}
}

// Blacklisted exposes the current blacklist (for tests and stats).
func (b *BLISS) Blacklisted(core int) bool { return b.blacklisted[core] }

func (b *BLISS) maybeClear(now uint64) {
	if now-b.lastClear >= b.ClearInterval {
		b.lastClear = now
		clear(b.blacklisted)
		b.streak = 0
		b.streakCore = -1
	}
}
