package dram

// This file keeps, as refBank and refOpenPredictor, the bank and the
// adaptive row predictor that the row-deadline Bank and the packed
// openPredictor replaced: a lazily probed window mirror, an isOpen that
// re-derives the policy on every check, Peek for outcome-at-cycle
// queries, and a predictor on assoc.Assoc keyed by (bank id, row). The
// code below the imports is that implementation verbatim apart from the
// renamed identifiers. bank_diff_test.go drives both and requires
// identical answers, counters and bank versions.

import (
	"math"

	"repro/internal/assoc"
	"repro/internal/stats"
)

// refOpenPredictor implements the prediction-cache-based adaptive row
// policy of Awasthi et al. [17]: a 2048-set 4-way cache keyed by
// (bank, row) predicting how long the row should stay open after its
// last access. Rows that suffer conflicts have their windows shrunk;
// rows that are re-opened shortly after an early close have them grown.
type refOpenPredictor struct {
	cache *assoc.Assoc[uint64]
	init  uint64
	min   uint64
	max   uint64
}

func newRefOpenPredictor() *refOpenPredictor {
	return &refOpenPredictor{
		cache: assoc.New[uint64](2048, 4),
		init:  200,
		min:   25,
		max:   3200,
	}
}

func (p *refOpenPredictor) window(key uint64) uint64 {
	if w, ok := p.cache.Peek(key); ok {
		return w
	}
	return p.init
}

// conflicted: the row was still open when another row was wanted —
// we kept it open too long. Returns the key's new window plus the key
// the insertion evicted from the prediction cache, so the bank can
// push both changes into any sub-row memoizing them.
func (p *refOpenPredictor) conflicted(key uint64) (win, evicted uint64, evictedOK bool) {
	w := p.window(key) / 2
	if w < p.min {
		w = p.min
	}
	ev, ok := p.cache.InsertEvict(key, w)
	return w, ev, ok
}

// reopened: the same row was wanted again after the window expired —
// we closed too early.
func (p *refOpenPredictor) reopened(key uint64) (win, evicted uint64, evictedOK bool) {
	w := p.window(key) * 2
	if w > p.max {
		w = p.max
	}
	ev, ok := p.cache.InsertEvict(key, w)
	return w, ev, ok
}

// refSubRow is one (sub-)row buffer: it holds a RowBytes/SubRows segment
// of one row. With SubRows == 1 it is the classic whole-row buffer.
type refSubRow struct {
	valid bool
	row   uint64
	seg   int
	// lastTouch is the completion cycle of the most recent access;
	// the policy window runs from here.
	lastTouch uint64
	// pinnedUntil keeps the row open regardless of policy until the
	// given cycle (TEMPO's PT-row wait and BLISS grace periods).
	pinnedUntil uint64
	lru         uint64
	// win mirrors the adaptive predictor's window for row: 0 (the
	// install default — real windows are clamped to at least 25) means
	// not probed yet. The first policy check that needs it probes the
	// prediction cache once, and the bank pushes every later predictor
	// change (update or eviction) into it, so repeated row-policy
	// checks never touch the prediction cache. Rows that never survive
	// to a policy check never pay the probe at all.
	win uint64
}

// refBank models one DRAM bank: timing state plus its (sub-)row buffers.
type refBank struct {
	geo    Geometry
	timing Timing
	policy RowPolicy
	pred   *refOpenPredictor // non-nil only for PolicyAdaptive
	id     int               // global bank id, part of predictor keys

	readyAt uint64
	tick    uint64
	subs    []refSubRow

	// version counts mutations of the bank's observable row state
	// (Access, Refresh, effective Pin). Cached WouldHit answers —
	// Request.hitVersion/wouldHit — are valid exactly while the version
	// is unchanged: between mutations ReadyAt is constant, so
	// WouldHit(row, seg, ReadyAt()) is a pure function of (row, seg).
	// Versions start at 1 so a zeroed request never matches.
	version uint64
}

// newRefBank builds a bank with the geometry's sub-row organisation.
func newRefBank(id int, geo Geometry, timing Timing, policy RowPolicy) *refBank {
	n := geo.SubRows
	if n < 1 {
		n = 1
	}
	b := &refBank{geo: geo, timing: timing, policy: policy, id: id, subs: make([]refSubRow, n), version: 1}
	if policy == PolicyAdaptive {
		b.pred = newRefOpenPredictor()
	}
	return b
}

func (b *refBank) predKey(row uint64) uint64 {
	return uint64(b.id)<<40 ^ row
}

// isOpen reports whether sub-row s still holds live contents at cycle
// now under the bank's policy.
func (b *refBank) isOpen(s *refSubRow, now uint64) bool {
	if !s.valid {
		return false
	}
	if now <= s.pinnedUntil {
		return true
	}
	if b.policy == PolicyClosed {
		// Auto-precharge at completion: the row is never observably
		// open past an unpinned access.
		return false
	}
	if now < s.lastTouch {
		// Queried before the latching access completes: the row will
		// be open the moment it can next be observed.
		return true
	}
	var window uint64
	switch b.policy {
	case PolicyOpen:
		window = math.MaxUint64 - s.lastTouch // effectively forever
	case PolicyClosed:
		window = 0
	case PolicyAdaptive:
		if s.win == 0 {
			s.win = b.pred.window(b.predKey(s.row))
		}
		window = s.win
	}
	return now-s.lastTouch <= window
}

// WouldHit reports whether an access to (row, seg) at cycle now would
// be a row-buffer hit, without changing state.
func (b *refBank) WouldHit(row uint64, seg int, now uint64) bool {
	for i := range b.subs {
		s := &b.subs[i]
		if s.row == row && s.seg == seg && b.isOpen(s, now) {
			return true
		}
	}
	return false
}

// ReadyAt returns the earliest cycle the bank can issue a new access.
func (b *refBank) ReadyAt() uint64 { return b.readyAt }

// Peek computes the outcome and service latency an access to
// (row, seg) would see if issued at the given cycle, without mutating
// any state. The controller uses it to place the data burst on the
// channel bus before committing the access.
func (b *refBank) Peek(row uint64, seg int, issue uint64) (stats.RowOutcome, uint64) {
	for i := range b.subs {
		s := &b.subs[i]
		if s.row == row && s.seg == seg && b.isOpen(s, issue) {
			return stats.RowHit, b.timing.HitLatency()
		}
	}
	victim := b.chooseVictim(nil)
	if b.isOpen(&b.subs[victim], issue) {
		return stats.RowConflict, b.timing.ConflictLatency()
	}
	return stats.RowMiss, b.timing.MissLatency()
}

// Access performs one access to (row, seg) issued at cycle issue (the
// caller guarantees issue >= ReadyAt()). allowed is the set of sub-row
// indices this request may allocate on a fill (nil means all). It
// returns the row-buffer outcome and the completion cycle, and updates
// bank state, the adaptive predictor and the ACT/PRE counters in st.
func (b *refBank) Access(row uint64, seg int, issue uint64, allowed []int, st *stats.Stats) (stats.RowOutcome, uint64) {
	b.tick++
	b.version++
	// Serving sub-row already holding the segment?
	for i := range b.subs {
		s := &b.subs[i]
		if s.row == row && s.seg == seg && b.isOpen(s, issue) {
			lat := b.timing.HitLatency()
			s.lastTouch = issue + lat
			s.lru = b.tick
			b.readyAt = issue + lat
			return stats.RowHit, issue + lat
		}
	}
	// Choose a victim sub-row among the allowed set (LRU).
	victim := b.chooseVictim(allowed)
	s := &b.subs[victim]
	outcome := stats.RowMiss
	if b.isOpen(s, issue) {
		outcome = stats.RowConflict
		if b.pred != nil {
			k := b.predKey(s.row)
			w, ev, ok := b.pred.conflicted(k)
			b.predPush(k, w, ev, ok)
		}
		st.PreCount++
	} else if s.valid {
		// The victim was closed by the policy in the background; its
		// precharge happened off the critical path.
		st.PreCount++
		if s.row == row && s.seg == seg && b.pred != nil {
			// Same row wanted again after an early close: grow window.
			k := b.predKey(row)
			w, ev, ok := b.pred.reopened(k)
			b.predPush(k, w, ev, ok)
		}
	}
	var lat uint64
	if outcome == stats.RowConflict {
		lat = b.timing.ConflictLatency()
	} else {
		lat = b.timing.MissLatency()
	}
	st.ActCount++
	done := issue + lat
	*s = refSubRow{valid: true, row: row, seg: seg, lastTouch: done, lru: b.tick}
	b.readyAt = done
	return outcome, done
}

// predPush propagates one prediction-cache insertion into the sub-row
// window mirrors: sub-rows latching the inserted key's row take its
// new window, and sub-rows whose key was evicted by the insertion fall
// back to the default window — exactly what a fresh probe would now
// return for them.
func (b *refBank) predPush(key, win, evicted uint64, evictedOK bool) {
	for i := range b.subs {
		s := &b.subs[i]
		if !s.valid {
			continue
		}
		k := b.predKey(s.row)
		if k == key {
			s.win = win
		} else if evictedOK && k == evicted {
			s.win = b.pred.init
		}
	}
}

// Refresh models an all-bank auto-refresh starting at the given cycle:
// every (sub-)row buffer is precharged — pins notwithstanding, the
// cells must be refreshed — and the bank is busy for trfc cycles.
func (b *refBank) Refresh(start, trfc uint64, st *stats.Stats) {
	b.version++
	for i := range b.subs {
		if b.subs[i].valid {
			st.PreCount++
		}
		b.subs[i] = refSubRow{}
	}
	if end := start + trfc; end > b.readyAt {
		b.readyAt = end
	}
}

// Pin keeps the sub-row holding (row, seg) open until the given cycle.
// It only acts while the contents are still live: either the latching
// access completed at or after now, or an earlier pin is still in
// force. TEMPO uses this to override the row policy for the PT-row
// wait window and for the BLISS grace period after a prefetch — the
// controller decides at completion time to defer the precharge.
func (b *refBank) Pin(row uint64, seg int, now, until uint64) {
	for i := range b.subs {
		s := &b.subs[i]
		if s.valid && s.row == row && s.seg == seg &&
			(now <= s.lastTouch || now <= s.pinnedUntil || b.isOpen(s, now)) {
			if until > s.pinnedUntil {
				s.pinnedUntil = until
				b.version++
			}
			return
		}
	}
}

func (b *refBank) chooseVictim(allowed []int) int {
	if len(allowed) == 0 {
		best := 0
		for i := range b.subs {
			if !b.subs[i].valid {
				return i
			}
			if b.subs[i].lru < b.subs[best].lru {
				best = i
			}
		}
		return best
	}
	best := allowed[0]
	for _, i := range allowed {
		if i < 0 || i >= len(b.subs) {
			continue
		}
		if !b.subs[i].valid {
			return i
		}
		if b.subs[i].lru < b.subs[best].lru {
			best = i
		}
	}
	return best
}
