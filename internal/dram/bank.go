package dram

import (
	"math"

	"repro/internal/assoc"
	"repro/internal/stats"
)

// The adaptive policy's prediction cache: predSets sets of predWays
// rows per bank. A row's window starts at predInit cycles, halves on a
// conflict and doubles on an early close, within [predMin, predMax].
const (
	predSetBits = 11
	predSets    = 1 << predSetBits
	predWays    = 4

	predInit = 200
	predMin  = 25
	predMax  = 3200
)

// predStart is a fresh set's recency order. Sets store their order
// XOR predStart, so zeroed memory is a set of empty ways.
var predStart = assoc.NewStacks(1, predWays)[0]

// predSet is one prediction-cache set in 28 bytes: a row's set is its
// low predSetBits bits and its tag the rest, which is exact for rows
// below 2^43 — far above any row vm.MaxPhysFrames can address.
type predSet struct {
	tags  [predWays]uint32
	wins  [predWays]uint16 // at most predMax
	order uint16           // assoc.Stack image XOR predStart
	n     uint8            // ways fill in index order and never empty
}

// openPredictor implements the prediction-cache-based adaptive row
// policy of Awasthi et al. [17]: a bank's 2048-set 4-way cache keyed
// by row predicting how long the row should stay open after its last
// access. Rows that suffer conflicts have their windows shrunk; rows
// that are re-opened shortly after an early close have them grown.
type openPredictor [predSets]predSet

// find returns row's set and tag, and the way holding row or -1.
func (p *openPredictor) find(row uint64) (s *predSet, tag uint32, way int) {
	s, tag = &p[row&(predSets-1)], uint32(row>>predSetBits)
	for w := 0; w < int(s.n); w++ {
		if s.tags[w] == tag {
			return s, tag, w
		}
	}
	return s, tag, -1
}

// window returns row's predicted window without touching recency.
func (p *openPredictor) window(row uint64) uint64 {
	if s, _, w := p.find(row); w >= 0 {
		return uint64(s.wins[w])
	}
	return predInit
}

// set installs row's window into its way, else the set's next empty
// way, else its LRU way, and reports the row it evicted, if any.
func (p *openPredictor) set(row, win uint64) (evicted uint64, ok bool) {
	s, tag, w := p.find(row)
	if w < 0 {
		if s.n < predWays {
			w = int(s.n)
			s.n++
		} else {
			w = (assoc.Stack(s.order) ^ predStart).LRU(predWays)
			evicted, ok = uint64(s.tags[w])<<predSetBits|row&(predSets-1), true
		}
		s.tags[w] = tag
	}
	s.wins[w] = uint16(win)
	s.order = uint16((assoc.Stack(s.order) ^ predStart).Touch(w) ^ predStart)
	return evicted, ok
}

// subRow is one (sub-)row buffer: it holds a RowBytes/SubRows segment
// of one row. With SubRows == 1 it is the classic whole-row buffer.
type subRow struct {
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
	// win is the adaptive predictor's window for row: probed when the
	// row is latched, then kept current by retune, which pushes every
	// predictor change (update or eviction) into the sub-rows it
	// concerns.
	win uint64
	// until is the last cycle the buffer is open (setUntil), so an
	// open check is one compare.
	until uint64
}

// open reports whether s holds live contents at cycle now.
func (s *subRow) open(now uint64) bool { return s.valid && now <= s.until }

// Bank models one DRAM bank: timing state plus its (sub-)row buffers.
type Bank struct {
	timing Timing
	policy RowPolicy
	pred   *openPredictor // non-nil only for PolicyAdaptive

	readyAt uint64
	tick    uint64
	subs    []subRow

	// version counts mutations of the bank's observable row state
	// (Access, Refresh, effective Pin). Cached WouldHit answers —
	// Request.hitVersion/wouldHit — are valid exactly while the version
	// is unchanged: between mutations ReadyAt is constant, so
	// WouldHit(row, seg, ReadyAt()) is a pure function of (row, seg).
	// Versions start at 1 so a zeroed request never matches.
	version uint64
}

// NewBank builds a bank with the geometry's sub-row organisation.
func NewBank(geo Geometry, timing Timing, policy RowPolicy) *Bank {
	n := geo.SubRows
	if n < 1 {
		n = 1
	}
	b := &Bank{timing: timing, policy: policy, subs: make([]subRow, n), version: 1}
	if policy == PolicyAdaptive {
		b.pred = new(openPredictor)
	}
	return b
}

// setUntil recomputes s.until after lastTouch, pinnedUntil or win
// changed: the later of the pin and the policy's deadline. A closed
// row precharges at completion, an open row stays open, and an
// adaptive row stays open win cycles past its last access.
func (b *Bank) setUntil(s *subRow) {
	s.until = s.pinnedUntil
	switch b.policy {
	case PolicyOpen:
		s.until = math.MaxUint64
	case PolicyAdaptive:
		end := s.lastTouch + s.win
		if end < s.lastTouch {
			end = math.MaxUint64
		}
		s.until = max(s.until, end)
	}
}

// WouldHit reports whether an access to (row, seg) at cycle now would
// be a row-buffer hit, without changing state.
func (b *Bank) WouldHit(row uint64, seg int, now uint64) bool {
	for i := range b.subs {
		if s := &b.subs[i]; s.row == row && s.seg == seg && s.open(now) {
			return true
		}
	}
	return false
}

// ReadyAt returns the earliest cycle the bank can issue a new access.
func (b *Bank) ReadyAt() uint64 { return b.readyAt }

// rowPlan is the outcome an access to one (row, seg) would see, as a
// function of its issue cycle, while the bank is untouched: a hit
// through hitUntil if a buffer holds the segment, else a conflict
// through victimUntil if the unrestricted LRU victim holds a row, else
// a miss.
type rowPlan struct {
	hit, conflict         bool
	hitUntil, victimUntil uint64
}

// plan computes (row, seg)'s rowPlan. The controller computes it once
// per serve to place the data burst on the channel bus before
// committing the access.
func (b *Bank) plan(row uint64, seg int) rowPlan {
	var p rowPlan
	for i := range b.subs {
		if s := &b.subs[i]; s.valid && s.row == row && s.seg == seg && (!p.hit || s.until > p.hitUntil) {
			p.hit, p.hitUntil = true, s.until
		}
	}
	if v := &b.subs[b.chooseVictim(nil)]; v.valid {
		p.conflict, p.victimUntil = true, v.until
	}
	return p
}

// outcome is the plan's outcome for an access issued at cycle issue.
func (p rowPlan) outcome(issue uint64) stats.RowOutcome {
	switch {
	case p.hit && issue <= p.hitUntil:
		return stats.RowHit
	case p.conflict && issue <= p.victimUntil:
		return stats.RowConflict
	}
	return stats.RowMiss
}

// Access performs one access to (row, seg) issued at cycle issue (the
// caller guarantees issue >= ReadyAt()). allowed is the set of sub-row
// indices this request may allocate on a fill (nil means all). It
// returns the row-buffer outcome and the completion cycle, and updates
// bank state, the adaptive predictor and the ACT/PRE counters in st.
func (b *Bank) Access(row uint64, seg int, issue uint64, allowed []int, st *stats.Stats) (stats.RowOutcome, uint64) {
	b.tick++
	b.version++
	// Serving sub-row already holding the segment?
	for i := range b.subs {
		s := &b.subs[i]
		if s.row == row && s.seg == seg && s.open(issue) {
			lat := b.timing.HitLatency()
			s.lastTouch = issue + lat
			s.lru = b.tick
			b.setUntil(s)
			b.readyAt = issue + lat
			return stats.RowHit, issue + lat
		}
	}
	// Choose a victim sub-row among the allowed set (LRU).
	victim := b.chooseVictim(allowed)
	s := &b.subs[victim]
	outcome := stats.RowMiss
	if s.open(issue) {
		outcome = stats.RowConflict
		if b.pred != nil {
			b.retune(s.row, false)
		}
		st.PreCount++
	} else if s.valid {
		// The victim was closed by the policy in the background; its
		// precharge happened off the critical path.
		st.PreCount++
		if s.row == row && s.seg == seg && b.pred != nil {
			// Same row wanted again after an early close: grow window.
			b.retune(row, true)
		}
	}
	st.ActCount++
	done := issue + b.timing.latency(outcome)
	*s = subRow{valid: true, row: row, seg: seg, lastTouch: done, lru: b.tick}
	if b.pred != nil {
		s.win = b.pred.window(row)
	}
	b.setUntil(s)
	b.readyAt = done
	return outcome, done
}

// retune halves row's predicted window after a conflict (it was kept
// open too long) or doubles it after an early close, and pushes the
// change into the sub-row windows: sub-rows latching row take its new
// window, and sub-rows latching the row the update evicted fall back
// to the default — exactly what a fresh probe would now return.
func (b *Bank) retune(row uint64, grow bool) {
	w := b.pred.window(row)
	if grow {
		w = min(2*w, predMax)
	} else {
		w = max(w/2, predMin)
	}
	evicted, evictedOK := b.pred.set(row, w)
	for i := range b.subs {
		s := &b.subs[i]
		if s.valid && s.row == row {
			s.win = w
			b.setUntil(s)
		} else if s.valid && evictedOK && s.row == evicted {
			s.win = predInit
			b.setUntil(s)
		}
	}
}

// Refresh models an all-bank auto-refresh starting at the given cycle:
// every (sub-)row buffer is precharged — pins notwithstanding, the
// cells must be refreshed — and the bank is busy for trfc cycles.
func (b *Bank) Refresh(start, trfc uint64, st *stats.Stats) {
	b.version++
	for i := range b.subs {
		if b.subs[i].valid {
			st.PreCount++
		}
		b.subs[i] = subRow{}
	}
	if end := start + trfc; end > b.readyAt {
		b.readyAt = end
	}
}

// Pin keeps the sub-row holding (row, seg) open until the given cycle.
// It only acts while the contents are still live: either the latching
// access completed at or after now, or the row is still open (a pin
// in force included). TEMPO uses this to override the row policy for
// the PT-row wait window and for the BLISS grace period after a
// prefetch — the controller decides at completion time to defer the
// precharge.
func (b *Bank) Pin(row uint64, seg int, now, until uint64) {
	for i := range b.subs {
		s := &b.subs[i]
		if s.valid && s.row == row && s.seg == seg && (now <= s.lastTouch || now <= s.until) {
			if until > s.pinnedUntil {
				s.pinnedUntil = until
				b.setUntil(s)
				b.version++
			}
			return
		}
	}
}

func (b *Bank) chooseVictim(allowed []int) int {
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
