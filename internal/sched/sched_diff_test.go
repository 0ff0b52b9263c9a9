package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/stats"
)

// A Pick with a drain cutoff over the whole queue must choose what the
// Pick before the cutoff contract chose over the queue filtered to the
// due requests. These tests drive a real controller — live bank
// mutation, adaptive row policy, refreshes, TEMPO request classes,
// ServeOne and DrainUpTo — with a differ scheduler that answers every
// Pick twice, once each way, and fails on the first divergence in the
// pick or the scheduler state.

// refPickFRFCFS and refPickBLISS are FRFCFS.Pick and BLISS.Pick as
// they were before Pick took a cutoff, verbatim apart from the
// receiver: the caller filtered the queue.
func refPickFRFCFS(s *FRFCFS, q []*dram.Request, now uint64, rows dram.RowPeeker) int {
	best, bestScore := 0, -1
	for i, r := range q {
		score := s.score(r, now, rows)
		if score > bestScore || (score == bestScore && r.Enqueue < q[best].Enqueue) {
			best, bestScore = i, score
		}
	}
	return best
}

func refPickBLISS(b *BLISS, q []*dram.Request, now uint64, rows dram.RowPeeker) int {
	b.maybeClear(now)
	grace := b.TempoAware && now < b.graceUntil
	best, bestScore := 0, -1
	for i, r := range q {
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

// differ runs two identically-configured schedulers side by side: the
// inner one picks with the cutoff over the whole queue; the reference
// one picks with the pre-cutoff code over the due requests. Both ask
// the controller's RowPeeker. Any state the schedulers carry (BLISS
// blacklists, streaks, bonding, grace) evolves under identical inputs
// as long as every decision matches, and is compared after every pick.
type differ struct {
	t     *testing.T
	name  string
	inner dram.Scheduler
	ref   dram.Scheduler
	picks int
	// filtered counts picks whose cutoff excluded a queued request.
	filtered int
	due      []*dram.Request
}

func (d *differ) Pick(q []*dram.Request, now, cutoff uint64, rows dram.RowPeeker) int {
	got := d.inner.Pick(q, now, cutoff, rows)
	d.due = d.due[:0]
	for _, r := range q {
		if r.Enqueue <= cutoff {
			d.due = append(d.due, r)
		}
	}
	if len(d.due) == 0 {
		d.t.Fatalf("%s: pick #%d asked with nothing due by %d", d.name, d.picks, cutoff)
	}
	if len(d.due) < len(q) {
		d.filtered++
	}
	var want int
	switch ref := d.ref.(type) {
	case *FRFCFS:
		want = refPickFRFCFS(ref, d.due, now, rows)
	case *BLISS:
		want = refPickBLISS(ref, d.due, now, rows)
	default:
		d.t.Fatalf("%s: no reference Pick for %T", d.name, d.ref)
	}
	if q[got] != d.due[want] {
		d.t.Fatalf("%s: pick #%d diverged: chose queue[%d] (enqueue %d), reference chose due[%d] (enqueue %d) (queue %d, due %d, now %d)",
			d.name, d.picks, got, q[got].Enqueue, want, d.due[want].Enqueue, len(q), len(d.due), now)
	}
	if !reflect.DeepEqual(d.inner, d.ref) {
		d.t.Fatalf("%s: pick #%d: scheduler state diverged:\n got %+v\nwant %+v", d.name, d.picks, d.inner, d.ref)
	}
	d.picks++
	return got
}

func (d *differ) OnServed(r *dram.Request, now uint64) {
	d.inner.OnServed(r, now)
	d.ref.OnServed(r, now)
	if !reflect.DeepEqual(d.inner, d.ref) {
		d.t.Fatalf("%s: scheduler state diverged after serving %+v", d.name, r)
	}
}

// driveDiff pushes randomized traffic through a controller owned by
// the differ. The address stream mixes fresh rows with recently-used
// ones so row hits, misses and conflicts all occur; bursts keep the
// queue deep enough that Pick has real choices; enqueue times advance
// past the refresh interval so banks are also invalidated wholesale.
func driveDiff(t *testing.T, name string, mk func() dram.Scheduler, seed int64) {
	d := &differ{t: t, name: name, inner: mk(), ref: mk()}
	st := &stats.Stats{}
	ctrl := dram.NewController(dram.DefaultConfig(), d, st)

	rng := rand.New(rand.NewSource(seed))
	var recentRows []mem.PAddr
	var lastLeafPT *dram.Request
	now := uint64(0)

	randAddr := func() mem.PAddr {
		if len(recentRows) > 0 && rng.Intn(100) < 45 {
			// Revisit a recent row (different column) — likely row hit.
			base := recentRows[rng.Intn(len(recentRows))]
			return base + mem.PAddr(rng.Intn(8<<10)&^63)
		}
		a := mem.PAddr(rng.Int63n(1<<32)) &^ 63
		recentRows = append(recentRows, a&^(8<<10-1))
		if len(recentRows) > 24 {
			recentRows = recentRows[1:]
		}
		return a
	}

	for round := 0; round < 400; round++ {
		burst := 1 + rng.Intn(8)
		for i := 0; i < burst; i++ {
			r := &dram.Request{
				Addr:    randAddr(),
				Write:   rng.Intn(4) == 0,
				CoreID:  rng.Intn(4),
				Enqueue: now + uint64(rng.Intn(40)),
			}
			switch rng.Intn(10) {
			case 0, 1:
				r.IsLeafPT = true
				lastLeafPT = r
			case 2:
				if lastLeafPT != nil {
					r.Prefetch = true
					r.PairedWith = lastLeafPT
					r.CoreID = lastLeafPT.CoreID
				}
			}
			ctrl.Submit(r)
		}
		// Drain a random fraction so queue depth varies between 1 and
		// ~20 and old requests can age past the starvation cap; or
		// drain up to a horizon inside the burst's enqueue spread, so
		// the cutoff leaves later requests queued.
		if rng.Intn(3) == 0 {
			ctrl.DrainUpTo(now + uint64(rng.Intn(40)))
		} else {
			for n := rng.Intn(burst + 2); n > 0 && ctrl.QueueLen() > 0; n-- {
				r := ctrl.ServeOne()
				if r.Complete > now {
					now = r.Complete
				}
			}
		}
		// Occasionally jump the clock so TREFI refreshes fire and the
		// age cap trips for whatever is still queued.
		if rng.Intn(20) == 0 {
			now += 2_000 + uint64(rng.Intn(30_000))
		}
	}
	for ctrl.QueueLen() > 0 {
		ctrl.ServeOne()
	}
	if d.picks == 0 || d.filtered == 0 {
		t.Fatalf("%s: differ saw %d picks, %d with a filtering cutoff", name, d.picks, d.filtered)
	}
}

func TestSchedulerIndexedPickDifferential(t *testing.T) {
	cases := []struct {
		name string
		mk   func() dram.Scheduler
	}{
		{"frfcfs", func() dram.Scheduler { return NewFRFCFS() }},
		{"frfcfs-tempo", func() dram.Scheduler { return NewTempoFRFCFS() }},
		// A tiny age cap makes the starvation guard the common case,
		// exercising the boundary where score jumps to 100 and ties
		// fall back to pure age order.
		{"frfcfs-agecap-edge", func() dram.Scheduler { return &FRFCFS{TempoAware: true, AgeCap: 3} }},
		{"bliss", func() dram.Scheduler { return NewBLISS() }},
		{"bliss-tempo", func() dram.Scheduler { return NewTempoBLISS() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				driveDiff(t, tc.name, tc.mk, seed)
			}
		})
	}
}
