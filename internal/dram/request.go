// Package dram models the off-chip memory system TEMPO lives in:
// channels and banks with row buffers (optionally split into sub-row
// buffers), open/closed/adaptive row-management policies, DDR-class
// timing, a transaction queue driven by a pluggable scheduler, and a
// per-operation energy account.
//
// The controller is where the paper's hardware sits: it detects tagged
// leaf page-table reads, consults a PTObserver (the TEMPO engine in
// internal/core), and enqueues the post-translation prefetch the
// observer constructs.
package dram

import (
	"repro/internal/mem"
	"repro/internal/stats"
)

// Request is one memory-controller transaction.
type Request struct {
	Addr     mem.PAddr
	Write    bool
	Category stats.DRAMCategory
	CoreID   int

	// IsLeafPT marks a page-table-walker read of a leaf PTE; the
	// walker also appends ReplayLine, the 6-bit index of the cache
	// line the replay will touch within the translated page
	// (LineIndexBits of extra payload — TEMPO's Tx-queue split-entry
	// trick stores it until the PTE arrives).
	IsLeafPT   bool
	ReplayLine uint64

	// Prefetch marks a TEMPO post-translation prefetch. PTCoreID
	// keeps the triggering core for scheduler accounting.
	Prefetch bool
	// PairedWith links a prefetch to the leaf-PT request that
	// triggered it, so TEMPO-aware schedulers can bond them.
	PairedWith *Request

	// Enqueue is the cycle the request becomes schedulable.
	Enqueue uint64

	// AutoRelease marks a fire-and-forget transaction (writeback,
	// TEMPO prefetch): the controller returns it to its pool after the
	// serve completes and all hooks have run. Callers must not read a
	// request they submitted with AutoRelease set.
	AutoRelease bool

	// Results, filled by the controller when the request is served.
	Done     bool
	Issue    uint64
	Complete uint64
	Outcome  stats.RowOutcome

	// loc/seg cache the geometry-decoded DRAM location, filled once by
	// Controller.Submit so neither the serve path nor the schedulers
	// ever re-decode the address. seg is the sub-row segment under the
	// controller's geometry.
	loc Location
	seg int

	// waiter marks a request some core is parked on; the controller
	// counts completed waiters so the coordinator's run-ahead batches
	// know when a parked core may have become runnable.
	waiter bool

	// Pool bookkeeping (see Pool): pooled marks pool-managed requests;
	// refs counts owners.
	pooled bool
	refs   int32
}

// MarkWaiter flags the request as one a core will park on until it
// completes. The controller counts served waiters (ServedWaiters) so
// the simulation coordinator can bound run-ahead batching.
func (r *Request) MarkWaiter() { r.waiter = true }

// RowPeeker lets schedulers ask about row-buffer state without
// mutating it.
type RowPeeker interface {
	// WouldRowHitReq reports whether r would currently hit an open row
	// (or sub-row) buffer, from the location decoded when r was
	// submitted: one compare per sub-row of its bank. r must have been
	// submitted to the controller backing the peeker.
	WouldRowHitReq(r *Request) bool
}

// Scheduler picks the next transaction to issue. Implementations live
// in internal/sched (FR-FCFS and BLISS, each with TEMPO-aware
// extensions).
type Scheduler interface {
	// Pick returns the index into q of the request to issue next,
	// choosing among the requests enqueued at or before cutoff exactly
	// as if q held only those. DrainUpTo passes its horizon as cutoff
	// and every other serve ^uint64(0); the controller calls Pick only
	// when at least one request qualifies. now is the controller clock.
	Pick(q []*Request, now, cutoff uint64, rows RowPeeker) int
	// OnServed is called after the chosen request completes, with
	// its outcome, letting schedulers maintain history (BLISS
	// blacklists, grace periods).
	OnServed(r *Request, now uint64)
}

// FCFS is the trivial in-order scheduler, useful as a baseline and in
// tests.
type FCFS struct{}

// Pick returns the oldest qualifying request.
func (FCFS) Pick(q []*Request, _, cutoff uint64, _ RowPeeker) int {
	best := -1
	for i, r := range q {
		if r.Enqueue <= cutoff && (best < 0 || r.Enqueue < q[best].Enqueue) {
			best = i
		}
	}
	return best
}

// OnServed implements Scheduler.
func (FCFS) OnServed(*Request, uint64) {}

// PTObserver is TEMPO's hook into the controller: it sees every tagged
// leaf-PT read as it completes and may return a prefetch request to
// enqueue (or nil, e.g. for unallocated translations).
type PTObserver interface {
	OnLeafPTServed(r *Request, completion uint64) *Request
}
