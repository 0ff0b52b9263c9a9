package dram

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/assoc"
	"repro/internal/mem"
	"repro/internal/obsv"
	"repro/internal/stats"
)

// SubRowAlloc decides which sub-row buffers a request may allocate
// into when it must latch a new segment (Section 4.4's FOA/POA).
type SubRowAlloc interface {
	// Allowed returns the permitted sub-row indices for r, given the
	// bank has nSub sub-rows of which the first prefetchSub are
	// dedicated to TEMPO prefetches. An empty result means "any". The
	// result is read-only and valid until the next call to either
	// method.
	Allowed(r *Request, nSub, prefetchSub int) []int
	// OnServed lets the policy observe traffic (POA re-partitions by
	// bandwidth; FOA by interference).
	OnServed(r *Request, outcome stats.RowOutcome)
}

// Config assembles a memory controller.
type Config struct {
	Geometry Geometry
	Timing   Timing
	Policy   RowPolicy
	// PTRowWait is how many cycles TEMPO keeps a row holding
	// page-table contents open (and delays the triggered prefetch)
	// anticipating nearby PT accesses — 10 in the paper (Figure 15).
	PTRowWait uint64
}

// DefaultConfig returns the baseline controller configuration used for
// the paper's main results: FR-FCFS is wired by the caller; adaptive
// row policy; 10-cycle PT-row wait.
func DefaultConfig() Config {
	return Config{
		Geometry:  DefaultGeometry(),
		Timing:    DefaultTiming(),
		Policy:    PolicyAdaptive,
		PTRowWait: 10,
	}
}

// Controller is the memory controller: per-channel transaction queues
// served by a pluggable scheduler over banks with (sub-)row buffers.
// With an Observer attached it implements TEMPO: tagged leaf-PT reads
// trigger post-translation prefetches that land in the row buffer and
// (via OnPrefetchDone) the LLC.
type Controller struct {
	cfg Config
	// chans holds the per-channel timing domains: banks, data bus,
	// refresh cadence and the tFAW activate window.
	chans []chanState
	queue []*Request
	sched Scheduler
	st    *stats.Stats

	// Observer is TEMPO's engine (nil disables TEMPO).
	Observer PTObserver
	// OnPrefetchDone is invoked when a TEMPO prefetch completes; the
	// simulator uses it to schedule the LLC fill.
	OnPrefetchDone func(r *Request)
	// SubAlloc optionally partitions sub-row buffers (FOA/POA).
	SubAlloc SubRowAlloc

	// Rec, when non-nil, receives per-transaction DRAM events (serve
	// spans with channel/bank/row, leaf-PT instants, refresh spans,
	// queue-depth samples). QDepth, when non-nil, histograms the queue
	// length seen by each arriving transaction. Both are nil-safe obsv
	// hooks; disabled they cost one pointer test per serve.
	Rec    *obsv.Recorder
	QDepth *obsv.Histogram

	// servedWaiters counts completed transactions that a core was
	// parked on (Request.MarkWaiter). The simulation coordinator
	// compares it across a run-ahead batch: an unchanged count proves
	// no parked core can have become runnable.
	servedWaiters uint64
	// frontier is the latest issue time seen — the controller's
	// notion of "now" for scheduler aging and grace periods.
	frontier uint64
	// pool recycles transactions, keeping the steady-state serve path
	// free of allocations.
	pool Pool
	// subIdx hands banks the sub-row index sets when no SubAlloc
	// policy is installed.
	subIdx indices
}

// chanState is one channel's complete timing domain: its banks, the
// data-bus availability, the auto-refresh deadline, and the ring of
// the last four ACT issue times enforcing tFAW.
type chanState struct {
	banks []*Bank
	// busAt is the cycle the channel's data bus frees.
	busAt uint64
	// nextRefresh is the next auto-refresh deadline (0 = no refresh).
	nextRefresh uint64
	// acts rings the last four ACT issue times; actPos counts ACTs.
	acts   [4]uint64
	actPos int
}

// Validate reports why a controller cannot be built on this geometry:
// it needs at least one channel, one bank per channel and a non-empty
// row, each sub-row must hold at least one line, a bank may have at
// most assoc.MaxWays (16) sub-rows, the most its recency stack orders,
// and the prefetch reservation must lie within the sub-rows the
// policies index.
func (g Geometry) Validate() error {
	if g.Channels <= 0 || g.BanksPerCh <= 0 || g.RowBytes == 0 {
		return fmt.Errorf("dram: invalid geometry %+v: needs channels, banks per channel and row bytes above 0", g)
	}
	if g.SubRows > 1 && uint64(g.SubRows) > g.RowBytes/mem.LineSize {
		return fmt.Errorf("dram: %d sub-rows of a %dB row are smaller than a %dB line", g.SubRows, g.RowBytes, mem.LineSize)
	}
	if g.SubRows > assoc.MaxWays {
		return fmt.Errorf("dram: %d sub-rows is over the limit of %d per bank", g.SubRows, assoc.MaxWays)
	}
	if g.SubRows > 1 && (g.PrefetchSubRows < 0 || g.PrefetchSubRows > g.SubRows) {
		return fmt.Errorf("dram: %d prefetch sub-rows is outside 0..%d", g.PrefetchSubRows, g.SubRows)
	}
	return nil
}

// HostBytes returns the host memory the controller's banks can take:
// each bank's state and (sub-)row buffers and, under the adaptive
// policy, its row predictor with every chunk written, 57,344 bytes,
// although a run materialises only the chunks it writes. It saturates
// at math.MaxUint64. The geometry must be valid.
func (cfg Config) HostBytes() uint64 {
	g := cfg.Geometry
	subs := uint64(max(g.SubRows, 1))
	if subs > 1<<32 {
		return math.MaxUint64
	}
	bank := uint64(unsafe.Sizeof(Bank{})) + subs*uint64(unsafe.Sizeof(subRow{}))
	if cfg.Policy == PolicyAdaptive {
		bank += predChunks * uint64(unsafe.Sizeof(predChunk{}))
	}
	hi, banks := bits.Mul64(uint64(g.Channels), uint64(g.BanksPerCh))
	if hi != 0 {
		return math.MaxUint64
	}
	if hi, n := bits.Mul64(banks, bank); hi == 0 {
		return n
	}
	return math.MaxUint64
}

// NewController builds a controller. The scheduler is mandatory; stats
// must be the memory-system-wide sink. Panics with Geometry.Validate's
// error on invalid geometry.
func NewController(cfg Config, sched Scheduler, st *stats.Stats) *Controller {
	if sched == nil || st == nil {
		panic("dram: controller needs a scheduler and stats")
	}
	g := cfg.Geometry
	if err := g.Validate(); err != nil {
		panic(err)
	}
	c := &Controller{cfg: cfg, sched: sched, st: st,
		chans: make([]chanState, g.Channels)}
	for ch := 0; ch < g.Channels; ch++ {
		cs := &c.chans[ch]
		if cfg.Timing.TRFC > 0 {
			cs.nextRefresh = cfg.Timing.TREFI
		}
		cs.banks = make([]*Bank, g.BanksPerCh)
		for b := range cs.banks {
			cs.banks[b] = NewBank(g, cfg.Timing, cfg.Policy)
		}
	}
	return c
}

// QueueLen returns the number of pending transactions.
func (c *Controller) QueueLen() int { return len(c.queue) }

// Pool returns the controller's request pool. Hot-path callers (cores,
// the TEMPO engine, the LLC fill path) draw their transactions from it
// so steady-state accesses allocate nothing.
func (c *Controller) Pool() *Pool { return &c.pool }

// ServedWaiters returns the number of completed transactions that were
// marked with MarkWaiter — i.e. how many parked cores the controller
// has unblocked so far.
func (c *Controller) ServedWaiters() uint64 { return c.servedWaiters }

// Submit enqueues a transaction, decoding its DRAM location once so
// the serve path and scheduler scans never re-decode the address.
func (c *Controller) Submit(r *Request) {
	if r.Done {
		panic("dram: resubmitting a completed request")
	}
	r.loc = c.cfg.Geometry.Decode(r.Addr)
	r.seg = r.loc.Segment(c.cfg.Geometry)
	c.QDepth.Observe(uint64(len(c.queue)))
	c.queue = append(c.queue, r)
}

// WouldRowHitReq implements RowPeeker: whether the submitted request r
// would hit an open (sub-)row buffer if its bank issued it now, read
// from the location Submit decoded.
func (c *Controller) WouldRowHitReq(r *Request) bool {
	bank := c.chans[r.loc.Channel].banks[r.loc.Bank]
	return bank.WouldHit(r.loc.Row, r.seg, bank.readyAt)
}

// ServeOne executes one scheduler-chosen transaction and returns it.
// The queue must be non-empty. Multi-core simulators drive the
// controller with it when every core is blocked on memory.
func (c *Controller) ServeOne() *Request {
	if len(c.queue) == 0 {
		panic("dram: ServeOne on empty queue")
	}
	return c.serve(c.pick(math.MaxUint64))
}

// pick asks the scheduler for the next request among those enqueued at
// or before cutoff, of which there must be at least one.
func (c *Controller) pick(cutoff uint64) int {
	return c.sched.Pick(c.queue, c.clock(), cutoff, c)
}

// serve removes queue[idx], serves it and returns it.
func (c *Controller) serve(idx int) *Request {
	r := c.queue[idx]
	c.queue = append(c.queue[:idx], c.queue[idx+1:]...)

	loc := r.loc // decoded once at Submit
	c.refreshChannel(loc.Channel, r.Enqueue)
	cs := &c.chans[loc.Channel]
	bank := cs.banks[loc.Bank]
	issue := max(r.Enqueue, bank.ReadyAt())
	// Banks on a channel work in parallel; only the data burst
	// serialises on the bus. Push the issue time just enough that the
	// burst window [complete-TBurst, complete] starts after the bus
	// frees. The plan predicts with the bank's unrestricted LRU victim
	// even when allowedSubRows narrows the access's own choice.
	t := c.cfg.Timing
	plan := bank.plan(loc.Row, r.seg)
	for tries := 0; tries < 4; tries++ {
		burstStart := issue + t.latency(plan.outcome(issue)) - t.TBurst
		if burstStart >= cs.busAt {
			break
		}
		issue += cs.busAt - burstStart
	}
	// tFAW: a fifth activate within the window of the last four waits
	// it out.
	if t.TFAW > 0 && cs.actPos >= 4 && plan.outcome(issue) != stats.RowHit {
		if earliest := cs.acts[cs.actPos%4] + t.TFAW; issue < earliest {
			issue = earliest
		}
	}
	allowed := c.allowedSubRows(r)
	outcome, complete := bank.Access(loc.Row, r.seg, issue, allowed, c.st)
	if outcome != stats.RowHit && c.cfg.Timing.TFAW > 0 {
		cs.acts[cs.actPos%4] = issue
		cs.actPos++
	}
	cs.busAt = complete // bus busy until the burst ends
	if issue > c.frontier {
		c.frontier = issue
	}
	r.Done, r.Issue, r.Complete, r.Outcome = true, issue, complete, outcome
	if r.waiter {
		c.servedWaiters++
	}

	c.st.AddDRAMRef(r.Category, outcome)
	c.st.AddDRAMLatency(r.Category, complete-r.Enqueue)
	c.st.DRAMBusyCycles += complete - issue
	if r.Write {
		c.st.WrCount++
	} else {
		c.st.RdCount++
	}
	if c.Rec.Active() {
		c.Rec.Emit(obsv.Event{Kind: obsv.EvDRAM, Cycle: r.Enqueue,
			Dur: complete - r.Enqueue, Core: int16(r.CoreID),
			Addr: uint64(r.Addr), A: uint8(r.Category), B: uint8(outcome),
			Aux: obsv.PackDRAMAux(loc.Channel, loc.Bank, loc.Row)})
		c.Rec.Emit(obsv.Event{Kind: obsv.EvQueueDepth, Cycle: complete,
			Core: -1, Aux: uint64(len(c.queue))})
		if r.IsLeafPT {
			c.Rec.Emit(obsv.Event{Kind: obsv.EvLeafPTE, Cycle: complete,
				Core: int16(r.CoreID), Addr: uint64(r.Addr),
				Aux: r.ReplayLine})
		}
	}
	if r.IsLeafPT {
		c.st.DRAMPTWLeaf++
		c.onLeafPT(r, loc, bank)
	}
	if r.Prefetch {
		// The prefetched row stays latched for the replay: pin it
		// briefly so an adaptive/closed policy cannot close it before
		// the replay can possibly arrive.
		bank.Pin(loc.Row, r.seg, complete, complete+c.cfg.PTRowWait+180)
		if c.OnPrefetchDone != nil {
			c.OnPrefetchDone(r)
		}
	}
	c.sched.OnServed(r, complete)
	if c.SubAlloc != nil {
		c.SubAlloc.OnServed(r, outcome)
	}
	// Pool lifetime: a served prefetch drops the reference it held on
	// its paired leaf-PT request (the pointer stays set — schedulers
	// and tests may still compare it, but nobody dereferences a
	// completed pair). Fire-and-forget transactions release themselves.
	if r.Prefetch && r.PairedWith != nil {
		c.pool.Release(r.PairedWith)
	}
	if r.AutoRelease {
		c.pool.Release(r)
	}
	return r
}

// onLeafPT runs TEMPO's PT? detector path: keep the PT row open for
// the configured wait, and ask the observer for the prefetch to queue.
func (c *Controller) onLeafPT(r *Request, loc Location, bank *Bank) {
	bank.Pin(loc.Row, r.seg, r.Complete, r.Complete+c.cfg.PTRowWait)
	if c.Observer == nil {
		return
	}
	pf := c.Observer.OnLeafPTServed(r, r.Complete)
	if pf == nil {
		return
	}
	pf.Prefetch = true
	pf.PairedWith = r
	r.Ref() // the queued prefetch owns its pair until it is served
	pf.AutoRelease = true
	pf.Category = stats.DRAMPrefetch
	if pf.Enqueue < r.Complete+c.cfg.PTRowWait {
		pf.Enqueue = r.Complete + c.cfg.PTRowWait
	}
	c.Submit(pf)
}

func (c *Controller) allowedSubRows(r *Request) []int {
	g := c.cfg.Geometry
	if g.SubRows <= 1 {
		return nil
	}
	if c.SubAlloc != nil {
		return c.SubAlloc.Allowed(r, g.SubRows, g.PrefetchSubRows)
	}
	if g.PrefetchSubRows <= 0 || g.PrefetchSubRows >= g.SubRows {
		return nil
	}
	if r.Prefetch {
		return c.subIdx.span(0, g.PrefetchSubRows)
	}
	return c.subIdx.span(g.PrefetchSubRows, g.SubRows)
}

// RunUntil executes queued transactions, in scheduler order, until r
// completes, and returns its completion cycle. r must be queued.
func (c *Controller) RunUntil(r *Request) uint64 {
	for !r.Done {
		if len(c.queue) == 0 {
			panic("dram: RunUntil target not in queue")
		}
		c.serve(c.pick(math.MaxUint64))
	}
	return r.Complete
}

// DrainUpTo executes every queued transaction that is schedulable at
// or before cycle t (prefetches and writebacks progress while the core
// computes). Later-enqueued transactions stay queued. The scheduler is
// asked only while one qualifies: BLISS's Pick clears its blacklist on
// schedule and resets its bond, so an empty ask would not be free.
func (c *Controller) DrainUpTo(t uint64) {
	for c.due(t) {
		c.serve(c.pick(t))
	}
}

// due reports whether a queued transaction is schedulable by cycle t.
func (c *Controller) due(t uint64) bool {
	for _, r := range c.queue {
		if r.Enqueue <= t {
			return true
		}
	}
	return false
}

// Drain executes everything in the queue (end of simulation).
func (c *Controller) Drain() {
	for len(c.queue) > 0 {
		c.serve(c.pick(math.MaxUint64))
	}
}

// clock is the controller's notion of "now" for scheduler decisions:
// the latest issue time it has committed (monotonic).
func (c *Controller) clock() uint64 { return c.frontier }

// refreshChannel applies any auto-refreshes due at or before `now` on
// the channel: all banks precharge and stall for TRFC.
func (c *Controller) refreshChannel(ch int, now uint64) {
	t := c.cfg.Timing
	if t.TRFC == 0 {
		return
	}
	cs := &c.chans[ch]
	for cs.nextRefresh <= now {
		start := cs.nextRefresh
		for _, b := range cs.banks {
			b.Refresh(start, t.TRFC, c.st)
		}
		c.st.RefCount++
		if c.Rec.Active() {
			c.Rec.Emit(obsv.Event{Kind: obsv.EvRefresh, Cycle: start,
				Dur: t.TRFC, Core: -1, A: uint8(ch),
				Aux: obsv.PackDRAMAux(ch, 0, 0)})
		}
		cs.nextRefresh += t.TREFI
	}
}

// indices hands out runs of sub-row indices without allocating: each
// run is a capacity-capped subslice of one 0, 1, 2, ... array, grown
// on first use, so callers may read or append to it but not write it.
type indices []int

// span returns lo, lo+1, ..., hi-1.
func (x *indices) span(lo, hi int) []int {
	if len(*x) < hi {
		*x = make([]int, hi)
		for i := range *x {
			(*x)[i] = i
		}
	}
	return (*x)[lo:hi:hi]
}
