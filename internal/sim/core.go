package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/obsv"
	"repro/internal/prefetch"
	"repro/internal/ptwalk"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/translation"
	"repro/internal/vm"
)

// coreStatus is what a core reports when it yields to the coordinator.
type coreStatus uint8

const (
	// coreStep: the core finished one trace record and can take more.
	coreStep coreStatus = iota
	// coreWait: the core submitted the returned DRAM request and is
	// blocked until it completes.
	coreWait
	// coreDone: the core consumed its whole trace (err set on failure).
	coreDone
)

// corePhase is the explicit resume point of the core state machine.
// The core used to run as a goroutine-coroutine parked on channels;
// the phases are exactly the old yield points, made explicit so the
// coordinator can resume a core with a plain method call — zero
// goroutines, zero channel operations, zero scheduler involvement on
// the per-record path.
type corePhase uint8

const (
	// phRecord: fetch and start the next trace record.
	phRecord corePhase = iota
	// phWalk: issue the next demand page-walk PTE reference.
	phWalk
	// phWalkResume: a walk PTE read just returned from DRAM.
	phWalkResume
	// phAccess: the translated demand reference probes the caches.
	phAccess
	// phAccessResume: the demand reference just returned from DRAM.
	phAccessResume
	// phTail: post-access bookkeeping, then back to phRecord.
	phTail
)

// Core replays one trace stream through private TLBs, walker, L1/L2
// and the shared LLC + DRAM. It is an inline cooperative state
// machine: the coordinator calls step, which runs until the record
// completes (coreStep) or the core must block on a DRAM request
// (coreWait), recording its resume point in phase. Strictly one core
// executes at a time, so runs are deterministic.
type Core struct {
	id     int
	sys    *System
	as     *vm.AddressSpace
	tlb    *tlb.TLB
	walker *ptwalk.Walker
	hier   *cache.Hierarchy
	imp    *prefetch.IMP
	// mech is this core's translation-mechanism hooks (nil for tempo
	// and the baseline, which keeps the fast path below engaged).
	mech   translation.CoreHooks
	stream trace.Stream
	st     *stats.Stats
	pool   *dram.Pool

	// lookahead is a fixed-capacity ring buffer modelling IMP's
	// index-stream lead: record n+Distance is visible to the
	// prefetcher while record n executes.
	lookahead []trace.Record
	laHead    int
	laLen     int
	// pfBuf is impIssue's reusable prefetch-target scratch.
	pfBuf []mem.VAddr

	now     uint64
	records int
	ran     int // records executed so far

	// obs is the attached event recorder (nil when tracing is off);
	// obsStart is the cycle the in-flight record began, anchoring its
	// whole-record span.
	obs      *obsv.Recorder
	obsStart uint64

	// State-machine registers: the values live across a coreWait park.
	phase      corePhase
	rec        trace.Record
	tr         vm.Translation
	walked     bool
	leafDRAM   bool
	ws         ptwalk.WalkState
	waitReq    *dram.Request // in-flight request this core is parked on
	waitAt     uint64        // cycle the parked walk reference started
	waitLat    uint64        // cache latency preceding the parked DRAM access
	ar         cache.AccessResult
	p          mem.PAddr
	write      bool
	servedDRAM bool
	outcome    stats.RowOutcome

	err error
}

// step resumes the core and runs it until its next yield point: a
// submitted DRAM request the core must wait on (coreWait, request
// returned), end of trace (coreDone), or — new with run-ahead
// batching — coreStep after executing one or more whole trace records
// (executed reports how many). The coordinator passes a horizon:
// limit is the largest clock at which this core would still win the
// min-clock pick against every other ready core, and budget caps the
// batch at the next interval-stats boundary so flushes stay
// record-accurate. After each finished record the core keeps going
// only while c.now <= limit, executed < budget and the controller has
// not completed a request some other core is parked on (the
// served-waiter count) — exactly the conditions under which re-running
// the coordinator's pick loop would choose this core again, so the
// batched schedule is bit-identical to picking after every record.
// The coordinator must not call step again on a waiting core until
// the returned request completes.
func (c *Core) step(limit, budget uint64) (status coreStatus, waitOn *dram.Request, executed uint64) {
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("core %d: %v", c.id, r)
			status, waitOn = coreDone, nil
		}
	}()
	m := &c.sys.machine
	waiters := c.sys.ctrl.ServedWaiters()
	for {
		switch c.phase {
		case phRecord:
			if c.ran >= c.records {
				return coreDone, nil, executed
			}
			rec, ok := c.nextRecord()
			if !ok {
				return coreDone, nil, executed
			}
			c.ran++
			c.rec = rec
			gap := (uint64(rec.Gap) + uint64(m.NonMemIPC) - 1) / uint64(m.NonMemIPC)
			c.now += gap
			c.st.CPIStack[stats.CPICompute] += gap
			c.st.Instructions += uint64(rec.Gap) + 1
			c.st.MemRefs++

			// Fast path: with no prefetcher and no event recorder
			// attached, a TLB hit proves the page is resident (demand
			// paging cannot have skipped it and nothing unmaps pages
			// mid-run), so the Touch residency check is a pure no-op and
			// the record reduces to translate + cache probe. An L1 hit
			// then needs none of the tail bookkeeping (no writebacks, no
			// replay classification) beyond the writeback-queue pressure
			// guard. This skips the full state machine on the two
			// branches that dominate hot-path records.
			if c.imp == nil && c.obs == nil && c.mech == nil {
				tr, lvl := c.tlb.Lookup(rec.VAddr)
				if lvl != tlb.Miss {
					c.st.TLBHits++
					if lvl == tlb.HitL2 {
						c.now += m.L2TLBPenalty
						c.st.CPIStack[stats.CPITLBL2] += m.L2TLBPenalty
					}
					c.tr = tr
					c.walked, c.leafDRAM = false, false
					c.p = tr.Translate(rec.VAddr)
					c.write = rec.Kind == trace.Store
					c.sys.mem.ApplyFills(c.now + m.Caches.LLC.LatencyC)
					c.ar = c.hier.Access(c.p, c.write)
					if c.ar.Served == cache.ServedL1 {
						c.now += c.ar.Latency
						c.st.CPIStack[stats.CPIDataL1] += c.ar.Latency
						if c.sys.ctrl.QueueLen() > serialGuardQueue {
							c.sys.ctrl.DrainUpTo(c.now)
						}
						executed++
						if executed >= budget || c.now > limit ||
							c.sys.ctrl.ServedWaiters() != waiters {
							return coreStep, nil, executed
						}
						continue
					}
					if req := c.dispatchAccess(m); req != nil {
						return coreWait, req, executed
					}
					continue // phTail
				}
				c.st.TLBMisses++
				// TLB miss: the walker's own software descent doubles as
				// the residency check — only when it fails does the page
				// need faulting in (first touch), after which the descent
				// reruns against the updated table. This replaces the
				// separate Touch lookup + Begin walk with a single
				// descent on the common resident path.
				steps, n, ok := c.walker.TableWalk(rec.VAddr)
				if !ok {
					if _, _, err := c.as.Touch(rec.VAddr); err != nil {
						panic(fmt.Sprintf("touch %#x: %v", uint64(rec.VAddr), err))
					}
					steps, n, ok = c.walker.TableWalk(rec.VAddr)
				}
				c.tr = tr
				c.walked, c.leafDRAM = false, false
				c.walker.BeginPrepared(&c.ws, rec.VAddr, c.now, steps, n, ok)
				c.phase = phWalk
				continue
			}

			c.obs.BeginRecord(c.id, uint64(c.ran-1))
			c.obsStart = c.now

			// Demand paging: ensure the page is resident. Fault cost is
			// excluded (traces model a warmed system; DESIGN.md).
			if _, _, err := c.as.Touch(rec.VAddr); err != nil {
				panic(fmt.Sprintf("touch %#x: %v", uint64(rec.VAddr), err))
			}

			// IMP: issue prefetches from the lookahead edge.
			if c.imp != nil {
				c.impIssue()
			}

			tr, lvl := c.tlb.Lookup(rec.VAddr)
			c.tr = tr
			c.walked, c.leafDRAM = false, false
			if c.obs.Active() {
				c.obs.Emit(obsv.Event{Kind: obsv.EvTLBLookup, Cycle: c.now,
					Core: int16(c.id), A: uint8(lvl), Addr: uint64(rec.VAddr)})
			}
			switch lvl {
			case tlb.HitL1:
				c.st.TLBHits++
				c.phase = phAccess
			case tlb.HitL2:
				c.st.TLBHits++
				c.now += m.L2TLBPenalty
				c.st.CPIStack[stats.CPITLBL2] += m.L2TLBPenalty
				c.phase = phAccess
			case tlb.Miss:
				c.st.TLBMisses++
				if c.mech != nil {
					if act := c.mech.OnTLBMiss(rec.VAddr, c.now); act.Hit {
						// The mechanism resolved the translation itself
						// (e.g. victima's cached PTE): no hardware walk.
						// The mechanism's PTE read is an on-chip probe, so
						// its latency lands in walk-pte-cache; the elided
						// hardware walk is the mech-elided credit.
						c.tr = act.Translation
						c.tlb.Insert(act.Translation)
						c.now += act.Latency
						c.st.CPIStack[stats.CPIWalkPTECache] += act.Latency
						c.st.CPIMechElided++
						c.phase = phAccess
						continue
					}
				}
				c.walker.Begin(&c.ws, rec.VAddr, c.now)
				c.phase = phWalk
			}

		case phWalk:
			// Demand walk: PT reads go through the cache hierarchy and,
			// on misses, park the core until DRAM answers. The walk's
			// own timeline accumulates in ws; c.now advances only when
			// the walk completes.
			wstep, more := c.ws.Next()
			if !more {
				res := c.ws.Finish()
				if !res.OK {
					panic(fmt.Sprintf("walk failed for touched address %#x", uint64(c.rec.VAddr)))
				}
				c.now += res.Latency
				// Split the walk's serialised latency by where the PTE
				// reads were answered; the remainder is the walker's own
				// step overhead.
				c.st.CPIStack[stats.CPIWalkPTECache] += res.CacheLatency
				c.st.CPIStack[stats.CPIWalkPTEDRAM] += res.DRAMLatency
				c.st.CPIStack[stats.CPIWalkMMU] += res.Latency - res.CacheLatency - res.DRAMLatency
				c.tr = res.Translation
				c.tlb.Insert(c.tr)
				c.walked, c.leafDRAM = true, res.LeafFromDRAM
				if c.mech != nil {
					c.mech.OnWalkComplete(c.rec.VAddr, res.Translation, res.LeafFromDRAM, c.now)
				}
				// TLB fill + pipeline replay before the memory reference
				// is re-executed: TEMPO's slack window.
				c.now += m.ReplayRestart
				c.st.CPIStack[stats.CPIWalkMMU] += m.ReplayRestart
				c.phase = phAccess
				continue
			}
			at := c.now + c.ws.Latency()
			c.sys.mem.ApplyFills(at)
			ar := c.hier.Access(wstep.PTEAddr, false)
			if ar.Served != cache.ServedDRAM {
				c.ws.Feed(ar.Latency, false)
				continue
			}
			req := c.pool.Get()
			req.Addr = wstep.PTEAddr
			req.Category = stats.DRAMPTW
			req.CoreID = c.id
			req.IsLeafPT = wstep.IsLeaf
			req.ReplayLine = c.ws.ReplayLine()
			req.Enqueue = at + ar.Latency + m.Interconnect
			req.MarkWaiter()
			c.sys.ctrl.Submit(req)
			c.waitReq, c.waitAt, c.waitLat = req, at, ar.Latency
			c.phase = phWalkResume
			return coreWait, req, executed

		case phWalkResume:
			req := c.waitReq
			if !req.Done {
				panic("core resumed before its request completed")
			}
			doneAt := req.Complete + m.Interconnect
			c.submitWritebacks(c.hier.FillFromDRAM(req.Addr, false))
			c.st.PTWDRAMCycles += doneAt - (c.waitAt + c.waitLat)
			c.waitReq = nil
			c.pool.Release(req)
			c.ws.FeedDRAM(doneAt-c.waitAt, c.waitLat)
			c.phase = phWalk

		case phAccess:
			c.p = c.tr.Translate(c.rec.VAddr)
			c.write = c.rec.Kind == trace.Store
			if c.walked {
				// Give queued TEMPO prefetches their chance to run
				// inside the slack window before the replay probes the
				// LLC.
				c.sys.ctrl.DrainUpTo(c.now)
			}
			// Prefetched lines are usable if filled by the time the
			// lookup reaches the LLC.
			c.sys.mem.ApplyFills(c.now + m.Caches.LLC.LatencyC)
			c.ar = c.hier.Access(c.p, c.write)
			if c.obs.Active() {
				flags := uint8(0)
				if c.walked {
					flags = 1
				}
				c.obs.Emit(obsv.Event{Kind: obsv.EvCacheAccess, Cycle: c.now,
					Dur: c.ar.Latency, Core: int16(c.id), Addr: uint64(c.p),
					A: uint8(c.ar.Served), B: flags})
			}
			if req := c.dispatchAccess(m); req != nil {
				return coreWait, req, executed
			}

		case phAccessResume:
			req := c.waitReq
			if !req.Done {
				panic("core resumed before its request completed")
			}
			doneAt := req.Complete + m.Interconnect
			dramPortion := doneAt - (c.now + c.ar.Latency)
			c.st.CPIStack[stats.CPIDataLLC] += c.ar.Latency
			if c.walked {
				// Post-walk replays serialise: charge the full DRAM
				// time.
				c.st.ReplayDRAMCycles += dramPortion
				c.now = doneAt
				c.chargeDRAMStall(req, dramPortion, dramPortion)
			} else {
				// Independent misses partially overlap with the
				// out-of-order window.
				charged := uint64(float64(dramPortion) * m.OtherOverlap)
				c.st.OtherDRAMCycles += charged
				c.now += c.ar.Latency + charged
				c.chargeDRAMStall(req, dramPortion, charged)
			}
			c.submitWritebacks(c.hier.FillFromDRAM(c.p, c.write))
			c.outcome = req.Outcome
			c.servedDRAM = true
			c.waitReq = nil
			c.pool.Release(req)
			c.phase = phTail

		case phTail:
			c.submitWritebacks(c.ar.Writebacks)

			// Prefetch usefulness. A post-walk replay served on-chip from
			// a prefetched line is a DRAM round trip the prefetch hid —
			// the hidden-by-prefetch credit (an event count, not cycles:
			// the counterfactual DRAM time is never simulated).
			if c.ar.Served == cache.ServedLLC {
				switch c.ar.Provenance {
				case cache.FillTempo:
					c.st.TempoUseful++
					if c.walked {
						c.st.CPIHiddenByPrefetch++
					}
				case cache.FillIMP:
					c.st.IMPUseful++
					if c.walked {
						c.st.CPIHiddenByPrefetch++
					}
				case cache.FillSpec:
					if c.mech != nil {
						c.mech.OnPrefetchUseful()
					}
					if c.walked {
						c.st.CPIHiddenByPrefetch++
					}
				}
			}

			// Replay service classification (Figure 11) for walks whose
			// leaf PTE came from DRAM — TEMPO's target population.
			if c.walked && c.leafDRAM {
				fromTempo := c.ar.Served == cache.ServedLLC &&
					c.ar.Provenance == cache.FillTempo
				class := stats.ReplayDRAMArray
				switch {
				case !c.servedDRAM:
					class = stats.ReplayLLC
					if fromTempo {
						// Without TEMPO this replay would have gone to
						// DRAM.
						c.st.WalkDRAMThenReplayDRAM++
					}
				case c.outcome == stats.RowHit:
					class = stats.ReplayRowBuffer
					c.st.WalkDRAMThenReplayDRAM++
				default:
					c.st.WalkDRAMThenReplayDRAM++
				}
				c.st.ReplayServiced[class]++
				if c.obs.Active() {
					b := uint8(0)
					if fromTempo {
						b = 1
					}
					c.obs.Emit(obsv.Event{Kind: obsv.EvReplay, Cycle: c.now,
						Core: int16(c.id), Addr: uint64(c.p),
						A: uint8(class), B: b})
				}
			}

			// IMP training follows the executed stream.
			if c.imp != nil {
				c.imp.Train(prefetch.Observation{
					PC: c.rec.PC, VAddr: c.rec.VAddr,
					Value: c.rec.Value, HasValue: c.rec.HasValue,
					Missed: c.servedDRAM,
				})
			}
			if c.obs.Active() {
				c.obs.Emit(obsv.Event{Kind: obsv.EvRecord, Cycle: c.obsStart,
					Dur: c.now - c.obsStart, Core: int16(c.id),
					Addr: uint64(c.rec.VAddr)})
			}
			c.phase = phRecord
			executed++
			if executed >= budget || c.now > limit ||
				c.sys.ctrl.ServedWaiters() != waiters {
				return coreStep, nil, executed
			}
		}
	}
}

// dispatchAccess routes the demand-access result sitting in c.ar: an
// on-chip hit advances the clock and moves to the tail phase (nil
// return); a full miss submits the DRAM transaction — marked as one a
// core is parked on, so batched peers notice its completion — and
// returns it for the coordinator to wait on.
func (c *Core) dispatchAccess(m *Machine) *dram.Request {
	if c.ar.Served != cache.ServedDRAM {
		c.now += c.ar.Latency
		switch c.ar.Served {
		case cache.ServedL1:
			c.st.CPIStack[stats.CPIDataL1] += c.ar.Latency
		case cache.ServedL2:
			c.st.CPIStack[stats.CPIDataL2] += c.ar.Latency
		default:
			c.st.CPIStack[stats.CPIDataLLC] += c.ar.Latency
		}
		c.servedDRAM = false
		c.outcome = stats.RowHit // unused when !servedDRAM
		c.phase = phTail
		return nil
	}
	cat := stats.DRAMOther
	if c.walked {
		cat = stats.DRAMReplay
	}
	req := c.pool.Get()
	req.Addr = c.p.Line()
	req.Category = cat
	req.CoreID = c.id
	req.Enqueue = c.now + c.ar.Latency + m.Interconnect
	req.MarkWaiter()
	c.sys.ctrl.Submit(req)
	c.waitReq = req
	c.phase = phAccessResume
	return req
}

// chargeDRAMStall splits `charged` stall cycles of a completed demand
// DRAM request across the queue / service / row-conflict-extra CPI
// buckets. total is the request's full off-chip portion (interconnect +
// queue wait + array service); when charged < total (the OtherOverlap
// path) the queue and conflict shares are prorated by charged/total
// with integer floors and the remainder lands in service, so the three
// buckets sum to exactly `charged`. Proration cannot overflow charged:
// queue + conflict ≤ total, so the floored shares sum to ≤ charged.
func (c *Core) chargeDRAMStall(req *dram.Request, total, charged uint64) {
	if charged == 0 {
		return
	}
	queue := req.Issue - req.Enqueue
	var conflict uint64
	if req.Outcome == stats.RowConflict {
		conflict = c.sys.machine.DRAM.Timing.ConflictExtra()
		if svc := req.Complete - req.Issue; conflict > svc {
			conflict = svc
		}
	}
	if total > 0 && charged != total {
		queue = queue * charged / total
		conflict = conflict * charged / total
	}
	c.st.CPIStack[stats.CPIDataDRAMQueue] += queue
	c.st.CPIStack[stats.CPIRowConflictExtra] += conflict
	c.st.CPIStack[stats.CPIDataDRAMService] += charged - queue - conflict
}

// nextRecord pulls the next record, maintaining the IMP lookahead ring.
func (c *Core) nextRecord() (trace.Record, bool) {
	if c.imp == nil {
		return c.stream.Next()
	}
	for c.laLen < len(c.lookahead) {
		rec, ok := c.stream.Next()
		if !ok {
			break
		}
		c.lookahead[(c.laHead+c.laLen)%len(c.lookahead)] = rec
		c.laLen++
	}
	if c.laLen == 0 {
		return trace.Record{}, false
	}
	rec := c.lookahead[c.laHead]
	c.laHead = (c.laHead + 1) % len(c.lookahead)
	c.laLen--
	return rec, true
}

// serialGuardQueue is the controller queue depth above which the
// record paths drain everything already schedulable
// (QueueLen > serialGuardQueue → DrainUpTo). The threshold is part of
// the simulated machine's behaviour: changing it changes results.
const serialGuardQueue = 128

// submitWritebacks turns dirty LLC victims into fire-and-forget DRAM
// write transactions. They drain whenever the controller runs; a
// queue-depth guard keeps a long store-heavy cache-hit streak from
// accumulating unbounded writes.
func (c *Core) submitWritebacks(addrs []mem.PAddr) {
	for _, a := range addrs {
		req := c.pool.Get()
		req.Addr = a.Line()
		req.Write = true
		req.Category = stats.DRAMWriteback
		req.CoreID = c.id
		req.Enqueue = c.now
		req.AutoRelease = true
		c.sys.ctrl.Submit(req)
	}
	if c.sys.ctrl.QueueLen() > serialGuardQueue {
		c.sys.ctrl.DrainUpTo(c.now)
	}
}

// backgroundPort serves IMP-initiated walks: same datapath and DRAM
// traffic as a demand walk, but the core does not stall (the walk runs
// in the prefetcher's shadow) and no runtime is attributed, so it can
// use the synchronous Walker.Walk instead of parking the state machine.
type backgroundPort struct{ c *Core }

func (p backgroundPort) ReadPTE(paddr mem.PAddr, level int, isLeaf bool, replayLine uint64, at uint64) (uint64, bool) {
	c := p.c
	m := &c.sys.machine
	c.sys.mem.ApplyFills(at)
	ar := c.hier.Access(paddr, false)
	if ar.Served != cache.ServedDRAM {
		return ar.Latency, false
	}
	req := c.pool.Get()
	req.Addr = paddr
	req.Category = stats.DRAMPTW
	req.CoreID = c.id
	req.IsLeafPT = isLeaf
	req.ReplayLine = replayLine
	req.Enqueue = at + ar.Latency + m.Interconnect
	c.sys.ctrl.Submit(req)
	c.sys.ctrl.RunUntil(req)
	lat := req.Complete + m.Interconnect - at
	c.submitWritebacks(c.hier.FillFromDRAM(paddr, false))
	c.pool.Release(req)
	return lat, true
}

// impIssue lets IMP see the newest lookahead record and performs any
// prefetches it requests: translate (dropping unmapped targets, the
// hardware behaviour on a would-be fault), walking on TLB misses in
// the background, then fetching the line toward the LLC.
func (c *Core) impIssue() {
	if c.laLen == 0 {
		return
	}
	edge := c.lookahead[(c.laHead+c.laLen-1)%len(c.lookahead)]
	if !edge.HasValue {
		return
	}
	m := &c.sys.machine
	c.pfBuf = c.imp.AppendPrefetches(c.pfBuf[:0], edge.PC, edge.Value)
	for _, target := range c.pfBuf {
		if _, ok := c.as.Table().Lookup(target); !ok {
			continue // would fault; hardware drops it
		}
		tr, lvl := c.tlb.Lookup(target)
		if lvl == tlb.Miss {
			c.st.IMPWalks++
			res := c.walker.Walk(target, c.now, backgroundPort{c})
			if !res.OK {
				continue
			}
			c.tlb.Insert(res.Translation)
			tr = res.Translation
		}
		p := tr.Translate(target).Line()
		c.sys.mem.ApplyFills(c.now)
		if c.hier.PeekLLC(p) {
			continue
		}
		req := c.pool.Get()
		req.Addr = p
		req.Category = stats.DRAMPrefetch
		req.CoreID = c.id
		req.Enqueue = c.now + m.Interconnect
		c.sys.ctrl.Submit(req)
		c.sys.ctrl.RunUntil(req)
		c.sys.mem.AddPending(p, req.Complete+m.LLCFillExtra, cache.FillIMP)
		c.pool.Release(req)
		c.st.IMPPrefetches++
		if c.obs.Active() {
			c.obs.Emit(obsv.Event{Kind: obsv.EvIMPPrefetch, Cycle: c.now,
				Core: int16(c.id), Addr: uint64(p)})
		}
	}
}
