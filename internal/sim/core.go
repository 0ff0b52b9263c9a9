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
	// coreStep: the core finished one or more trace records and can
	// take more.
	coreStep coreStatus = iota
	// coreWait: the core submitted the returned DRAM request and is
	// blocked until it completes.
	coreWait
	// coreDone: the core consumed its whole trace (err set on failure).
	coreDone
)

// corePhase is where step resumes a core. Between records it is
// phRecord; inside one, the core parks only on DRAM, at phWalkResume
// (a walk's PTE read) or phAccessResume (the demand line). phWalk,
// phAccess and phTail are the record's stages after a walk or a DRAM
// wait; a record served on chip runs from phRecord through phAccess to
// phTail without returning to the dispatch.
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
// and the shared LLC + DRAM. Every record runs the same kernel, step:
// start the record, let IMP prefetch, look the address up in the TLB,
// on a miss offer it to the mechanism's hooks and walk the page table,
// then access the data and do the tail bookkeeping. The coordinator
// calls step, which runs records until the core must block on a DRAM
// request (coreWait), recording its resume point in phase; in a
// one-core system the core serves that request itself and carries on.
// Strictly one core executes at a time, so runs are deterministic.
type Core struct {
	id     int
	sys    *System
	as     *vm.AddressSpace
	tlb    *tlb.TLB
	walker *ptwalk.Walker
	hier   *cache.Hierarchy
	imp    *prefetch.IMP
	// lone is set in a one-core system: a park on DRAM then runs the
	// controller until its request completes (Controller.RunUntil)
	// instead of returning to System.Run.
	lone bool
	// mech is this core's rival-mechanism hooks, nil on the default
	// machine; then the kernel makes no hook calls.
	mech   translation.CoreHooks
	stream trace.Stream
	st     *stats.Stats
	pool   *dram.Pool

	// buf holds records read from stream a batch at a time: buf[pos-1]
	// is the executing record and buf[pos:end] are read but not yet
	// executed. With IMP on, lead is prefetch.Distance and the buffer
	// is refilled before fewer than lead records follow the executing
	// one, so the record lead places further along, IMP's lookahead
	// edge, is always in it; eof records that the stream has ended.
	buf      []trace.Record
	pos, end int
	lead     int
	eof      bool
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
	rec        *trace.Record // in buf; no refill moves it while it runs
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
// returned), end of trace (coreDone), or coreStep after one or more
// whole trace records (executed reports how many). The coordinator
// passes a horizon: limit is the largest clock at which this core
// would still win the min-clock pick against every other ready core,
// and budget caps the batch at the next interval-stats boundary so
// flushes stay record-accurate. After each finished record the core
// keeps going only while c.now <= limit, executed < budget and the
// controller has not completed a request some other core is parked on
// (the served-waiter count) — exactly the conditions under which
// re-running the coordinator's pick loop would choose this core again,
// so the batched schedule is bit-identical to picking after every
// record. The coordinator must not call step again on a waiting core
// until the returned request completes. A lone core never returns
// coreWait: it runs the controller until its own request completes
// (Controller.RunUntil) and runs on.
func (c *Core) step(limit, budget uint64) (status coreStatus, waitOn *dram.Request, executed uint64) {
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("core %d: %v", c.id, r)
			status, waitOn = coreDone, nil
		}
	}()
	m := &c.sys.machine
	waiters := c.sys.ctrl.ServedWaiters()
kernel:
	for {
		switch c.phase {
		case phRecord:
			if c.ran >= c.records {
				return coreDone, nil, executed
			}
			rec := c.nextRecord()
			if rec == nil {
				return coreDone, nil, executed
			}
			c.ran++
			c.rec = rec
			gap := (uint64(rec.Gap) + uint64(m.NonMemIPC) - 1) / uint64(m.NonMemIPC)
			c.now += gap
			c.st.CPIStack[stats.CPICompute] += gap
			c.st.Instructions += uint64(rec.Gap) + 1
			c.st.MemRefs++
			c.obs.BeginRecord(c.id, uint64(c.ran-1))
			c.obsStart = c.now

			// IMP: issue prefetches from the lookahead edge. Its
			// targets can share this record's page, so demand paging
			// faults the page in first.
			if c.imp != nil {
				c.demandPage(rec.VAddr)
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
			case tlb.HitL2:
				c.st.TLBHits++
				c.now += m.L2TLBPenalty
				c.st.CPIStack[stats.CPITLBL2] += m.L2TLBPenalty
			case tlb.Miss:
				c.st.TLBMisses++
				var act translation.Action
				if c.mech != nil {
					act = c.mech.OnTLBMiss(rec.VAddr, c.now)
				}
				if !act.Hit {
					// The walk's table descent doubles as demand paging's
					// residency check: only a page it finds absent (first
					// touch) is faulted in, and the descent reruns on the
					// updated table. A TLB hit needs no check: only
					// resident pages reach the TLB, and nothing unmaps a
					// page mid-run.
					steps, n, ok := c.as.Table().Walk(rec.VAddr)
					if !ok {
						c.demandPage(rec.VAddr)
						steps, n, ok = c.as.Table().Walk(rec.VAddr)
					}
					c.walker.Begin(&c.ws, rec.VAddr, c.now, steps, n, ok)
					c.phase = phWalk
					continue
				}
				// The mechanism resolved the translation itself (e.g.
				// victima's cached PTE): no hardware walk. The
				// mechanism's PTE read is an on-chip probe, so its
				// latency lands in walk-pte-cache; the elided hardware
				// walk is the mech-elided credit.
				c.tr = act.Translation
				c.tlb.Insert(act.Translation)
				c.now += act.Latency
				c.st.CPIStack[stats.CPIWalkPTECache] += act.Latency
				c.st.CPIMechElided++
			}
			fallthrough

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
			if c.ar.Served == cache.ServedDRAM {
				// A full miss parks the core on its DRAM transaction,
				// marked as one a core waits on so batched peers notice
				// its completion.
				req := c.pool.Get()
				req.Addr = c.p.Line()
				req.Category = stats.DRAMOther
				if c.walked {
					req.Category = stats.DRAMReplay
				}
				req.CoreID = c.id
				req.Enqueue = c.now + c.ar.Latency + m.Interconnect
				req.MarkWaiter()
				c.sys.ctrl.Submit(req)
				c.waitReq = req
				c.phase = phAccessResume
				if !c.lone {
					return coreWait, req, executed
				}
				c.sys.ctrl.RunUntil(req)
				waiters = c.sys.ctrl.ServedWaiters()
				continue
			}
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
			fallthrough

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

		case phWalkResume:
			req := c.waitReq
			if !req.Done {
				panic("core resumed before its request completed")
			}
			doneAt := req.Complete + m.Interconnect
			c.submitWritebacks(c.hier.FillFromDRAM(req.Addr, false))
			c.waitReq = nil
			c.pool.Release(req)
			c.ws.FeedDRAM(doneAt-c.waitAt, c.waitLat)
			fallthrough

		case phWalk:
			// Demand walk: PT reads go through the cache hierarchy and,
			// on misses, park the core until DRAM answers. The walk's
			// own timeline accumulates in ws; c.now advances only when
			// the walk completes.
			for {
				wstep, more := c.ws.Next()
				if !more {
					break
				}
				at := c.now + c.ws.Latency()
				lat, req := c.readPTE(wstep.PTEAddr, wstep.IsLeaf, c.ws.ReplayLine(), at)
				if req == nil {
					c.ws.Feed(lat, false)
					continue
				}
				req.MarkWaiter()
				c.waitReq, c.waitAt, c.waitLat = req, at, lat
				c.phase = phWalkResume
				if !c.lone {
					return coreWait, req, executed
				}
				c.sys.ctrl.RunUntil(req)
				waiters = c.sys.ctrl.ServedWaiters()
				continue kernel
			}
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
				c.mech.OnWalkComplete(c.rec.VAddr, res.Translation, res.LeafPTE)
			}
			// TLB fill + pipeline replay before the memory reference
			// is re-executed: TEMPO's slack window.
			c.now += m.ReplayRestart
			c.st.CPIStack[stats.CPIWalkMMU] += m.ReplayRestart
			c.phase = phAccess

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
				c.now += c.ar.Latency + charged
				c.chargeDRAMStall(req, dramPortion, charged)
			}
			c.submitWritebacks(c.hier.FillFromDRAM(c.p, c.write))
			c.outcome = req.Outcome
			c.servedDRAM = true
			c.waitReq = nil
			c.pool.Release(req)
			c.phase = phTail
		}
	}
}

// demandPage faults v's page in unless it is resident. Fault cost is
// excluded (traces model a warmed system; DESIGN.md).
func (c *Core) demandPage(v mem.VAddr) {
	if _, _, err := c.as.Touch(v); err != nil {
		panic(fmt.Sprintf("touch %#x: %v", uint64(v), err))
	}
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

// nextRecord returns the next record to execute, or nil when the
// stream has ended. When fewer than lead records would follow it, the
// unexecuted records move to the front of buf and a batch read fills
// the rest.
func (c *Core) nextRecord() *trace.Record {
	if c.pos+c.lead >= c.end && !c.eof {
		n := copy(c.buf, c.buf[c.pos:c.end])
		got := c.stream.Read(c.buf[n:])
		c.pos, c.end, c.eof = 0, n+got, got < len(c.buf)-n
	}
	if c.pos == c.end {
		return nil
	}
	c.pos++
	return &c.buf[c.pos-1]
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

// readPTE reads the page-walk PTE at addr through the core's
// hierarchy at cycle at. An on-chip answer returns its latency and a
// nil request. A miss submits the DRAM page-walk request, the leaf
// carrying the replay line TEMPO reads, and returns it with the
// latency of the on-chip probe that missed.
func (c *Core) readPTE(addr mem.PAddr, isLeaf bool, replayLine, at uint64) (uint64, *dram.Request) {
	c.sys.mem.ApplyFills(at)
	ar := c.hier.Access(addr, false)
	if ar.Served != cache.ServedDRAM {
		return ar.Latency, nil
	}
	req := c.pool.Get()
	req.Addr = addr
	req.Category = stats.DRAMPTW
	req.CoreID = c.id
	req.IsLeafPT = isLeaf
	req.ReplayLine = replayLine
	req.Enqueue = at + ar.Latency + c.sys.machine.Interconnect
	c.sys.ctrl.Submit(req)
	return ar.Latency, req
}

// backgroundPort serves IMP-initiated walks: same datapath and DRAM
// traffic as a demand walk, but the core does not stall (the walk runs
// in the prefetcher's shadow) and no runtime is attributed, so it can
// use the synchronous Walker.Walk instead of parking the state machine.
type backgroundPort struct{ c *Core }

func (p backgroundPort) ReadPTE(paddr mem.PAddr, level int, isLeaf bool, replayLine uint64, at uint64) (uint64, bool) {
	c := p.c
	lat, req := c.readPTE(paddr, isLeaf, replayLine, at)
	if req == nil {
		return lat, false
	}
	c.sys.ctrl.RunUntil(req)
	lat = req.Complete + c.sys.machine.Interconnect - at
	c.submitWritebacks(c.hier.FillFromDRAM(paddr, false))
	c.pool.Release(req)
	return lat, true
}

// prefetchLine fetches line from DRAM toward the LLC in the core's
// shadow, starting at cycle now: the controller serves it at once and
// the line becomes LLC-visible LLCFillExtra after its burst, with
// provenance prov. It issues nothing and returns false when the line
// is already in the LLC.
func (c *Core) prefetchLine(line mem.PAddr, now uint64, prov cache.Provenance) bool {
	m := &c.sys.machine
	c.sys.mem.ApplyFills(now)
	if c.hier.PeekLLC(line) {
		return false
	}
	req := c.pool.Get()
	req.Addr = line
	req.Category = stats.DRAMPrefetch
	req.CoreID = c.id
	req.Enqueue = now + m.Interconnect
	c.sys.ctrl.Submit(req)
	c.sys.ctrl.RunUntil(req)
	c.sys.mem.AddPending(line, req.Complete+m.LLCFillExtra, prov)
	c.pool.Release(req)
	return true
}

// impIssue lets IMP see its lookahead edge, the record
// prefetch.Distance places past the executing one (the stream's last
// record when it ends sooner; none while the last one executes), and
// performs any prefetches it requests: translate (dropping unmapped
// targets, the hardware behaviour on a would-be fault), walking on TLB
// misses in the background, then fetching the line toward the LLC.
func (c *Core) impIssue() {
	ahead := min(c.end-c.pos, prefetch.Distance)
	if ahead == 0 {
		return
	}
	edge := &c.buf[c.pos-1+ahead]
	if !edge.HasValue {
		return
	}
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
		if !c.prefetchLine(p, c.now, cache.FillIMP) {
			continue
		}
		c.st.IMPPrefetches++
		if c.obs.Active() {
			c.obs.Emit(obsv.Event{Kind: obsv.EvIMPPrefetch, Cycle: c.now,
				Core: int16(c.id), Addr: uint64(p)})
		}
	}
}
