package sim

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/obsv"
	"repro/internal/prefetch"
	"repro/internal/ptwalk"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/translation"
	"repro/internal/vm"
	"repro/internal/workload"
)

// openTraceStream loads a whole trace file into memory and returns a
// replayable stream. Loading up front keeps the simulation loop free
// of I/O and lets the run fail fast on a corrupt file.
func openTraceStream(path string) (trace.Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", path, err)
	}
	// Size the record slice once instead of append-growing through
	// repeated reallocations: v2 traces carry an exact record count in
	// the header; for v1 files fall back to a file-size heuristic
	// (records encode in well under 8 bytes each, see TestCompression).
	var size uint64
	if fi, err := f.Stat(); err == nil && fi.Size() > 0 {
		size = uint64(fi.Size())
	}
	capHint := r.Count()
	if capHint == 0 {
		capHint = size / 8
	}
	// The header is untrusted: cap the hint at what the file can hold,
	// a 16-byte v2 header and then at least 4 bytes per record (a flags
	// byte and three uvarints).
	if max := (size - min(size, 16)) / 4; capHint > max {
		capHint = max
	}
	recs := make([]trace.Record, 0, capHint)
	var batch [recordBatch]trace.Record
	for {
		n := r.Read(batch[:])
		recs = append(recs, batch[:n]...)
		if n < len(batch) {
			break
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("sim: %s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("sim: %s: empty trace", path)
	}
	return trace.NewSliceStream(recs), nil
}

// recordBatch is how many records a core reads from its stream at a
// time, beyond IMP's lead.
const recordBatch = 256

// Result is the outcome of one run.
type Result struct {
	// Cores holds per-core stats (runtime attribution, TLB, caches,
	// replay classification).
	Cores []stats.Stats
	// Mem holds memory-side stats (DRAM references by category,
	// row-buffer outcomes, TEMPO engine counters, DRAM commands).
	Mem stats.Stats
	// Total merges everything (Cycles = slowest core).
	Total stats.Stats
	// Superpage is each core's footprint fraction backed by 2MB/1GB
	// pages at end of run.
	Superpage []float64
	// Energy is the modelled energy of the run.
	Energy dram.Energy
	// TempoOn records whether TEMPO was enabled.
	TempoOn bool
	// Mechanism is the rival translation mechanism Config.Mech
	// selected ("" for runs of the default machine, TEMPO on or off,
	// including those that name "tempo"; see MECHANISMS.md).
	Mechanism string
	// MechCounters holds the rival mechanism's mech/<name>/* counters
	// (nil on the default machine, whose results stay byte-identical on
	// the wire for the result cache).
	MechCounters map[string]uint64
}

// IPC returns the run's aggregate instructions per cycle.
func (r *Result) IPC() float64 { return r.Total.IPC() }

// CoreIPC returns one core's IPC (cycles = that core's runtime).
func (r *Result) CoreIPC(i int) float64 { return r.Cores[i].IPC() }

// Audit checks the result against the counter conservation laws: the
// obsv audit over the totals merged with the mechanism's counters
// (which arm the mech/* laws), and the cpi-stack-sums-to-cycles law on
// each core on its own, since in the merged totals one core's surplus
// can hide another's deficit. A core with no CPICycles is unattributed
// (a result cached before attribution) and self-skips, as the merged
// law does. It returns every violation, nil when all hold.
func (r *Result) Audit() []obsv.AuditViolation {
	snap := obsv.StatsSnapshot(&r.Total)
	for name, v := range r.MechCounters {
		snap.Counters[name] = v
	}
	out := obsv.Audit(snap)
	for i := range r.Cores {
		c := &r.Cores[i]
		if attr := c.CPIAttributed(); c.CPICycles > 0 && attr != c.CPICycles {
			out = append(out, obsv.AuditViolation{
				Check: "cpi-stack-sums-to-cycles",
				Detail: fmt.Sprintf("core %d: %d attributed cycles != %d core cycles (diff %+d)",
					i, attr, c.CPICycles, int64(attr)-int64(c.CPICycles)),
			})
		}
	}
	return out
}

// System is one assembled machine ready to run.
type System struct {
	cfg     Config
	machine Machine
	cores   []*Core
	ctrl    *dram.Controller
	mem     *memSys
	mst     *stats.Stats
	// tempo is TEMPO's Prefetch Engine (nil with TEMPO off).
	tempo *core.Engine
	// mech is the run's rival translation mechanism (nil on the
	// default machine).
	mech translation.Mechanism
	// obs is the instrumentation layer Attach wires in (nil = disabled).
	obs *obsv.Observer
}

// New assembles a system from a configuration.
func New(cfg Config) (*System, error) {
	if len(cfg.Workloads) == 0 {
		return nil, errors.New("sim: no workloads configured")
	}
	if cfg.Records <= 0 {
		return nil, errors.New("sim: Records must be positive")
	}
	if err := cfg.validateMachine(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if n := cfg.machineBytes(); n > MaxMachineBytes {
		return nil, fmt.Errorf("sim: the machine's caches, TLBs, MMU caches and DRAM banks need %d bytes of host memory, over the %d-byte limit", n, MaxMachineBytes)
	}
	s := &System{cfg: cfg, machine: cfg.Machine, mst: &stats.Stats{}}

	// Workload streams (generators or trace files), sizing physical
	// memory first.
	var gens []trace.Stream
	var footprints []uint64
	var totalFootprint uint64
	for i, spec := range cfg.Workloads {
		var stream trace.Stream
		var fp uint64
		if spec.TracePath != "" {
			var err error
			if stream, err = openTraceStream(spec.TracePath); err != nil {
				return nil, err
			}
			fp = spec.Footprint
			if fp == 0 {
				fp = workload.DefaultBigFootprint
			}
		} else {
			seed := spec.Seed
			if seed == 0 {
				seed = cfg.Seed*1000 + int64(i) + 1
			}
			g, err := workload.New(spec.Name, workload.Config{FootprintBytes: spec.Footprint, Seed: seed})
			if err != nil {
				return nil, err
			}
			stream, fp = g, g.Footprint()
		}
		// Checked per workload so the sum below cannot overflow.
		if fp > vm.MaxPhysFrames*mem.PageSize {
			return nil, fmt.Errorf("sim: workload %d footprint of %d bytes exceeds the %d-frame physical memory limit", i, fp, uint64(vm.MaxPhysFrames))
		}
		gens = append(gens, stream)
		footprints = append(footprints, fp)
		totalFootprint += fp
	}

	// Shared physical memory and per-core address spaces. Memhog
	// fragmentation is global: applied once, with the first space.
	if cfg.SharedAddressSpace {
		// Threads of one process share the data; physical memory only
		// needs to back one copy.
		totalFootprint = footprints[0]
	}
	frames, err := cfg.physFrames(totalFootprint)
	if err != nil {
		return nil, err
	}
	buddy := vm.NewBuddy(frames)
	var spaces []*vm.AddressSpace
	var readers core.MultiReader
	for i := range cfg.Workloads {
		if cfg.SharedAddressSpace && i > 0 {
			spaces = append(spaces, spaces[0])
			continue
		}
		nspaces := len(cfg.Workloads)
		if cfg.SharedAddressSpace {
			nspaces = 1
		}
		oscfg := vm.OSConfig{
			PhysFrames:      buddy.TotalFrames(),
			Mode:            cfg.OS.Mode,
			THPEligibility:  cfg.OS.THPEligibility,
			ReserveFraction: cfg.OS.ReserveFraction / float64(nspaces),
			Seed:            cfg.Seed*77 + int64(i),
		}
		if i == 0 {
			oscfg.MemhogFraction = cfg.OS.MemhogFraction
		}
		as, err := vm.NewAddressSpaceShared(oscfg, buddy)
		if err != nil {
			return nil, fmt.Errorf("sim: core %d address space: %w", i, err)
		}
		spaces = append(spaces, as)
		readers = append(readers, as.Table())
	}

	// Memory controller with scheduler and TEMPO.
	dcfg := cfg.dramConfig()
	var scheduler dram.Scheduler
	switch cfg.Scheduler {
	case SchedBLISS:
		var b *sched.BLISS
		if cfg.Tempo.Enabled && cfg.Tempo.SchedulerAware {
			b = sched.NewTempoBLISS()
			b.PrefetchWeight = cfg.BLISSPrefetchWeight
			b.GracePeriod = cfg.BLISSGracePeriod
		} else {
			b = sched.NewBLISS()
		}
		scheduler = b
	default:
		if cfg.Tempo.Enabled && cfg.Tempo.SchedulerAware {
			scheduler = sched.NewTempoFRFCFS()
		} else {
			scheduler = sched.NewFRFCFS()
		}
	}
	s.ctrl = dram.NewController(dcfg, scheduler, s.mst)
	switch cfg.SubRowPolicy {
	case SubRowFOA:
		s.ctrl.SubAlloc = dram.NewFOA(len(cfg.Workloads))
	case SubRowPOA:
		s.ctrl.SubAlloc = dram.NewPOA(len(cfg.Workloads))
	}

	// Shared LLC and the memory-side fill path.
	llc := cache.New(s.machine.Caches.LLC)
	s.mem = &memSys{llc: llc, ctrl: s.ctrl, st: s.mst, pool: s.ctrl.Pool()}

	// A rival translation mechanism (MECHANISMS.md), if Mech names
	// one: one translation mechanism per run.
	if s.mech, err = translation.New(cfg.Mech); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if s.mech != nil && cfg.Tempo.Enabled {
		return nil, fmt.Errorf("sim: translation: %s: mechanism is exclusive of -tempo (one translation mechanism per run)", cfg.Mech)
	}

	// TEMPO's Prefetch Engine sits in the memory controller (paper
	// Section 4): it parses the leaf-PTE bursts of page walks and
	// prefetches the data they point to into the row buffer and, with
	// LLCPrefetch, the LLC.
	if cfg.Tempo.Enabled {
		s.tempo = core.NewEngine(readers, s.mst)
		s.tempo.Pool = s.ctrl.Pool()
		s.ctrl.Observer = s.tempo
		if cfg.Tempo.LLCPrefetch {
			s.ctrl.OnPrefetchDone = func(r *dram.Request) {
				s.mem.AddPending(r.Addr, r.Complete+s.machine.LLCFillExtra, cache.FillTempo)
			}
		}
	}

	// Cores.
	for i := range cfg.Workloads {
		cst := &stats.Stats{}
		c := &Core{
			id:      i,
			sys:     s,
			as:      spaces[i],
			tlb:     tlb.New(s.machine.TLB),
			walker:  ptwalk.New(spaces[i].Table(), tlb.NewMMUCache(s.machine.MMU), cst),
			hier:    cache.NewHierarchyShared(s.machine.Caches, llc, cst),
			stream:  gens[i],
			st:      cst,
			records: cfg.Records,
			pool:    s.ctrl.Pool(),
			lone:    len(cfg.Workloads) == 1,
		}
		if cfg.IMP {
			c.imp = prefetch.New()
			c.lead = prefetch.Distance
		}
		c.buf = make([]trace.Record, min(cfg.Records, recordBatch)+c.lead)
		if s.mech != nil {
			c.mech = s.mech.NewCore(i, mechPort{c})
		}
		s.cores = append(s.cores, c)
	}
	return s, nil
}

// errDeadlock reports cores parked on requests that an empty memory
// queue can never complete.
var errDeadlock = errors.New("sim: deadlock — cores parked on an empty memory queue")

// Core scheduling states of the coordinator loop.
const (
	stReady = iota
	stParked
	stDone
)

// Run executes the configured number of records on every core and
// returns the collected results. It may be called once per System.
func (s *System) Run() (*Result, error) {
	n := len(s.cores)
	status := make([]int, n)
	waitReq := make([]*dram.Request, n)
	// clock is the coordinator's view of each core's time, used only
	// for picking the next core to run; the cores own their real
	// clocks (c.now).
	clock := make([]uint64, n)
	// Interval stats: flush a registry snapshot every IntervalEvery
	// completed records (summed across cores).
	var recordsDone, intervalEvery uint64
	if s.obs != nil {
		intervalEvery = s.obs.IntervalEvery
	}
	for {
		// Wake parked cores whose requests completed (possibly via
		// another core's drain).
		for i := range s.cores {
			if status[i] == stParked && waitReq[i].Done {
				status[i] = stReady
				clock[i] = waitReq[i].Complete
				waitReq[i] = nil
			}
		}
		// Resume the ready core with the smallest clock. step runs the
		// core inline up to its next yield point; exactly one core
		// executes at a time, preserving the deterministic interleaving
		// of the old goroutine-per-core coordinator.
		pick := -1
		for i := range s.cores {
			if status[i] == stReady && (pick < 0 || clock[i] < clock[pick]) {
				pick = i
			}
		}
		if pick >= 0 {
			// Run-ahead horizon: the largest clock at which the picked
			// core would still win this pick loop. Ties go to the lower
			// index, so against a lower-indexed ready core the picked
			// core must stay strictly below its clock (clock[j] >
			// clock[pick] here, so the decrement cannot underflow).
			// Parked cores are covered separately: step stops batching
			// the moment the controller completes a request a core is
			// parked on (the served-waiter count), and only this wake
			// loop can make them ready again.
			limit := ^uint64(0)
			for j := range s.cores {
				if j == pick || status[j] != stReady {
					continue
				}
				l := clock[j]
				if j < pick {
					l--
				}
				if l < limit {
					limit = l
				}
			}
			// Batch at most up to the next interval-stats boundary so
			// flushes happen at exactly the same record counts as
			// unbatched execution.
			budget := ^uint64(0)
			if intervalEvery > 0 {
				budget = intervalEvery - recordsDone%intervalEvery
			}
			c := s.cores[pick]
			st, req, n := c.step(limit, budget)
			recordsDone += n
			if intervalEvery > 0 && n > 0 && recordsDone%intervalEvery == 0 {
				if err := s.flushInterval(recordsDone); err != nil {
					return nil, fmt.Errorf("sim: interval stats: %w", err)
				}
			}
			switch st {
			case coreStep:
				clock[pick] = c.now
			case coreWait:
				status[pick] = stParked
				waitReq[pick] = req
			case coreDone:
				status[pick] = stDone
				if c.err != nil {
					return nil, c.err
				}
			}
			continue
		}
		// No core can run: either serve memory or we are finished.
		anyParked := false
		for i := range status {
			if status[i] == stParked {
				anyParked = true
				break
			}
		}
		if !anyParked {
			break
		}
		if s.ctrl.QueueLen() == 0 {
			return nil, errDeadlock
		}
		s.ctrl.ServeOne()
	}
	s.ctrl.Drain()
	// Late prefetch fills may evict dirty victims, which become write
	// transactions needing one more drain round.
	s.mem.ApplyFills(^uint64(0))
	s.ctrl.Drain()
	// Flush the final partial epoch so the series covers the whole run.
	if intervalEvery > 0 && recordsDone%intervalEvery != 0 {
		if err := s.flushInterval(recordsDone); err != nil {
			return nil, fmt.Errorf("sim: interval stats: %w", err)
		}
	}

	res := &Result{TempoOn: s.cfg.Tempo.Enabled}
	for _, c := range s.cores {
		c.st.Cycles = c.now
		// CPICycles sums under Stats.Add (Cycles maxes), making it the
		// per-core denominator the cpi-stack-sums-to-cycles law checks.
		c.st.CPICycles = c.now
		for cl, b := range c.as.FootprintBytes() {
			c.st.FootprintBytes[cl] = b
		}
		res.Cores = append(res.Cores, *c.st)
		res.Superpage = append(res.Superpage, c.as.SuperpageFraction())
	}
	res.Mem = *s.mst
	res.Total = res.Mem
	for i := range res.Cores {
		res.Total.Add(&res.Cores[i])
	}
	res.Energy = s.machine.Energy.Account(&res.Total, s.cfg.Tempo.Enabled)
	if s.mech != nil {
		res.Mechanism = s.mech.Name()
		res.MechCounters = map[string]uint64{}
		s.mech.CountersInto(func(name string, v uint64) {
			res.MechCounters[name] = v
		})
		res.Energy.MechJ = s.mech.EnergyJ()
	}
	return res, nil
}

// Run is the convenience one-shot: assemble and execute.
func Run(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// ParallelStats counts the records a simulation ran on worker threads
// (EpochRecords) and its failed attempts to do so (BarrierStalls).
// Every simulation runs on one goroutine, so both are always zero.
//
// Deprecated: no simulation runs on worker threads; the type remains
// for existing callers only.
type ParallelStats struct {
	EpochRecords  uint64
	BarrierStalls uint64
}

// ParallelStats returns a zero ParallelStats.
//
// Deprecated: see ParallelStats.
func (s *System) ParallelStats() ParallelStats { return ParallelStats{} }
