// Package sim assembles the full TEMPO system — address spaces, TLBs,
// walkers, caches, the DRAM controller with the TEMPO engine, and one
// trace-replay core per workload — and executes runs. Multi-core runs
// share the LLC, physical memory and memory controller; a deterministic
// coordinator interleaves cores in timestamp order and drives the
// memory scheduler whenever every core is blocked on DRAM, which is
// what lets FR-FCFS/BLISS reordering and TEMPO's transaction-queue
// policies act on realistically deep queues.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/tlb"
	"repro/internal/vm"
)

// SchedulerKind selects the memory scheduler.
type SchedulerKind uint8

const (
	// SchedFRFCFS is first-ready FCFS (the main-results scheduler).
	SchedFRFCFS SchedulerKind = iota
	// SchedBLISS is the blacklisting fairness scheduler.
	SchedBLISS
)

// SubRowPolicyKind selects how sub-row buffers are partitioned.
type SubRowPolicyKind uint8

const (
	// SubRowShared leaves sub-rows in a common pool (minus TEMPO's
	// prefetch reservation).
	SubRowShared SubRowPolicyKind = iota
	// SubRowFOA uses Fairness-Oriented Allocation.
	SubRowFOA
	// SubRowPOA uses Performance-Oriented Allocation.
	SubRowPOA
)

// Machine collects the microarchitectural parameters (the simulator's
// stand-in for the paper's Figure 9).
type Machine struct {
	TLB    tlb.Config
	MMU    tlb.MMUCacheConfig
	Caches cache.HierarchyConfig
	DRAM   dram.Config
	Energy dram.EnergyModel

	// NonMemIPC is how many non-memory instructions retire per cycle.
	NonMemIPC int
	// L2TLBPenalty is the extra latency of an STLB hit.
	L2TLBPenalty uint64
	// ReplayRestart is the TLB-fill plus pipeline-replay latency
	// between walk completion and the replay's first cache lookup —
	// the source of TEMPO's slack window (the paper cites 120+ cycles
	// for the full restart-to-LLC-lookup path on Skylake).
	ReplayRestart uint64
	// Interconnect is the one-way on-chip latency between the LLC and
	// the memory controller.
	Interconnect uint64
	// LLCFillExtra is the latency from DRAM completion until a
	// prefetched line is usable in the LLC.
	LLCFillExtra uint64
	// OtherOverlap is the fraction of an independent demand miss's
	// DRAM time that stalls the core: an out-of-order window overlaps
	// part of such misses with useful work, whereas a TLB miss (and
	// the walk + replay behind it) serialises the pipeline — the
	// asymmetry the paper's motivation rests on.
	OtherOverlap float64
}

// DefaultMachine returns the configuration from DESIGN.md.
func DefaultMachine() Machine {
	return Machine{
		TLB:           tlb.DefaultConfig(),
		MMU:           tlb.DefaultMMUCacheConfig(),
		Caches:        cache.DefaultHierarchyConfig(),
		DRAM:          dram.DefaultConfig(),
		Energy:        dram.DefaultEnergyModel(),
		NonMemIPC:     2,
		L2TLBPenalty:  9,
		ReplayRestart: 90,
		Interconnect:  20,
		LLCFillExtra:  25,
		OtherOverlap:  0.42,
	}
}

// WorkloadSpec is one core's workload: either a named synthetic
// generator or a recorded trace file (TracePath set).
type WorkloadSpec struct {
	Name string
	// Footprint overrides the workload default when non-zero. For
	// trace files it sizes physical memory (default: the span of
	// addresses the trace touches is unknown up front, so set it to
	// the footprint the trace was generated with).
	Footprint uint64
	// Seed varies the trace (defaults to 1 + core index).
	Seed int64
	// TracePath, when set, replays a trace captured by tempo-trace
	// instead of running the named generator.
	TracePath string
}

// TempoConfig switches the paper's mechanism and its ablations.
type TempoConfig struct {
	// Enabled turns the whole mechanism on (walker tagging is always
	// present; the controller only acts when enabled).
	Enabled bool
	// LLCPrefetch enables the LLC half of the prefetch; false leaves
	// only row-buffer prefetching (an ablation the paper's Figure 11
	// implies).
	LLCPrefetch bool
	// PTRowWait is the Figure 15 design point (cycles).
	PTRowWait uint64
	// SchedulerAware enables the Section 4.3 transaction-queue
	// policies (PT grouping, prefetch bonding, grace periods) in the
	// memory scheduler. Off leaves the baseline scheduler untouched —
	// an ablation of TEMPO's scheduling half.
	SchedulerAware bool
}

// DefaultTempo returns the paper's configuration: both prefetch
// destinations, 10-cycle PT-row wait.
func DefaultTempo() TempoConfig {
	return TempoConfig{Enabled: true, LLCPrefetch: true, PTRowWait: 10, SchedulerAware: true}
}

// OSPolicy selects the paging configuration (Figure 13's axis).
type OSPolicy struct {
	Mode            vm.PageMode
	MemhogFraction  float64
	THPEligibility  float64
	ReserveFraction float64
}

// DefaultOSPolicy is THP with no artificial fragmentation — the
// paper's main-results setting.
func DefaultOSPolicy() OSPolicy {
	return OSPolicy{Mode: vm.ModeTHP, THPEligibility: 0.62, ReserveFraction: 0.80}
}

// Config is one complete run description.
type Config struct {
	Workloads []WorkloadSpec
	// Records is the trace length per core.
	Records int
	Machine Machine
	OS      OSPolicy
	// PhysFrames overrides the physical memory size (default: twice
	// the summed footprint).
	PhysFrames uint64

	Tempo TempoConfig
	// IMP enables the indirect prefetcher on every core.
	IMP bool

	// Mech selects the translation-path mechanism by name
	// (internal/translation; see MECHANISMS.md). Empty and "tempo" both
	// select the default machine, whose TEMPO engine Tempo.Enabled
	// switches; the field is omitted from the cache-hash JSON when
	// empty, so existing cached results keep their keys, and
	// runner.ConfigKey hashes "tempo" as empty, so both spellings share
	// one key. Rival mechanisms ("victima", "revelator") require
	// Tempo.Enabled to be false.
	Mech string `json:"Mech,omitempty"`

	Scheduler SchedulerKind
	// BLISSPrefetchWeight is the streak increment for TEMPO
	// prefetches (demand weight is 2); only used with SchedBLISS.
	BLISSPrefetchWeight int
	// BLISSGracePeriod is the post-prefetch stream-stickiness.
	BLISSGracePeriod uint64

	// SubRows > 1 splits each row buffer into that many sub-rows, at
	// most 16; PrefetchSubRows reserves the first ones for TEMPO.
	SubRows         int
	PrefetchSubRows int
	SubRowPolicy    SubRowPolicyKind

	// SharedAddressSpace makes every core share core 0's address
	// space and page table — a multithreaded application (the paper's
	// workloads are multithreaded on a 32-core machine). Distinct
	// per-core seeds still give each "thread" its own access stream
	// over the shared data.
	SharedAddressSpace bool

	// Seed namespaces all derived seeds (OS, workloads).
	Seed int64

	// Workers is read by nothing: every simulation runs on one
	// goroutine. It stays out of the JSON the runner's result cache
	// hashes, so configs that set it keep their cache entries.
	//
	// Deprecated: setting it has no effect.
	Workers int `json:"-"`
}

// DefaultConfig builds a single-core run of the named workload with
// the baseline machine (TEMPO off).
func DefaultConfig(workload string) Config {
	return Config{
		Workloads:           []WorkloadSpec{{Name: workload}},
		Records:             200_000,
		Machine:             DefaultMachine(),
		OS:                  DefaultOSPolicy(),
		Scheduler:           SchedFRFCFS,
		BLISSPrefetchWeight: 1,
		BLISSGracePeriod:    15,
		Seed:                1,
	}
}

// validateMachine reports every machine structure that cannot be
// built: cache, TLB and MMU-cache geometries, the DRAM organisation
// with the run's sub-rows, DRAM refresh timing that would never
// advance, core timing that would divide by zero or step the clock
// back, and latencies over MaxLatency. Machines arrive in tempo-serve
// job JSON, so a bad one must fail the run with an error, not a panic
// or a hang.
func (c *Config) validateMachine() error {
	m := &c.Machine
	errs := []error{m.Caches.L1.Validate(), m.Caches.L2.Validate(), m.Caches.LLC.Validate(),
		m.TLB.Validate(), m.MMU.Validate(), c.dramConfig().Geometry.Validate(), m.DRAM.Timing.Validate()}
	if !(m.OtherOverlap >= 0 && m.OtherOverlap <= 1) { // NaN fails too
		errs = append(errs, fmt.Errorf("OtherOverlap %v is outside [0, 1]", m.OtherOverlap))
	}
	if m.NonMemIPC < 1 {
		errs = append(errs, fmt.Errorf("NonMemIPC %d is below 1", m.NonMemIPC))
	}
	t := &m.DRAM.Timing
	for _, l := range []struct {
		name   string
		cycles uint64
	}{
		{"L1 LatencyC", m.Caches.L1.LatencyC}, {"L2 LatencyC", m.Caches.L2.LatencyC},
		{"LLC LatencyC", m.Caches.LLC.LatencyC}, {"L2TLBPenalty", m.L2TLBPenalty},
		{"ReplayRestart", m.ReplayRestart}, {"Interconnect", m.Interconnect},
		{"LLCFillExtra", m.LLCFillExtra}, {"DRAM TRCD", t.TRCD}, {"DRAM TRP", t.TRP},
		{"DRAM TCL", t.TCL}, {"DRAM TBurst", t.TBurst}, {"DRAM TFAW", t.TFAW},
		{"DRAM TRFC", t.TRFC}, {"PTRowWait", c.dramConfig().PTRowWait},
	} {
		if l.cycles > MaxLatency {
			errs = append(errs, fmt.Errorf("%s of %d cycles is over the %d-cycle limit", l.name, l.cycles, MaxLatency))
		}
	}
	return errors.Join(errs...)
}

// MaxLatency caps each latency a run adds to a clock: the caches'
// LatencyC, L2TLBPenalty, ReplayRestart, Interconnect, LLCFillExtra,
// the DRAM timing's TRCD, TRP, TCL, TBurst, TFAW and TRFC, and TEMPO's
// PT-row wait. It is 2^20 cycles, about 330µs at 3.2GHz and over 900
// times the largest shipped latency (TRFC, 1,120 cycles). Far larger
// latencies stall Run: on every serve the memory controller catches
// refresh up to the request's cycle one TREFI at a time, and at 2^62
// cycles a 1,000-record run did not finish in 5s. TREFI is an
// interval, not a latency: a huge one only postpones refresh.
const MaxLatency = 1 << 20

// MaxMachineBytes caps the host memory of a machine's caches, TLBs,
// MMU caches and DRAM banks, the structures New allocates in full from
// the machine's geometry: 256 MiB, about 190 times the default
// single-core machine. Machines arrive in tempo-serve job JSON, so a
// well-formed but huge one must fail the run with an error, not
// exhaust the host.
const MaxMachineBytes = 256 << 20

// machineBytes returns the host memory the machine's caches, TLBs, MMU
// caches and DRAM banks take, with every core's private L1, L2, TLB
// and MMU caches counted, or math.MaxUint64 if that overflows. The
// machine must be valid.
func (c *Config) machineBytes() uint64 {
	m := &c.Machine
	var total uint64
	add := func(n uint64) {
		var carry uint64
		if total, carry = bits.Add64(total, n, 0); carry != 0 {
			total = math.MaxUint64
		}
	}
	add(m.Caches.LLC.HostBytes())
	add(c.dramConfig().HostBytes())
	for _, n := range []uint64{m.Caches.L1.HostBytes(), m.Caches.L2.HostBytes(), m.TLB.HostBytes(), m.MMU.HostBytes()} {
		hi, perCores := bits.Mul64(n, uint64(len(c.Workloads)))
		if hi != 0 {
			return math.MaxUint64
		}
		add(perCores)
	}
	return total
}

// dramConfig returns the memory controller's configuration: the
// machine's DRAM with the run's PT-row wait and sub-rows applied.
func (c *Config) dramConfig() dram.Config {
	dcfg := c.Machine.DRAM
	dcfg.PTRowWait = c.Tempo.PTRowWait
	if !c.Tempo.Enabled {
		dcfg.PTRowWait = 0
	}
	if c.SubRows > 1 {
		dcfg.Geometry.SubRows = c.SubRows
		if c.Tempo.Enabled {
			dcfg.Geometry.PrefetchSubRows = c.PrefetchSubRows
		}
	}
	return dcfg
}

// physFrames returns the modelled physical memory size in frames. It
// fails when the explicit or derived size exceeds vm.MaxPhysFrames.
func (c *Config) physFrames(totalFootprint uint64) (uint64, error) {
	if c.PhysFrames != 0 {
		if c.PhysFrames > vm.MaxPhysFrames {
			return 0, fmt.Errorf("sim: PhysFrames %d exceeds the %d-frame limit", c.PhysFrames, uint64(vm.MaxPhysFrames))
		}
		return c.PhysFrames, nil
	}
	// Twice the footprint, in frames; dividing first cannot overflow.
	frames := totalFootprint / (mem.PageSize / 2)
	if frames > vm.MaxPhysFrames {
		return 0, fmt.Errorf("sim: footprint of %d bytes needs %d frames, over the %d-frame limit", totalFootprint, frames, uint64(vm.MaxPhysFrames))
	}
	const min = 1 << 16 // 256MB floor
	if frames < min {
		return min, nil
	}
	return frames, nil
}
