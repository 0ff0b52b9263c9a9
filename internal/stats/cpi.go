package stats

import "fmt"

// CPIBucket names one slice of the per-core CPI stack (OBSERVABILITY.md
// "CPI stacks"). Every cycle a core's clock advances is charged to
// exactly one bucket at the point the clock moves, so the buckets sum
// to the core's total cycles — the cpi-stack-sums-to-cycles
// conservation law the audit enforces.
type CPIBucket uint8

const (
	// CPICompute: instruction-gap cycles between memory references
	// (Gap / NonMemIPC, rounded up).
	CPICompute CPIBucket = iota
	// CPITLBL2: the L2 TLB hit penalty on L1-TLB misses that hit L2.
	CPITLBL2
	// CPIWalkMMU: on-chip walker machinery — per-reference step
	// overhead (pointer chase, address formation), the post-walk TLB
	// fill + pipeline replay-restart window, and mechanism-resolved
	// translations' fixed costs.
	CPIWalkMMU
	// CPIWalkPTECache: walk PTE reads served by the cache hierarchy
	// (including the on-chip probe portion of PTE reads that went on
	// to DRAM).
	CPIWalkPTECache
	// CPIWalkPTEDRAM: the DRAM round-trip portion of walk PTE reads
	// (interconnect + queue + array service).
	CPIWalkPTEDRAM
	// CPIDataL1: demand data accesses served by the L1.
	CPIDataL1
	// CPIDataL2: demand data accesses served by the L2.
	CPIDataL2
	// CPIDataLLC: demand data accesses served by the LLC, plus the
	// LLC-probe portion of accesses that went on to DRAM.
	CPIDataLLC
	// CPIDataDRAMQueue: cycles a stalling demand access spent queued in
	// the memory controller before its bank began serving it.
	CPIDataDRAMQueue
	// CPIDataDRAMService: the DRAM array service + interconnect portion
	// of stalling demand accesses (row-conflict precharge excluded).
	CPIDataDRAMService
	// CPIRowConflictExtra: the precharge penalty demand accesses paid
	// because a different row was open (the slice TEMPO's row-buffer
	// locality attacks).
	CPIRowConflictExtra

	// NumCPIBuckets is the bucket count; CPIStack arrays use it.
	NumCPIBuckets
)

// String returns the bucket's canonical dashed name (the labels the
// CPI table and stacked-bar figure use).
func (b CPIBucket) String() string {
	switch b {
	case CPICompute:
		return "compute"
	case CPITLBL2:
		return "tlb-l2"
	case CPIWalkMMU:
		return "walk-mmu"
	case CPIWalkPTECache:
		return "walk-pte-cache"
	case CPIWalkPTEDRAM:
		return "walk-pte-dram"
	case CPIDataL1:
		return "data-l1"
	case CPIDataL2:
		return "data-l2"
	case CPIDataLLC:
		return "data-llc"
	case CPIDataDRAMQueue:
		return "data-dram-queue"
	case CPIDataDRAMService:
		return "data-dram-service"
	case CPIRowConflictExtra:
		return "row-conflict-extra"
	default:
		return fmt.Sprintf("CPIBucket(%d)", uint8(b))
	}
}

// CPIAttributed returns the sum of the CPI-stack buckets — by the
// conservation law, equal to CPICycles on any attributed Stats.
func (s *Stats) CPIAttributed() uint64 {
	var sum uint64
	for _, v := range s.CPIStack {
		sum += v
	}
	return sum
}
