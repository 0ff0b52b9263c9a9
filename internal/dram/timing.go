package dram

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/stats"
)

// Timing holds DDR timing parameters expressed in CPU cycles (the
// simulator keeps a single clock domain; see DESIGN.md for the ns
// equivalences — row hits land near 18ns, misses ~32ns, conflicts
// ~46ns at 3.2GHz, inside the paper's 10–15ns / 30–50ns envelopes).
type Timing struct {
	TRCD   uint64 // ACT to column command
	TRP    uint64 // PRECHARGE
	TCL    uint64 // column access (CAS)
	TBurst uint64 // data burst on the channel

	// TFAW is the four-activate window: at most four ACTs may issue
	// on one rank within any TFAW-cycle window. Zero disables it.
	TFAW uint64

	// TREFI is the refresh interval: every TREFI cycles the rank
	// performs an all-bank auto-refresh taking TRFC cycles, during
	// which its banks are unavailable and every row buffer is
	// precharged. TRFC = 0 disables refresh.
	TREFI uint64
	TRFC  uint64
}

// DefaultTiming returns the DDR-class parameters from DESIGN.md
// (7.8µs tREFI / 350ns tRFC equivalents at 3.2GHz).
func DefaultTiming() Timing {
	return Timing{TRCD: 45, TRP: 45, TCL: 45, TBurst: 13, TFAW: 96, TREFI: 25_000, TRFC: 1_120}
}

// Validate reports timing the controller cannot run: with refresh on
// (TRFC > 0), a TREFI of 0 would schedule every refresh at cycle
// TREFI and never move on.
func (t Timing) Validate() error {
	if t.TRFC > 0 && t.TREFI == 0 {
		return fmt.Errorf("dram: refresh of %d cycles needs a TREFI of at least 1", t.TRFC)
	}
	return nil
}

// HitLatency is the service latency of a row-buffer hit.
func (t Timing) HitLatency() uint64 { return t.TCL + t.TBurst }

// MissLatency is the service latency when the bank is precharged
// (closed): ACT + CAS, with no PRECHARGE on the critical path.
func (t Timing) MissLatency() uint64 { return t.TRCD + t.TCL + t.TBurst }

// ConflictLatency is the service latency when a different row is open:
// PRECHARGE + ACT + CAS.
func (t Timing) ConflictLatency() uint64 {
	return t.TRP + t.TRCD + t.TCL + t.TBurst
}

// latency is the service latency of an access with the given outcome.
func (t Timing) latency(o stats.RowOutcome) uint64 {
	switch o {
	case stats.RowHit:
		return t.HitLatency()
	case stats.RowConflict:
		return t.ConflictLatency()
	}
	return t.MissLatency()
}

// ConflictExtra is the critical-path penalty a row conflict pays over
// a plain row miss: the PRECHARGE of the previously open row. The CPI
// stack's row-conflict-extra bucket charges this portion of a
// conflicting access's service time separately from the array access
// itself.
func (t Timing) ConflictExtra() uint64 { return t.TRP }

// RowPolicy selects the row-buffer management strategy (Section 4.3 of
// the paper evaluates TEMPO under all three).
type RowPolicy uint8

const (
	// PolicyAdaptive keeps rows open for a predicted window
	// (prediction-cache based, after Awasthi et al. [17]).
	PolicyAdaptive RowPolicy = iota
	// PolicyOpen leaves rows open until a conflicting access.
	PolicyOpen
	// PolicyClosed precharges immediately after every access.
	PolicyClosed
)

// String implements fmt.Stringer.
func (p RowPolicy) String() string {
	switch p {
	case PolicyAdaptive:
		return "adaptive-row"
	case PolicyOpen:
		return "open-row"
	case PolicyClosed:
		return "closed-row"
	default:
		return "RowPolicy(?)"
	}
}

// Geometry describes the DRAM organisation.
type Geometry struct {
	Channels   int
	BanksPerCh int
	RowBytes   uint64 // row-buffer size per bank (8KB default)

	// Sub-row buffers (Section 4.4): when SubRows > 1 each bank's row
	// buffer is replaced by SubRows buffers of RowBytes/SubRows each.
	SubRows int
	// PrefetchSubRows dedicates this many sub-rows to TEMPO
	// prefetches (the paper finds 2 of 8 best).
	PrefetchSubRows int
}

// DefaultGeometry returns 2 channels × 8 banks with 8KB rows and a
// single (whole-row) buffer per bank.
func DefaultGeometry() Geometry {
	return Geometry{Channels: 2, BanksPerCh: 8, RowBytes: 8 << 10, SubRows: 1}
}

// Location is a decoded physical address.
type Location struct {
	Channel int
	Bank    int
	Row     uint64
	// Col is the byte offset within the row.
	Col uint64
}

// Segment returns the sub-row segment index for the location under
// the given geometry.
func (l Location) Segment(g Geometry) int {
	if g.SubRows <= 1 {
		return 0
	}
	return int(l.Col / (g.RowBytes / uint64(g.SubRows)))
}

// Decode maps a physical address to its DRAM location. The mapping
// keeps each row's RowBytes physically contiguous (so an 8KB row holds
// two adjacent 4KB pages, as in the paper's Figure 8 example), then
// interleaves rows across channels and banks.
func (g Geometry) Decode(p mem.PAddr) Location {
	a := uint64(p)
	col := a % g.RowBytes
	rowGlobal := a / g.RowBytes
	ch := int(rowGlobal % uint64(g.Channels))
	rowGlobal /= uint64(g.Channels)
	bank := int(rowGlobal % uint64(g.BanksPerCh))
	row := rowGlobal / uint64(g.BanksPerCh)
	return Location{Channel: ch, Bank: bank, Row: row, Col: col}
}
