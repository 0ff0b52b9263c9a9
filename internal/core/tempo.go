// Package core implements the paper's primary contribution: the TEMPO
// prefetch engine that sits in the memory controller. When a tagged
// leaf page-table read is serviced from DRAM, the engine reads the PTE
// out of the just-fetched line, extracts the physical page the
// translation points to, concatenates it with the replay's cache-line
// index (forwarded by the page-table walker), and emits a prefetch for
// the replay's exact address — non-speculative by construction
// (Section 3, "Prefetching accuracy").
package core

import (
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/obsv"
	"repro/internal/stats"
	"repro/internal/vm"
)

// PTEReader lets the engine read a page-table entry from a physical
// address — the hardware analogue is parsing the DRAM burst that
// serviced the walk. It returns the entry, the level of the table page
// it lives in, and whether the address is inside a page-table page at
// all. vm.PageTable implements it; multiprogrammed systems combine one
// reader per address space.
type PTEReader interface {
	ReadPTE(p mem.PAddr) (vm.PTE, int, bool)
}

// MultiReader dispatches across several address spaces' page tables
// (frames are globally unique, so at most one reader resolves).
type MultiReader []PTEReader

// ReadPTE implements PTEReader.
func (m MultiReader) ReadPTE(p mem.PAddr) (vm.PTE, int, bool) {
	for _, r := range m {
		if pte, lvl, ok := r.ReadPTE(p); ok {
			return pte, lvl, ok
		}
	}
	return vm.PTE{}, 0, false
}

// Engine is TEMPO's Prefetch Engine finite-state machine. It
// implements dram.PTObserver: the controller invokes it for every
// tagged leaf-PT read serviced by DRAM, and enqueues whatever request
// it returns.
type Engine struct {
	reader PTEReader
	st     *stats.Stats

	// Pool, when set, supplies recycled prefetch requests (wired to the
	// owning controller's pool by the simulator) so the engine emits no
	// steady-state allocations. Nil falls back to fresh requests.
	Pool *dram.Pool

	// Rec, when non-nil, receives trigger/prefetch events (a trigger
	// instant per tagged leaf-PT read with A=1 when a prefetch was
	// emitted, and the prefetch instant with its replay target). Nil-safe
	// obsv hook.
	Rec *obsv.Recorder
}

// NewEngine builds the engine. st is the memory-system stats sink.
func NewEngine(reader PTEReader, st *stats.Stats) *Engine {
	if reader == nil || st == nil {
		panic("core: engine needs a PTE reader and stats")
	}
	return &Engine{reader: reader, st: st}
}

// classBytes maps a leaf level to its page size in bytes.
func classBytes(level int) (uint64, bool) {
	switch level {
	case 1:
		return mem.Page4K.Bytes(), true
	case 2:
		return mem.Page2M.Bytes(), true
	case 3:
		return mem.Page1G.Bytes(), true
	default:
		return 0, false
	}
}

// OnLeafPTServed implements dram.PTObserver. It returns the replay
// prefetch, or nil when the translation is unallocated (the paper's
// page-fault guard, Section 4.5) or malformed.
func (e *Engine) OnLeafPTServed(r *dram.Request, completion uint64) *dram.Request {
	e.st.TempoTriggers++
	pte, level, ok := e.reader.ReadPTE(r.Addr)
	if !ok || !pte.Present || !pte.Leaf {
		e.suppress(r, completion)
		return nil
	}
	size, ok := classBytes(level)
	if !ok {
		e.suppress(r, completion)
		return nil
	}
	// The replay's address: the translated physical page base plus
	// the forwarded cache-line index, masked to the page size.
	offset := (r.ReplayLine << mem.LineShift) & (size - 1)
	target := pte.Frame.Addr() + mem.PAddr(offset)
	e.st.TempoPrefetches++
	var pf *dram.Request
	if e.Pool != nil {
		pf = e.Pool.Get()
	} else {
		pf = &dram.Request{}
	}
	pf.Addr = target.Line()
	pf.CoreID = r.CoreID
	pf.Enqueue = completion
	if e.Rec.Active() {
		e.Rec.Emit(obsv.Event{Kind: obsv.EvTempoTrigger, Cycle: completion,
			Core: int16(r.CoreID), Addr: uint64(r.Addr), A: 1})
		e.Rec.Emit(obsv.Event{Kind: obsv.EvTempoPrefetch, Cycle: completion,
			Core: int16(r.CoreID), Addr: uint64(pf.Addr), Aux: r.ReplayLine})
	}
	return pf
}

// suppress records a trigger that emitted no prefetch (the paper's
// page-fault guard or a malformed entry).
func (e *Engine) suppress(r *dram.Request, completion uint64) {
	e.st.TempoSuppressed++
	if e.Rec.Active() {
		e.Rec.Emit(obsv.Event{Kind: obsv.EvTempoTrigger, Cycle: completion,
			Core: int16(r.CoreID), Addr: uint64(r.Addr), A: 0})
	}
}
