package sim

import (
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/stats"
)

// pendingFill is a prefetched line travelling from the DRAM burst to
// the LLC; it becomes visible at ready.
type pendingFill struct {
	addr  mem.PAddr
	ready uint64
	prov  cache.Provenance
}

// memSys owns the shared memory-side state: the LLC fill path for
// prefetches and the memory-side stats sink.
type memSys struct {
	llc  *cache.Cache
	ctrl *dram.Controller
	st   *stats.Stats
	pool *dram.Pool

	pending []pendingFill
}

// AddPending registers a prefetched line that becomes LLC-visible at
// the given cycle.
func (m *memSys) AddPending(addr mem.PAddr, ready uint64, prov cache.Provenance) {
	m.pending = append(m.pending, pendingFill{addr: addr, ready: ready, prov: prov})
}

// ApplyFills installs every pending line whose fill completes at or
// before now. Cores call it before each cache lookup so prefetch
// timeliness is judged against the lookup's own clock.
func (m *memSys) ApplyFills(now uint64) {
	if len(m.pending) == 0 {
		return
	}
	// Keep arrival order stable: fills apply oldest-first. The list is
	// short and nearly sorted, so a stable insertion sort (same
	// permutation sort.SliceStable would produce) runs on the hot path
	// without the closure allocations of the sort package.
	for i := 1; i < len(m.pending); i++ {
		f := m.pending[i]
		j := i - 1
		for j >= 0 && m.pending[j].ready > f.ready {
			m.pending[j+1] = m.pending[j]
			j--
		}
		m.pending[j+1] = f
	}
	k := 0
	for _, f := range m.pending {
		if f.ready > now {
			m.pending[k] = f
			k++
			continue
		}
		if !m.llc.Contains(f.addr) {
			if v, evicted := m.llc.Fill(f.addr, f.prov, false); evicted && v.Dirty {
				// The victim becomes a DRAM write transaction.
				req := m.pool.Get()
				req.Addr = v.Addr
				req.Write = true
				req.Category = stats.DRAMWriteback
				req.Enqueue = f.ready
				req.AutoRelease = true
				m.ctrl.Submit(req)
			}
			if f.prov == cache.FillTempo {
				m.st.TempoLLCFills++
			}
		}
	}
	m.pending = m.pending[:k]
}
