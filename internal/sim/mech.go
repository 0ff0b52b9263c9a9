package sim

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/translation"
)

// mechPort implements translation.CorePort over one core: the window a
// mechanism's per-core hooks get onto the cache hierarchy and the
// shared memory controller. Exactly one core of a run executes at a
// time, so these methods may touch shared state freely.
type mechPort struct{ c *Core }

// PeekOnChip reports residence anywhere in the core's on-chip
// hierarchy without perturbing replacement state.
func (p mechPort) PeekOnChip(a mem.PAddr) bool {
	h := p.c.hier
	return h.L1.Contains(a) || h.L2.Contains(a) || h.LLC.Contains(a)
}

// ReadLine performs a real demand read of an on-chip line (promoting
// it exactly as any access would) and returns the serving latency.
func (p mechPort) ReadLine(a mem.PAddr, now uint64) uint64 {
	c := p.c
	c.sys.mem.ApplyFills(now + c.sys.machine.Caches.LLC.LatencyC)
	ar := c.hier.Access(a, false)
	if ar.Served == cache.ServedDRAM {
		// PeekOnChip established residence and ApplyFills only adds
		// lines, so a full miss here is a contract violation.
		panic("sim: mechanism ReadLine missed an on-chip line")
	}
	c.submitWritebacks(ar.Writebacks)
	return ar.Latency
}

// PrefetchLine fetches a line from DRAM toward the LLC with
// speculative provenance, over the IMP background-prefetch datapath
// (the core does not stall; the fetch runs in its shadow).
func (p mechPort) PrefetchLine(a mem.PAddr, now uint64) bool {
	return p.c.prefetchLine(a.Line(), now, cache.FillSpec)
}

var _ translation.CorePort = mechPort{}
