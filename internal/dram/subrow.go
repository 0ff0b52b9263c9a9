package dram

import (
	"cmp"
	"slices"

	"repro/internal/stats"
)

// FOA implements Fairness-Oriented Allocation of sub-row buffers
// (Gulur et al. [18]): cores observed to suffer the most row-buffer
// interference (conflicts) receive dedicated sub-rows; the rest share.
// TEMPO's reservation of the first prefetchSub sub-rows is honoured.
type FOA struct {
	cores     int
	epoch     uint64
	conflicts []uint64
	// dedicated[core] is the sub-row privately assigned to core, or
	// -1. Recomputed every epoch.
	dedicated []int
	seen      uint64
	// order is OnServed's ranking scratch.
	order []int
	// idx serves Allowed's runs of sub-rows; pool is the shared demand
	// pool of [poolLo, poolN), rebuilt only when the partition or the
	// geometry changes (poolN < 0 marks it stale).
	idx           indices
	pool          []int
	poolLo, poolN int
}

// NewFOA builds the policy for a fixed core count.
func NewFOA(cores int) *FOA {
	f := &FOA{
		cores:     cores,
		epoch:     4096,
		conflicts: make([]uint64, cores),
		dedicated: make([]int, cores),
		order:     make([]int, cores),
	}
	for i := range f.dedicated {
		f.dedicated[i] = -1
	}
	return f
}

// Allowed implements SubRowAlloc.
func (f *FOA) Allowed(r *Request, nSub, prefetchSub int) []int {
	if r.Prefetch {
		if prefetchSub > 0 {
			return f.idx.span(0, prefetchSub)
		}
		return nil
	}
	lo := prefetchSub
	if r.CoreID >= 0 && r.CoreID < f.cores {
		if d := f.dedicated[r.CoreID]; d >= lo && d < nSub {
			return f.idx.span(d, d+1)
		}
	}
	// Shared pool: demand sub-rows not dedicated to anyone.
	if f.poolLo != lo || f.poolN != nSub {
		f.pool = f.pool[:0]
		for i := lo; i < nSub; i++ {
			if !slices.Contains(f.dedicated, i) {
				f.pool = append(f.pool, i)
			}
		}
		f.poolLo, f.poolN = lo, nSub
	}
	if len(f.pool) == 0 {
		return f.idx.span(lo, nSub)
	}
	return f.pool[:len(f.pool):len(f.pool)]
}

// OnServed implements SubRowAlloc: accumulate interference evidence
// and re-partition every epoch.
func (f *FOA) OnServed(r *Request, outcome stats.RowOutcome) {
	if r.CoreID >= 0 && r.CoreID < f.cores && outcome == stats.RowConflict {
		f.conflicts[r.CoreID]++
	}
	f.seen++
	if f.seen%f.epoch != 0 {
		return
	}
	// Dedicate sub-rows (beyond the prefetch reservation, resolved at
	// Allowed time) to the most-conflicted half of the cores. We
	// don't know nSub here, so dedicate up to 4 and let Allowed
	// bounds-check.
	order := f.order
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(f.conflicts[b], f.conflicts[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	f.poolN = -1
	for i := range f.dedicated {
		f.dedicated[i] = -1
	}
	slot := 7 // assign from the top sub-row downward
	for i := 0; i < len(order) && i < 4; i++ {
		if f.conflicts[order[i]] == 0 {
			break
		}
		f.dedicated[order[i]] = slot
		slot--
	}
	for i := range f.conflicts {
		f.conflicts[i] = 0
	}
}

// POA implements Performance-Oriented Allocation [18]: sub-rows are
// partitioned in proportion to each core's recent bandwidth demand.
type POA struct {
	cores  int
	epoch  uint64
	counts []uint64
	shares []int // sub-rows per core, recomputed each epoch
	seen   uint64
	idx    indices // serves Allowed's runs of sub-rows
}

// NewPOA builds the policy for a fixed core count.
func NewPOA(cores int) *POA {
	p := &POA{cores: cores, epoch: 4096, counts: make([]uint64, cores), shares: make([]int, cores)}
	for i := range p.shares {
		p.shares[i] = 1
	}
	return p
}

// Allowed implements SubRowAlloc: core i may use a contiguous span of
// the demand sub-rows sized by its share.
func (p *POA) Allowed(r *Request, nSub, prefetchSub int) []int {
	if r.Prefetch {
		if prefetchSub > 0 {
			return p.idx.span(0, prefetchSub)
		}
		return nil
	}
	lo := prefetchSub
	avail := nSub - lo
	if avail <= 0 || r.CoreID < 0 || r.CoreID >= p.cores {
		return nil
	}
	// Spans proportional to shares, normalised onto [lo, nSub).
	var total int
	for _, s := range p.shares {
		total += s
	}
	if total == 0 {
		return nil
	}
	start, end := 0, 0
	acc := 0
	for i := 0; i < p.cores; i++ {
		if i == r.CoreID {
			start = acc * avail / total
			end = (acc + p.shares[i]) * avail / total
			break
		}
		acc += p.shares[i]
	}
	if end <= start {
		// Cores with negligible demand share the whole demand pool.
		return p.idx.span(lo, nSub)
	}
	return p.idx.span(lo+start, lo+end)
}

// OnServed implements SubRowAlloc: track demand and re-partition.
func (p *POA) OnServed(r *Request, _ stats.RowOutcome) {
	if r.CoreID >= 0 && r.CoreID < p.cores && !r.Prefetch {
		p.counts[r.CoreID]++
	}
	p.seen++
	if p.seen%p.epoch != 0 {
		return
	}
	var total uint64
	for _, c := range p.counts {
		total += c
	}
	for i := range p.shares {
		if total == 0 {
			p.shares[i] = 1
			continue
		}
		s := int(p.counts[i] * 16 / total)
		if s < 1 {
			s = 1
		}
		p.shares[i] = s
	}
	for i := range p.counts {
		p.counts[i] = 0
	}
}
