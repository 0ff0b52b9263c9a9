// Package prefetch implements IMP, the Indirect Memory Prefetcher of
// Yu et al. (MICRO 2015), which the paper evaluates TEMPO alongside
// (Section 4.2, Figure 12). IMP detects streaming *index* loads
// (B[i]), learns indirect patterns of the form addr = base + coef ×
// B[i] in an Indirect Pattern Detector, and then prefetches A[B[i+Δ]]
// using index values that arrive ahead of use.
//
// The trace-driven embedding: workload generators attach the loaded
// value to index loads (hardware IMP snoops the same value off the
// fill path), and the core feeds records to IMP Distance records ahead
// of execution, which models the lead the real prefetcher gets from
// prefetching the index stream itself.
package prefetch

import (
	"repro/internal/assoc"
	"repro/internal/mem"
	"repro/internal/obsv"
)

// Candidate coefficients IMP tries (element sizes of the indirectly
// indexed array).
var coefs = []uint64{1, 2, 4, 8, 16}

// The paper's IMP configuration: a 16-entry prefetch table, a 4-entry
// indirect pattern detector, up to 2 indirect ways per index stream,
// and a prefetch distance of 16 records.
const (
	TableEntries = 16
	IPDEntries   = 4
	MaxWays      = 2
	Distance     = 16
)

// pattern is one confirmed indirect relation for an index PC.
type pattern struct {
	coef uint64
	base uint64
}

// ptEntry is a prefetch-table entry: a confirmed index stream with its
// indirect ways.
type ptEntry struct {
	pc   uint64
	ways []pattern
}

// Observation is one trace event IMP sees.
type Observation struct {
	PC    uint64
	VAddr mem.VAddr
	// Value and HasValue carry the loaded data for index loads.
	Value    uint64
	HasValue bool
	// Missed reports whether the access missed the L1 (IMP trains its
	// indirect detector on misses).
	Missed bool
}

// IMP is the prefetcher state. The prefetch table and the detector are
// fully associative with LRU replacement. Their ways fill in index
// order and never empty, so each keeps a fill count and one recency
// stack, as assoc.Assoc does: probes scan the filled ways, and an
// insertion takes the next empty way until the table is full, then the
// LRU way.
type IMP struct {
	table      [TableEntries]ptEntry
	tableN     int
	tableOrder assoc.Stack
	ipd        [IPDEntries]ipdTrain
	ipdN       int
	ipdOrder   assoc.Stack

	// Fanout, when non-nil, histograms how many prefetch targets each
	// confirmed index-load observation produced (0 when the PC has no
	// confirmed pattern) — coverage-shape visibility the
	// stats.IMPPrefetches total hides. Nil-safe obsv hook.
	Fanout *obsv.Histogram
}

// ipdTrain is one Indirect Pattern Detector entry in training.
type ipdTrain struct {
	pc        uint64
	lastValue uint64
	haveValue bool
	// hypotheses[i] is the base implied by the first pair under
	// coefs[i]; verified[i] counts subsequent confirmations.
	hypotheses [5]uint64
	seeded     bool
	verified   [5]uint8
}

// New builds an IMP prefetcher.
func New() *IMP {
	return &IMP{
		tableOrder: assoc.NewStacks(1, TableEntries)[0],
		ipdOrder:   assoc.NewStacks(1, IPDEntries)[0],
	}
}

// AppendPrefetches appends to buf the prefetch targets confirmed
// patterns imply for an index load at pc observing value, and returns
// the extended slice. The simulator core passes lookahead values and a
// per-core scratch, so the per-record path stays allocation-free.
func (p *IMP) AppendPrefetches(buf []mem.VAddr, pc, value uint64) []mem.VAddr {
	n := len(buf)
	if w := p.lookupTable(pc); w >= 0 {
		p.tableOrder = p.tableOrder.Touch(w)
		for _, pat := range p.table[w].ways {
			target := mem.VAddr(pat.base + pat.coef*value)
			buf = append(buf, target.Line())
		}
	}
	p.Fanout.Observe(uint64(len(buf) - n))
	return buf
}

// Train updates detector state from one executed event without
// emitting prefetches.
func (p *IMP) Train(o Observation) {
	if o.HasValue {
		w := p.lookupIPD(o.PC)
		if w < 0 {
			w = p.allocIPD(o.PC)
		}
		p.ipd[w].lastValue = o.Value
		p.ipd[w].haveValue = true
		p.ipdOrder = p.ipdOrder.Touch(w)
		return
	}
	if o.Missed {
		p.observeMiss(o)
	}
}

// observeMiss pairs a miss address with pending index values to learn
// (coef, base) hypotheses.
func (p *IMP) observeMiss(o Observation) {
	for i := range p.ipd[:p.ipdN] {
		t := &p.ipd[i]
		if !t.haveValue {
			continue
		}
		addr := uint64(o.VAddr)
		if !t.seeded {
			for ci, c := range coefs {
				t.hypotheses[ci] = addr - c*t.lastValue
			}
			t.seeded = true
			t.haveValue = false
			continue
		}
		for ci, c := range coefs {
			if t.hypotheses[ci]+c*t.lastValue == addr {
				t.verified[ci]++
				if t.verified[ci] >= 2 {
					p.confirm(t.pc, pattern{coef: c, base: t.hypotheses[ci]})
					// Reset training so a second indirect way off the
					// same index stream can be learned.
					t.seeded = false
					t.verified = [5]uint8{}
				}
			}
		}
		t.haveValue = false
	}
}

// confirm installs a learned pattern into the prefetch table.
func (p *IMP) confirm(pc uint64, pat pattern) {
	w := p.lookupTable(pc)
	if w < 0 {
		w = p.allocTable(pc)
	}
	p.tableOrder = p.tableOrder.Touch(w)
	e := &p.table[w]
	for _, have := range e.ways {
		if have == pat {
			return
		}
	}
	if len(e.ways) < MaxWays {
		e.ways = append(e.ways, pat)
	} else {
		// Replace the oldest way.
		copy(e.ways, e.ways[1:])
		e.ways[len(e.ways)-1] = pat
	}
}

func (p *IMP) lookupTable(pc uint64) int {
	for w := range p.table[:p.tableN] {
		if p.table[w].pc == pc {
			return w
		}
	}
	return -1
}

func (p *IMP) allocTable(pc uint64) int {
	w := p.tableN
	if w < TableEntries {
		p.tableN++
	} else {
		w = p.tableOrder.LRU(TableEntries)
	}
	p.table[w] = ptEntry{pc: pc}
	return w
}

func (p *IMP) lookupIPD(pc uint64) int {
	for w := range p.ipd[:p.ipdN] {
		if p.ipd[w].pc == pc {
			return w
		}
	}
	return -1
}

func (p *IMP) allocIPD(pc uint64) int {
	w := p.ipdN
	if w < IPDEntries {
		p.ipdN++
	} else {
		w = p.ipdOrder.LRU(IPDEntries)
	}
	p.ipd[w] = ipdTrain{pc: pc}
	return w
}

// Confirmed reports whether a pattern is installed for the PC (tests
// and stats).
func (p *IMP) Confirmed(pc uint64) bool {
	w := p.lookupTable(pc)
	return w >= 0 && len(p.table[w].ways) > 0
}
