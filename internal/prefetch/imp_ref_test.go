package prefetch

// This file keeps, as refIMP, the IMP that kept a tick counter, stamped
// each table and detector entry with it and evicted the entry with the
// lowest stamp, with its Config. The code below the imports is that
// implementation verbatim apart from the renamed identifiers, the
// Observation type it shares with IMP, and the Observe and PrefetchFor
// wrappers, which only tests called. imp_diff_test.go drives both and
// requires identical prefetches, counters and table contents.

import (
	"repro/internal/mem"
	"repro/internal/obsv"
)

// Candidate coefficients IMP tries (element sizes of the indirectly
// indexed array).
var refCoefs = []uint64{1, 2, 4, 8, 16}

// refConfig mirrors the paper's IMP configuration: 16-entry prefetch
// table, 4-entry indirect pattern detector, up to 2 indirect ways,
// prefetch distance 16.
type refConfig struct {
	TableEntries int
	IPDEntries   int
	MaxWays      int
	Distance     int
}

// refDefaultConfig returns the configuration used in the paper.
func refDefaultConfig() refConfig {
	return refConfig{TableEntries: 16, IPDEntries: 4, MaxWays: 2, Distance: 16}
}

// refPattern is one confirmed indirect relation for an index PC.
type refPattern struct {
	coef uint64
	base uint64
}

// refPTEntry is a prefetch-table entry: a confirmed index stream with its
// indirect ways.
type refPTEntry struct {
	pc   uint64
	ways []refPattern
	lru  uint64
}

// refIMP is the prefetcher state.
type refIMP struct {
	cfg   refConfig
	table []refPTEntry
	ipd   []refIPDTrain
	tick  uint64

	// Prefetches counts emitted prefetch addresses.
	Prefetches uint64

	// Fanout, when non-nil, histograms how many prefetch targets each
	// confirmed index-load observation produced (0 when the PC has no
	// confirmed pattern) — coverage-shape visibility the Prefetches
	// total hides. Nil-safe obsv hook.
	Fanout *obsv.Histogram
}

// refIPDTrain is one Indirect Pattern Detector entry in training.
type refIPDTrain struct {
	pc        uint64
	lastValue uint64
	haveValue bool
	// hypotheses[i] is the base implied by the first pair under
	// coefs[i]; verified[i] counts subsequent confirmations.
	hypotheses [5]uint64
	seeded     bool
	verified   [5]uint8
	lru        uint64
}

// newRefIMP builds an IMP prefetcher.
func newRefIMP(cfg refConfig) *refIMP {
	return &refIMP{cfg: cfg}
}

// AppendPrefetches is PrefetchFor into a caller-owned buffer: targets
// are appended to buf and the extended slice returned. The simulator
// core uses it with a per-core scratch so the per-record path stays
// allocation-free.
func (p *refIMP) AppendPrefetches(buf []mem.VAddr, pc, value uint64) []mem.VAddr {
	p.tick++
	n := len(buf)
	if e := p.lookupTable(pc); e != nil {
		e.lru = p.tick
		for _, w := range e.ways {
			target := mem.VAddr(w.base + w.coef*value)
			buf = append(buf, target.Line())
			p.Prefetches++
		}
	}
	p.Fanout.Observe(uint64(len(buf) - n))
	return buf
}

// Train updates detector state from one executed event without
// emitting prefetches.
func (p *refIMP) Train(o Observation) {
	p.tick++
	if o.HasValue {
		t := p.lookupIPD(o.PC)
		if t == nil {
			t = p.allocIPD(o.PC)
		}
		t.lastValue = o.Value
		t.haveValue = true
		t.lru = p.tick
		return
	}
	if o.Missed {
		p.observeMiss(o)
	}
}

// observeMiss pairs a miss address with pending index values to learn
// (coef, base) hypotheses.
func (p *refIMP) observeMiss(o Observation) {
	for i := range p.ipd {
		t := &p.ipd[i]
		if !t.haveValue {
			continue
		}
		addr := uint64(o.VAddr)
		if !t.seeded {
			for ci, c := range refCoefs {
				t.hypotheses[ci] = addr - c*t.lastValue
			}
			t.seeded = true
			t.haveValue = false
			continue
		}
		for ci, c := range refCoefs {
			if t.hypotheses[ci]+c*t.lastValue == addr {
				t.verified[ci]++
				if t.verified[ci] >= 2 {
					p.confirm(t.pc, refPattern{coef: c, base: t.hypotheses[ci]})
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
func (p *refIMP) confirm(pc uint64, pat refPattern) {
	e := p.lookupTable(pc)
	if e == nil {
		e = p.allocTable(pc)
	}
	e.lru = p.tick
	for _, w := range e.ways {
		if w == pat {
			return
		}
	}
	if len(e.ways) < p.cfg.MaxWays {
		e.ways = append(e.ways, pat)
	} else {
		// Replace the oldest way.
		copy(e.ways, e.ways[1:])
		e.ways[len(e.ways)-1] = pat
	}
}

func (p *refIMP) lookupTable(pc uint64) *refPTEntry {
	for i := range p.table {
		if p.table[i].pc == pc {
			return &p.table[i]
		}
	}
	return nil
}

func (p *refIMP) allocTable(pc uint64) *refPTEntry {
	if len(p.table) < p.cfg.TableEntries {
		p.table = append(p.table, refPTEntry{pc: pc})
		return &p.table[len(p.table)-1]
	}
	victim := 0
	for i := range p.table {
		if p.table[i].lru < p.table[victim].lru {
			victim = i
		}
	}
	p.table[victim] = refPTEntry{pc: pc}
	return &p.table[victim]
}

func (p *refIMP) lookupIPD(pc uint64) *refIPDTrain {
	for i := range p.ipd {
		if p.ipd[i].pc == pc {
			return &p.ipd[i]
		}
	}
	return nil
}

func (p *refIMP) allocIPD(pc uint64) *refIPDTrain {
	if len(p.ipd) < p.cfg.IPDEntries {
		p.ipd = append(p.ipd, refIPDTrain{pc: pc})
		return &p.ipd[len(p.ipd)-1]
	}
	victim := 0
	for i := range p.ipd {
		if p.ipd[i].lru < p.ipd[victim].lru {
			victim = i
		}
	}
	p.ipd[victim] = refIPDTrain{pc: pc}
	return &p.ipd[victim]
}

// Confirmed reports whether a pattern is installed for the PC (tests
// and stats).
func (p *refIMP) Confirmed(pc uint64) bool {
	e := p.lookupTable(pc)
	return e != nil && len(e.ways) > 0
}
