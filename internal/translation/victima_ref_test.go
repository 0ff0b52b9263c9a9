package translation

// This file keeps, as refVictimaMech and refVictimaCore, the Victima
// model whose tag store kept a tick counter and a stamp per entry, and
// which learned a demand walk's leaf PTE through a per-step walker hook
// (OnWalkStep) and an armed capture window. The code below the imports
// is that implementation verbatim apart from the renamed identifiers,
// NewCore's return type (the old hooks do not satisfy today's
// CoreHooks), and the registration and victimaSet, which are unchanged
// and shared. victima_diff_test.go drives both and requires identical
// actions, counters and tag-store contents.

import (
	"repro/internal/mem"
	"repro/internal/obsv"
	"repro/internal/vm"
)

type refVictimaEntry struct {
	valid bool
	tr    vm.Translation
	line  mem.PAddr // cache line holding the leaf PTE
	lru   uint64
}

// refVictimaMech holds run-wide counters; the tag stores are per-core.
// The simulator runs one core at a time on one goroutine, so
// unsynchronized shared counters are safe.
type refVictimaMech struct {
	lookups   uint64
	pteHits   uint64
	pteMisses uint64
	evicted   uint64
	inserts   uint64
}

// refVictimaCore is one core's tag store plus the armed capture window
// that pairs a demand walk's leaf step with its completion. The walker
// is shared with background IMP walks, but those are issued before the
// TLB lookup of the same record, so between a missing OnTLBMiss and
// its OnWalkComplete only the demand walk's steps flow through it.
type refVictimaCore struct {
	m    *refVictimaMech
	port CorePort
	sets [victimaSets][victimaWays]refVictimaEntry
	tick uint64

	armed    bool
	leafSeen bool
	leafLine mem.PAddr
}

func (m *refVictimaMech) Name() string { return "victima" }

func (m *refVictimaMech) NewCore(coreID int, port CorePort) *refVictimaCore {
	return &refVictimaCore{m: m, port: port}
}

func (m *refVictimaMech) Attach(rec *obsv.Recorder) {}

func (m *refVictimaMech) CountersInto(emit func(string, uint64)) {
	emit(MetricVictimaLookups, m.lookups)
	emit(MetricVictimaPTEHits, m.pteHits)
	emit(MetricVictimaPTEMisses, m.pteMisses)
	emit(MetricVictimaEvicted, m.evicted)
	emit(MetricVictimaInserts, m.inserts)
}

func (m *refVictimaMech) EnergyJ() float64 {
	return float64(m.lookups+m.inserts) * victimaOpNJ * 1e-9
}

// OnTLBMiss probes the tag store for any page size covering v. A hit
// whose PTE line is still on-chip resolves the translation with a real
// hierarchy read (no walk); a hit whose line has been evicted drops
// the entry — Victima's PTEs live or die with cache residency.
func (c *refVictimaCore) OnTLBMiss(v mem.VAddr, now uint64) Action {
	c.m.lookups++
	for cls := mem.Page4K; cls <= mem.Page1G; cls++ {
		base := v.PageBase(cls)
		set := &c.sets[victimaSet(base, cls)]
		for w := range set {
			e := &set[w]
			if !e.valid || e.tr.Class != cls || e.tr.VBase != base {
				continue
			}
			if !c.port.PeekOnChip(e.line) {
				c.m.evicted++
				e.valid = false
				continue
			}
			c.m.pteHits++
			c.tick++
			e.lru = c.tick
			lat := c.port.ReadLine(e.line, now) + victimaTagLatency
			return Action{Hit: true, Translation: e.tr, Latency: lat}
		}
	}
	c.m.pteMisses++
	c.armed = true
	c.leafSeen = false
	return Action{}
}

func (c *refVictimaCore) OnWalkStep(step vm.WalkStep, fromDRAM bool) {
	if c.armed && step.IsLeaf {
		c.leafLine = step.PTEAddr.Line()
		c.leafSeen = true
	}
}

// OnWalkComplete installs the walk's leaf PTE line into the tag store.
func (c *refVictimaCore) OnWalkComplete(v mem.VAddr, tr vm.Translation, leafFromDRAM bool, now uint64) {
	if !c.armed {
		return
	}
	c.armed = false
	if !c.leafSeen {
		return
	}
	c.m.inserts++
	c.tick++
	set := &c.sets[victimaSet(tr.VBase, tr.Class)]
	victim := &set[0]
	for w := range set {
		e := &set[w]
		if e.valid && e.tr.Class == tr.Class && e.tr.VBase == tr.VBase {
			victim = e
			break
		}
		if !e.valid {
			victim = e
			break
		}
		if e.lru < victim.lru {
			victim = e
		}
	}
	*victim = refVictimaEntry{valid: true, tr: tr, line: c.leafLine, lru: c.tick}
}

func (c *refVictimaCore) OnPrefetchUseful() {}
