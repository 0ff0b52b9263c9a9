package translation

import (
	"repro/internal/assoc"
	"repro/internal/mem"
	"repro/internal/vm"
)

// Victima model parameters. The tag store is deliberately modest — the
// point of Victima (Kanellopoulos et al., MICRO 2023) is that the PTE
// *data* lives in the existing L2/LLC ways, so the dedicated hardware
// is only a tag array mapping virtual pages to the cache line that
// holds their leaf PTE. See MECHANISMS.md for the model and its
// deviations from the paper.
const (
	victimaWays = 8
	victimaSets = 512 // 4096 entries total per core
	// victimaTagLatency is the tag-array probe cost in cycles, charged
	// on every hit on top of the cache read that fetches the PTE line.
	victimaTagLatency = 2
	// victimaOpNJ is the modelled tag-array energy per probe/install,
	// in nanojoules (small dedicated SRAM; same order as an L1 probe).
	victimaOpNJ = 0.05
)

type victimaEntry struct {
	valid bool
	tr    vm.Translation
	line  mem.PAddr // cache line holding the leaf PTE
}

// victimaMech holds run-wide counters; the tag stores are per-core.
// The simulator runs one core at a time on one goroutine, so
// unsynchronized shared counters are safe.
type victimaMech struct {
	lookups   uint64
	pteHits   uint64
	pteMisses uint64
	evicted   uint64
	inserts   uint64
}

// victimaCore is one core's tag store: victimaSets sets of victimaWays
// entries, each set with its recency stack. Entries empty when their
// PTE line leaves the chip, so an insert takes the first invalid way
// before the LRU way.
type victimaCore struct {
	m     *victimaMech
	port  CorePort
	sets  [victimaSets][victimaWays]victimaEntry
	order [victimaSets]assoc.Stack
}

func (m *victimaMech) Name() string { return "victima" }

func (m *victimaMech) NewCore(coreID int, port CorePort) CoreHooks {
	c := &victimaCore{m: m, port: port}
	copy(c.order[:], assoc.NewStacks(victimaSets, victimaWays))
	return c
}

func (m *victimaMech) CountersInto(emit func(string, uint64)) {
	emit(MetricVictimaLookups, m.lookups)
	emit(MetricVictimaPTEHits, m.pteHits)
	emit(MetricVictimaPTEMisses, m.pteMisses)
	emit(MetricVictimaEvicted, m.evicted)
	emit(MetricVictimaInserts, m.inserts)
}

func (m *victimaMech) EnergyJ() float64 {
	return float64(m.lookups+m.inserts) * victimaOpNJ * 1e-9
}

// victimaSet indexes the tag store by page base and size class. The
// three probes per lookup mirror a hash-per-size TLB organization.
func victimaSet(base mem.VAddr, cls mem.PageSizeClass) uint64 {
	h := uint64(base) >> mem.PageShift
	h ^= h >> 17
	h *= 0x9E3779B97F4A7C15
	return (h ^ uint64(cls)*0xBF58476D1CE4E5B9) >> 48 % victimaSets
}

// OnTLBMiss probes the tag store for any page size covering v. A hit
// whose PTE line is still on-chip resolves the translation with a real
// hierarchy read (no walk); a hit whose line has been evicted drops
// the entry — Victima's PTEs live or die with cache residency.
func (c *victimaCore) OnTLBMiss(v mem.VAddr, now uint64) Action {
	c.m.lookups++
	for cls := mem.Page4K; cls <= mem.Page1G; cls++ {
		base := v.PageBase(cls)
		i := victimaSet(base, cls)
		set := &c.sets[i]
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
			c.order[i] = c.order[i].Touch(w)
			lat := c.port.ReadLine(e.line, now) + victimaTagLatency
			return Action{Hit: true, Translation: e.tr, Latency: lat}
		}
	}
	c.m.pteMisses++
	return Action{}
}

// OnWalkComplete installs the line holding the walk's leaf PTE into the
// tag store: into the first way that is invalid or already holds the
// page, else the set's LRU way.
func (c *victimaCore) OnWalkComplete(v mem.VAddr, tr vm.Translation, leafPTE mem.PAddr) {
	c.m.inserts++
	i := victimaSet(tr.VBase, tr.Class)
	set := &c.sets[i]
	w := c.order[i].LRU(victimaWays)
	for j := range set {
		if e := &set[j]; !e.valid || e.tr.Class == tr.Class && e.tr.VBase == tr.VBase {
			w = j
			break
		}
	}
	set[w] = victimaEntry{valid: true, tr: tr, line: leafPTE.Line()}
	c.order[i] = c.order[i].Touch(w)
}

func (c *victimaCore) OnPrefetchUseful() {}
