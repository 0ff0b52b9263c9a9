package translation

import (
	"repro/internal/mem"
	"repro/internal/vm"
)

// Revelator model parameters. Revelator (PAPERS.md: software-guided
// speculative translation) predicts a TLB miss's physical line from a
// hash table trained by earlier walks, prefetches that line toward the
// LLC while the verification walk runs, and confirms or refutes the
// prediction when the walk resolves. The partial tag is deliberate:
// tag aliases are the model's genuine mis-speculations. See
// MECHANISMS.md for the model and its deviations from the paper.
const (
	revelatorEntries = 1 << 14 // 16384 entries per core
	// revelatorOpNJ is the modelled prediction-table energy per
	// lookup/train, in nanojoules.
	revelatorOpNJ = 0.08
)

type revelatorEntry struct {
	valid bool
	tag   uint16
	frame mem.Frame
	class mem.PageSizeClass
}

// revelatorMech holds run-wide counters plus the raw table-op count
// that drives the energy model. Hook-bearing cores run serially, so
// the shared counters need no synchronization.
type revelatorMech struct {
	predictions  uint64
	specPrefetch uint64
	specHits     uint64
	specMisses   uint64
	specUseful   uint64
	tableOps     uint64
}

// revelatorCore is one core's prediction table plus the in-flight
// verification window: per-core demand misses are strictly serial, so
// a single pending slot pairs each prediction with its walk.
type revelatorCore struct {
	m     *revelatorMech
	port  CorePort
	table [revelatorEntries]revelatorEntry

	pending   bool
	predicted mem.PAddr
}

func (m *revelatorMech) Name() string { return "revelator" }

func (m *revelatorMech) NewCore(coreID int, port CorePort) CoreHooks {
	return &revelatorCore{m: m, port: port}
}

func (m *revelatorMech) CountersInto(emit func(string, uint64)) {
	emit(MetricRevelatorPredictions, m.predictions)
	emit(MetricRevelatorSpecPrefetches, m.specPrefetch)
	emit(MetricRevelatorSpecHits, m.specHits)
	emit(MetricRevelatorSpecMisses, m.specMisses)
	emit(MetricRevelatorSpecUseful, m.specUseful)
}

func (m *revelatorMech) EnergyJ() float64 {
	return float64(m.tableOps) * revelatorOpNJ * 1e-9
}

// revelatorSlot hashes a 4KB virtual page number to a table index and
// a 16-bit partial tag.
func revelatorSlot(vpn uint64) (idx uint64, tag uint16) {
	h := vpn
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 29
	return h & (revelatorEntries - 1), uint16(h >> 48)
}

// OnTLBMiss predicts the missing access's physical line and prefetches
// it toward the LLC. The returned Action is always a non-hit: the
// normal walk proceeds as the verification walk.
func (c *revelatorCore) OnTLBMiss(v mem.VAddr, now uint64) Action {
	c.m.tableOps++
	idx, tag := revelatorSlot(v.VPN())
	e := &c.table[idx]
	if e.valid && e.tag == tag {
		c.m.predictions++
		target := (e.frame.Addr() + mem.PAddr(v.PageOffset(e.class))).Line()
		if c.port.PrefetchLine(target, now) {
			c.m.specPrefetch++
		}
		c.pending = true
		c.predicted = target
	}
	return Action{}
}

// OnWalkComplete verifies the outstanding prediction against the
// walk's ground truth, then trains the table with the fresh mapping.
func (c *revelatorCore) OnWalkComplete(v mem.VAddr, tr vm.Translation, leafPTE mem.PAddr) {
	if c.pending {
		c.pending = false
		if tr.Translate(v).Line() == c.predicted {
			c.m.specHits++
		} else {
			c.m.specMisses++
		}
	}
	c.m.tableOps++
	idx, tag := revelatorSlot(v.VPN())
	c.table[idx] = revelatorEntry{valid: true, tag: tag, frame: tr.Frame, class: tr.Class}
}

func (c *revelatorCore) OnPrefetchUseful() { c.m.specUseful++ }
