package translation

import (
	"cmp"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/vm"
)

// victimaPage is one page of the differential's address pool and the
// leaf PTE its walks read.
type victimaPage struct {
	tr   vm.Translation
	leaf mem.PAddr
}

// victimaPool returns pages that crowd the tag store: for each page
// size, perSet pages in each of two sets, found by scanning page
// numbers in a region of the address space of that size's own. Pages
// share leaf PTE lines in pairs.
func victimaPool(perSet int) []victimaPage {
	regions := [...]mem.VAddr{mem.Page4K: 1 << 30, mem.Page2M: 1 << 40, mem.Page1G: 1 << 42}
	var pool []victimaPage
	for cls := mem.Page4K; cls <= mem.Page1G; cls++ {
		found := map[uint64]int{} // pages per set, for the first two sets seen
		for n, total := uint64(0), 0; total < 2*perSet; n++ {
			base := regions[cls] + mem.VAddr(n<<cls.Shift())
			s := victimaSet(base, cls)
			if c, ok := found[s]; !ok && len(found) == 2 || c == perSet {
				continue
			}
			found[s]++
			total++
			i := len(pool)
			pool = append(pool, victimaPage{
				tr:   vm.Translation{VBase: base, Frame: mem.Frame(uint64(i+1) << 18), Class: cls},
				leaf: mem.PAddr(1<<31 + uint64(i/2)*mem.LineSize + uint64(i%2)*8),
			})
		}
	}
	return pool
}

// victimaPort is the diff's CorePort: a set of on-chip lines the
// stream controls, and a ReadLine that records its address and answers
// with a latency that depends on the line and the cycle.
type victimaPort struct {
	onChip map[mem.PAddr]bool
	read   mem.PAddr
}

func (p *victimaPort) PeekOnChip(a mem.PAddr) bool { return p.onChip[a.Line()] }

func (p *victimaPort) ReadLine(a mem.PAddr, now uint64) uint64 {
	p.read = a
	return 20 + uint64(a.Line())>>6%13 + now%3
}

func (p *victimaPort) PrefetchLine(mem.PAddr, uint64) bool { return false }

// victimaDiff drives victimaCore and the reference (refVictimaCore,
// victima_ref_test.go) through the same TLB misses, walks and on-chip
// line changes, and fails on the first difference in an action, a
// line read, a counter or the tag store.
type victimaDiff struct {
	t          testing.TB
	pool       []victimaPage
	onChip     map[mem.PAddr]bool
	m          *victimaMech
	c          *victimaCore
	r          *refVictimaCore
	port, rpt  *victimaPort
	now        uint64
	step       int
	hits, walk int
}

func newVictimaDiff(t testing.TB, pool []victimaPage) *victimaDiff {
	d := &victimaDiff{t: t, pool: pool, onChip: map[mem.PAddr]bool{}, m: &victimaMech{}}
	d.port, d.rpt = &victimaPort{onChip: d.onChip}, &victimaPort{onChip: d.onChip}
	d.c = d.m.NewCore(0, d.port).(*victimaCore)
	d.r = (&refVictimaMech{}).NewCore(0, d.rpt)
	return d
}

// run decodes ops three bytes at a time: an operation, a page of the
// pool and an operand. Five in eight operations are TLB misses at a
// line of the page the operand picks: the cores probe their tag
// stores, and on a miss the walk reads the leaf PTE, which brings its
// line on chip, and completes. The old hooks see the walk's upper
// level and its leaf through OnWalkStep. One walk in four finds the
// page promoted to the next larger size, so a probe can drop entries
// of two sizes and sets keep invalid ways among valid ones. The rest
// take the page's leaf PTE line off chip (twice as often) or feed the
// reference a background walk's leaf step, which its capture window
// must ignore.
func (d *victimaDiff) run(ops []byte) {
	d.t.Helper()
	for ; len(ops) >= 3; ops = ops[3:] {
		d.step++
		pg := d.pool[int(ops[1])%len(d.pool)]
		switch ops[0] % 8 {
		case 5, 6:
			delete(d.onChip, pg.leaf.Line())
		case 7:
			d.r.OnWalkStep(vm.WalkStep{Level: pg.tr.Class.LeafLevel(), PTEAddr: pg.leaf, IsLeaf: true}, true)
		default:
			d.now += 1 + uint64(ops[2])
			v := pg.tr.VBase + mem.VAddr(uint64(ops[2])<<mem.LineShift%pg.tr.Class.Bytes())
			act, ract := d.c.OnTLBMiss(v, d.now), d.r.OnTLBMiss(v, d.now)
			if act != ract || d.port.read != d.rpt.read {
				d.t.Fatalf("step %d OnTLBMiss(%#x) = %+v reading %#x, reference %+v reading %#x",
					d.step, uint64(v), act, uint64(d.port.read), ract, uint64(d.rpt.read))
			}
			if act.Hit {
				d.hits++
				break
			}
			d.walk++
			tr, leaf := pg.tr, pg.leaf
			if ops[0]>>3&3 == 3 && tr.Class < mem.Page1G {
				tr.Class++
				tr.VBase = v.PageBase(tr.Class)
				leaf += 1 << 24
			}
			fromDRAM := ops[0]&0x20 != 0
			d.r.OnWalkStep(vm.WalkStep{Level: 4, PTEAddr: leaf + 1<<20}, fromDRAM)
			d.r.OnWalkStep(vm.WalkStep{Level: tr.Class.LeafLevel(), PTEAddr: leaf, IsLeaf: true}, fromDRAM)
			d.r.OnWalkComplete(v, tr, fromDRAM, d.now)
			d.c.OnWalkComplete(v, tr, leaf)
			d.onChip[leaf.Line()] = true
		}
		d.compare(pg.tr)
	}
}

// compare checks every counter and the tag-store sets of the pages of
// each size that tr's page lies in: each way's contents, and that the
// set's recency stack, read from its LRU end, lists the valid ways in
// the reference's stamp order (distinct, as every hit and insert takes
// a fresh tick).
func (d *victimaDiff) compare(tr vm.Translation) {
	got, want := map[string]uint64{}, map[string]uint64{}
	d.m.CountersInto(func(k string, v uint64) { got[k] = v })
	d.r.m.CountersInto(func(k string, v uint64) { want[k] = v })
	if !maps.Equal(got, want) || d.m.EnergyJ() != d.r.m.EnergyJ() {
		d.t.Fatalf("step %d: counters %v, reference %v", d.step, got, want)
	}
	for cls := mem.Page4K; cls <= mem.Page1G; cls++ {
		d.compareSet(victimaSet(tr.VBase.PageBase(cls), cls))
	}
}

func (d *victimaDiff) compareSet(i uint64) {
	set, ref := &d.c.sets[i], &d.r.sets[i]
	var want []int
	for w := range set {
		e, r := set[w], ref[w]
		if e.valid != r.valid || e.valid && (e.tr != r.tr || e.line != r.line) {
			d.t.Fatalf("step %d: set %d way %d = %+v, reference %+v", d.step, i, w, e, r)
		}
		if r.valid {
			want = append(want, w)
		}
	}
	slices.SortFunc(want, func(a, b int) int { return cmp.Compare(ref[a].lru, ref[b].lru) })
	var order []int
	for k := victimaWays - 1; k >= 0; k-- {
		if w := int(d.c.order[i] >> (4 * k) & 0xF); set[w].valid {
			order = append(order, w)
		}
	}
	if !slices.Equal(order, want) {
		d.t.Fatalf("step %d: set %d valid ways from LRU = %v, reference %v", d.step, i, order, want)
	}
}

// compareAll checks every set of the tag store.
func (d *victimaDiff) compareAll() {
	for i := range d.c.sets {
		d.compareSet(uint64(i))
	}
}

// Streams over pools of 2–24 pages per set, from fewer pages than a
// set's 8 ways to three times as many, must match the reference on
// every action, counter and set, hits and evictions included.
func TestVictimaMatchesReferenceRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := make([]byte, 3*3000)
	for _, perSet := range []int{2, 5, 8, 9, 16, 24} {
		pool := victimaPool(perSet)
		for k := 0; k < 4; k++ {
			rng.Read(ops)
			d := newVictimaDiff(t, pool)
			d.run(ops)
			d.compareAll()
			if d.hits == 0 || d.walk == 0 || d.m.evicted == 0 {
				t.Errorf("%d pages per set: %d hits, %d walks, %d evicted; want all three", perSet, d.hits, d.walk, d.m.evicted)
			}
		}
	}
}

// FuzzVictimaOps decodes 1–32 pages per set from the first byte and an
// op stream (victimaDiff.run) from the rest.
func FuzzVictimaOps(f *testing.F) {
	f.Add([]byte{0x07, 0x00, 0x01, 0x10, 0x00, 0x02, 0x20, 0x05, 0x01, 0x00, 0x00, 0x01, 0x30})
	f.Add([]byte{0x1f, 0x00, 0x00, 0x00, 0x08, 0x09, 0x40, 0x06, 0x09, 0x00, 0x07, 0x03, 0x00, 0x00, 0x03, 0x11})
	var pools [32][]victimaPage
	for i := range pools {
		pools[i] = victimaPool(i + 1)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		d := newVictimaDiff(t, pools[int(data[0])%32])
		d.run(data[1:])
		d.compareAll()
	})
}
