package tlb

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/obsv"
	"repro/internal/vm"
)

// tlbDiff drives TLB and the reference without the memo (refTLB)
// through the same operations and fails on the first observable
// difference: a returned translation or hit level, or a per-class
// Instrument counter.
type tlbDiff struct {
	t    testing.TB
	cfg  Config
	tlb  *TLB
	ref  *refTLB
	last mem.VAddr
	keys [3]map[uint64]bool // every key each class has seen
	step int
}

func newTLBDiff(t testing.TB, cfg Config) *tlbDiff {
	d := &tlbDiff{t: t, cfg: cfg, tlb: New(cfg), ref: newRefTLB(cfg)}
	d.tlb.Instrument(obsv.NewRegistry(), "tlb")
	d.ref.Instrument(obsv.NewRegistry(), "tlb")
	for c := range d.keys {
		d.keys[c] = map[uint64]bool{}
	}
	return d
}

func (d *tlbDiff) fail(op string, got, want any) {
	d.t.Helper()
	d.t.Fatalf("step %d %s: got %v, reference %v", d.step, op, got, want)
}

// classOf gives every page one size for the whole run, as the
// simulator's page tables do: odd 1GB regions are 1GB pages, and in
// the others odd 2MB regions are 2MB pages and the rest 4KB pages.
func classOf(v mem.VAddr) mem.PageSizeClass {
	switch {
	case v>>30&1 == 1:
		return mem.Page1G
	case v>>21&1 == 1:
		return mem.Page2M
	default:
		return mem.Page4K
	}
}

// run decodes ops three bytes at a time. The first byte selects the
// operation (bits 0-1: Lookup, Lookup, Insert, or a Lookup of the
// previous operation's page), a frame variant for Insert (bits 2-4)
// and an offset within the page (bits 5-7); the other two pick one of
// four 1GB regions, one of four 2MB regions in it and one of sixteen
// 4KB pages in that. So the stream mixes all three page classes, hits
// at both levels, L2-hit promotions and evictions.
func (d *tlbDiff) run(ops []byte) {
	d.t.Helper()
	for ; len(ops) >= 3; ops = ops[3:] {
		d.step++
		sel := ops[0]
		v := mem.VAddr(ops[1]&3)<<30 | mem.VAddr(ops[1]>>2&3)<<21 | mem.VAddr(ops[2]&15)<<12
		if sel&3 == 3 {
			v = d.last
		}
		c := classOf(v)
		v = v.PageBase(c) | mem.VAddr(uint64(sel>>5)*(c.Bytes()/8))
		d.last = v
		d.keys[c][uint64(v)>>c.Shift()] = true
		switch sel & 3 {
		case 0, 1, 3:
			tr, lvl := d.tlb.Lookup(v)
			rtr, rlvl := d.ref.Lookup(v)
			if tr != rtr || lvl != rlvl {
				d.fail(fmt.Sprintf("Lookup(%#x)", uint64(v)), fmt.Sprint(tr, lvl), fmt.Sprint(rtr, rlvl))
			}
		case 2:
			tr := vm.Translation{VBase: v.PageBase(c), Frame: mem.Frame(uint64(v)>>12 + uint64(sel>>2&7)), Class: c}
			d.tlb.Insert(tr)
			d.ref.Insert(tr)
		}
		for c := range classNames {
			if got, want := d.tlb.obsL1Hits[c].Value(), d.ref.obsL1Hits[c].Value(); got != want {
				d.fail("l1_hits/"+classNames[c], got, want)
			}
			if got, want := d.tlb.obsL2Hits[c].Value(), d.ref.obsL2Hits[c].Value(); got != want {
				d.fail("l2_hits/"+classNames[c], got, want)
			}
		}
		if got, want := d.tlb.obsMisses.Value(), d.ref.obsMisses.Value(); got != want {
			d.fail("misses", got, want)
		}
	}
	d.compareContents()
}

// compareContents compares every array of both levels: the value under
// every key the stream used, then each set's entries in recency order,
// read back as the keys that inserting fresh keys evicts from it.
func (d *tlbDiff) compareContents() {
	d.t.Helper()
	for c := mem.Page4K; c <= mem.Page1G; c++ {
		for lvl, g := range [2]Geometry{d.cfg.L1[c], d.cfg.L2[c]} {
			a, r := d.tlb.l1[c], d.ref.l1[c]
			if lvl == 1 {
				a, r = d.tlb.l2[c], d.ref.l2[c]
			}
			for k := range d.keys[c] {
				v, ok := a.Peek(k)
				rv, rok := r.Peek(k)
				if v != rv || ok != rok {
					d.fail(fmt.Sprintf("L%d %v Peek(%#x)", lvl+1, c, k), fmt.Sprint(v, ok), fmt.Sprint(rv, rok))
				}
			}
			for set := 0; set < g.Sets; set++ {
				for i := 0; i < g.Ways; i++ {
					fresh := (1<<40+uint64(i))*uint64(g.Sets) + uint64(set)
					ev, ok := a.InsertEvict(fresh, vm.Translation{})
					rev, rok := r.InsertEvict(fresh, vm.Translation{})
					if ev != rev || ok != rok {
						d.fail(fmt.Sprintf("L%d %v set %d eviction %d", lvl+1, c, set, i), fmt.Sprint(ev, ok), fmt.Sprint(rev, rok))
					}
				}
			}
		}
	}
}

// diffTLBConfig builds a TLB whose L1 arrays have l1Ways ways and
// l1Sets sets and whose L2 arrays have l2Ways ways and l2Sets sets.
func diffTLBConfig(l1Sets, l1Ways, l2Sets, l2Ways int) Config {
	var cfg Config
	for c := range cfg.L1 {
		cfg.L1[c] = Geometry{Sets: l1Sets, Ways: l1Ways}
		cfg.L2[c] = Geometry{Sets: l2Sets, Ways: l2Ways}
	}
	return cfg
}

// Every L1 width 1–16 (1-way sets make each insert evict the
// remembered entry) against L2 widths from 1 to 16, with 1–4 L1 sets
// and 1–8 L2 sets, must match the reference on every return value and
// counter, and end with the same contents in the same recency order.
func TestTLBMatchesReferenceRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := make([]byte, 3*3000)
	for l1Ways := 1; l1Ways <= 16; l1Ways++ {
		for _, l2Ways := range []int{1, 4, 12, 16} {
			for _, sets := range [][2]int{{1, 1}, {2, 8}, {4, 4}} {
				rng.Read(ops)
				newTLBDiff(t, diffTLBConfig(sets[0], l1Ways, sets[1], l2Ways)).run(ops)
			}
		}
	}
	rng.Read(ops)
	newTLBDiff(t, DefaultConfig()).run(ops)
}

// FuzzTLBOps decodes L1 and L2 geometries of 1–16 ways from the first
// two bytes (1–4 L1 sets, 1–8 L2 sets) and an op stream (tlbDiff.run)
// from the rest.
func FuzzTLBOps(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x02, 0x01, 0x00, 0x00, 0x01, 0x00, 0x03, 0x00, 0x00})
	f.Add([]byte{0x03, 0x3b, 0x02, 0x05, 0x03, 0x02, 0x06, 0x03, 0x00, 0x05, 0x03, 0x03, 0x00, 0x00})
	f.Add([]byte{0x0f, 0x2f, 0x22, 0x40, 0x01, 0x00, 0x40, 0x01, 0x02, 0x08, 0x02, 0x01, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := diffTLBConfig(1<<(data[0]>>4%3), 1+int(data[0]%16), 1<<(data[1]>>4%4), 1+int(data[1]%16))
		newTLBDiff(t, cfg).run(data[2:])
	})
}
