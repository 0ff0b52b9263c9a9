package prefetch

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/assoc"
	"repro/internal/mem"
)

// impDiff drives IMP and the reference (refIMP, imp_ref_test.go)
// through the same events and fails on the first difference in a
// prefetch list, Confirmed for any of its PCs, a table or detector
// entry, or the recency order of either.
//
// The reference stamps every table entry confirmed in one Train call
// with the same tick, and among equally old entries it evicts the
// lowest slot; a recency stack evicts the one confirmed first. When
// such a tie decides an eviction, train checks that IMP evicted one of
// the tied entries and ends the stream (tied).
type impDiff struct {
	t    testing.TB
	p    *IMP
	r    *refIMP
	pcs  []uint64
	step int
	op   func() string // describes the current event for failures
	tied bool
}

func newIMPDiff(t testing.TB, pcs []uint64) *impDiff {
	return &impDiff{t: t, p: New(), r: newRefIMP(refDefaultConfig()), pcs: pcs}
}

// run decodes events three bytes at a time: a selector, a PC byte and
// a value. A PC byte b below 16 moves on b+1 places in d.pcs (round
// the end); a larger one keeps the PC of the latest event, so the
// stream has the locality that lets the 4-entry detector learn. The
// selector's low two bits pick an index load of value mod 32 followed
// by the miss on its indirect target (the pair a core's A[B[i]] loop
// produces), a lone miss, or a prefetch lookup for the value. Its high
// nibble picks the target array: the PC's own (below 10), one of four
// that every PC shares, so different PCs sometimes verify the same
// miss (10-13), an address no pattern predicts (14), or none, which
// leaves an index load without its miss (15). run stops when a stamp
// tie decides an eviction.
func (d *impDiff) run(ops []byte) {
	d.t.Helper()
	last := make([]uint64, len(d.pcs))
	j := 0
	for ; len(ops) >= 3 && !d.tied; ops = ops[3:] {
		sel, hi := ops[0], uint64(ops[0]>>4)
		if ops[1] < 16 {
			j = (j + int(ops[1]) + 1) % len(d.pcs)
		}
		if sel%4 < 2 {
			last[j] = uint64(ops[2] % 32)
			d.train(Observation{PC: d.pcs[j], VAddr: 0x1000, Value: last[j], HasValue: true})
		}
		addr := uint64(j+5)<<28 + coefs[j%len(coefs)]*last[j]
		switch {
		case hi == 14:
			addr = uint64(ops[2])<<40 | 0x123
		case hi >= 10:
			addr = (hi-9)<<28 + coefs[j%len(coefs)]*last[j]
		}
		switch {
		case sel%4 == 3:
			d.prefetch(d.pcs[j], uint64(ops[2]))
		case hi != 15:
			d.train(Observation{PC: d.pcs[j] + 4, VAddr: mem.VAddr(addr), Missed: true})
		}
	}
}

// prefetch compares AppendPrefetches for an index load at pc reading
// value.
func (d *impDiff) prefetch(pc, value uint64) {
	d.step++
	d.op = func() string { return fmt.Sprintf("AppendPrefetches(%#x, %d)", pc, value) }
	got, want := d.p.AppendPrefetches(nil, pc, value), d.r.AppendPrefetches(nil, pc, value)
	if !slices.Equal(got, want) {
		d.t.Fatalf("step %d %s = %v, reference %v", d.step, d.op(), got, want)
	}
	d.compare()
}

// train feeds o to both prefetchers and compares them, unless a stamp
// tie decided an eviction: it then checks that every entry IMP evicted
// was evicted by the reference too or is one of the tied entries, and
// sets tied.
func (d *impDiff) train(o Observation) {
	d.step++
	d.op = func() string { return fmt.Sprintf("Train(%+v)", o) }
	// Only equal stamps already in the table can tie: entries a call
	// confirms are the most recent, and one call confirms at most one
	// entry per detector entry, far fewer than the table holds.
	var alt *refIMP
	for i := range d.r.table {
		for j := range i {
			if d.r.table[i].lru == d.r.table[j].lru {
				alt = tiesToHighest(d.r)
			}
		}
	}
	before, refBefore := d.p.table, slices.Clone(d.r.table)
	d.p.Train(o)
	d.r.Train(o)
	decided := false
	if alt != nil {
		alt.Train(o)
		for i := range d.r.table {
			decided = decided || alt.table[i].pc != d.r.table[i].pc
		}
	}
	if !decided {
		d.compare()
		return
	}
	for w := range refBefore {
		if d.p.table[w].pc == before[w].pc || d.r.table[w].pc != refBefore[w].pc {
			continue
		}
		tied := false
		for v := range refBefore {
			tied = tied || v != w && refBefore[v].lru == refBefore[w].lru
		}
		if !tied {
			d.t.Fatalf("step %d %s: evicted slot %d (PC %#x), which no stamp tie involves", d.step, d.op(), w, before[w].pc)
		}
	}
	d.tied = true
}

// tiesToHighest returns a copy of r whose stamps keep their order but
// break ties toward the highest slot: the copy evicts a different entry
// than r exactly when a tie decides the eviction.
func tiesToHighest(r *refIMP) *refIMP {
	c := *r
	n := uint64(r.cfg.TableEntries)
	c.table = make([]refPTEntry, len(r.table))
	for i, e := range r.table {
		e.ways = slices.Clone(e.ways)
		e.lru = e.lru*n + n - 1 - uint64(i)
		c.table[i] = e
	}
	c.ipd = slices.Clone(r.ipd)
	for i := range c.ipd {
		c.ipd[i].lru *= n
	}
	c.tick = r.tick*n + n - 1
	return &c
}

// compare checks Confirmed for every PC, every table and detector
// entry, and that each recency stack, read from its LRU end, lists the
// filled ways in the reference's stamp order (equal stamps in any
// order).
func (d *impDiff) compare() {
	for _, pc := range d.pcs {
		if got, want := d.p.Confirmed(pc), d.r.Confirmed(pc); got != want {
			d.t.Fatalf("step %d %s: Confirmed(%#x) = %v, reference %v", d.step, d.op(), pc, got, want)
		}
	}
	if d.p.tableN != len(d.r.table) || d.p.ipdN != len(d.r.ipd) {
		d.t.Fatalf("step %d %s: %d table and %d detector entries, reference %d and %d",
			d.step, d.op(), d.p.tableN, d.p.ipdN, len(d.r.table), len(d.r.ipd))
	}
	stamps := make([]uint64, 0, TableEntries)
	for w, e := range d.r.table {
		got := d.p.table[w]
		same := got.pc == e.pc && len(got.ways) == len(e.ways)
		for k := 0; same && k < len(e.ways); k++ {
			same = got.ways[k].coef == e.ways[k].coef && got.ways[k].base == e.ways[k].base
		}
		if !same {
			d.t.Fatalf("step %d %s: table slot %d = %+v, reference %+v", d.step, d.op(), w, got, e)
		}
		stamps = append(stamps, e.lru)
	}
	d.checkOrder("table", d.p.tableOrder, TableEntries, stamps)
	stamps = stamps[:0]
	for w, e := range d.r.ipd {
		got := d.p.ipd[w]
		if got.pc != e.pc || got.lastValue != e.lastValue || got.haveValue != e.haveValue ||
			got.hypotheses != e.hypotheses || got.seeded != e.seeded || got.verified != e.verified {
			d.t.Fatalf("step %d %s: detector slot %d = %+v, reference %+v", d.step, d.op(), w, got, e)
		}
		stamps = append(stamps, e.lru)
	}
	d.checkOrder("detector", d.p.ipdOrder, IPDEntries, stamps)
}

// checkOrder fails unless the stack's filled ways (those below
// len(stamps)), read from the LRU end, have non-decreasing stamps.
func (d *impDiff) checkOrder(name string, order assoc.Stack, ways int, stamps []uint64) {
	mask := uint16(1)<<len(stamps) - 1
	prev := -1
	for mask != 0 {
		w := order.LRUIn(ways, mask)
		if prev >= 0 && stamps[w] < stamps[prev] {
			d.t.Fatalf("step %d %s: %s way %d is less recent than way %d, reference stamps %v", d.step, d.op(), name, prev, w, stamps)
		}
		mask &^= 1 << w
		prev = w
	}
}

// pcPool returns n index PCs, the first of them 0 (the PC an empty
// table entry holds).
func pcPool(n int) []uint64 {
	pcs := make([]uint64, n)
	for i := range pcs {
		pcs[i] = uint64(i) * 0x40
	}
	return pcs
}

// Streams over 1–40 index PCs, enough to evict from the 16-entry table
// and the 4-entry detector, must match the reference on every answer
// and entry. A stream a stamp tie decides ends there.
func TestIMPMatchesReferenceRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := make([]byte, 3*4000)
	tied := 0
	const streams = 120
	for i := 0; i < streams; i++ {
		rng.Read(ops)
		d := newIMPDiff(t, pcPool(1+i%40))
		d.run(ops)
		if d.tied {
			tied++
		}
	}
	t.Logf("%d of %d streams ended at an eviction a stamp tie decided", tied, streams)
}

// The one rule that changed: entries confirmed in one Train call share
// the reference's stamp, and among the oldest it evicts the lowest
// slot, where a recency stack evicts the entry confirmed first. PC b
// confirms first into slot 0; later one miss confirms a (slot 1) and
// then b, a first because its detector entry is older. Fourteen more
// PCs fill the table, and a seventeenth evicts: b from the reference,
// a from IMP.
func TestIMPStampTieEvictsFirstConfirmed(t *testing.T) {
	const a, b = 0x100, 0x200
	pcs := []uint64{a, b}
	for i := 0; i < 15; i++ {
		pcs = append(pcs, uint64(0x1000+i*0x40))
	}
	d := newIMPDiff(t, pcs)
	index := func(pc, v uint64) {
		d.train(Observation{PC: pc, VAddr: 0x1000, Value: v, HasValue: true})
	}
	miss := func(addr uint64) { d.train(Observation{PC: 0x4, VAddr: mem.VAddr(addr), Missed: true}) }
	base := func(i int) uint64 { return uint64(i) << 28 }

	index(a, 1) // a seeds on array 2
	miss(base(2) + 8)
	for v := uint64(1); v <= 3; v++ { // b confirms array 1 alone
		index(b, v)
		miss(base(1) + 8*v)
	}
	index(b, 4) // b seeds on array 2
	miss(base(2) + 8*4)
	for v := uint64(5); v <= 6; v++ { // a and b verify array 2 together
		index(a, v)
		index(b, v)
		miss(base(2) + 8*v)
	}
	for i, pc := range pcs[2:] {
		if i == 14 && d.tied {
			t.Fatal("a stamp tie decided an eviction before the table was full")
		}
		for v := uint64(1); v <= 3; v++ {
			index(pc, v)
			miss(base(3+i) + 8*v)
		}
	}
	if !d.tied {
		t.Fatal("the seventeenth PC's eviction was not decided by a stamp tie")
	}
	if !d.r.Confirmed(a) || d.r.Confirmed(b) {
		t.Errorf("reference: Confirmed(a) = %v, Confirmed(b) = %v; want the lower slot, b, evicted",
			d.r.Confirmed(a), d.r.Confirmed(b))
	}
	if d.p.Confirmed(a) || !d.p.Confirmed(b) {
		t.Errorf("IMP: Confirmed(a) = %v, Confirmed(b) = %v; want the first confirmed, a, evicted",
			d.p.Confirmed(a), d.p.Confirmed(b))
	}
}

// FuzzIMPOps decodes 1–40 index PCs from the first byte and an event
// stream (impDiff.run) from the rest.
func FuzzIMPOps(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x05, 0x01, 0x00, 0x03, 0x00, 0x00, 0x06, 0x81, 0x00, 0x03, 0x02, 0x00, 0x09})
	f.Add([]byte{0x27, 0x00, 0x03, 0x01, 0x81, 0x00, 0x00, 0x00, 0x03, 0x02, 0x81, 0x00, 0x01, 0x00, 0x04, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		newIMPDiff(t, pcPool(1+int(data[0])%40)).run(data[1:])
	})
}
