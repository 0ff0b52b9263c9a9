package vm

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// tableDiff drives the packed PageTable and the 16-byte-PTE reference
// through the same operations and fails on the first observable
// difference. Each table takes its table pages from its own Buddy of
// the same size, so both get the same frames and run out together.
// regions is the set of 2MB virtual regions holding a 4KB mapping,
// kept the way AddressSpace once kept it: L1TablePages must equal its
// size.
type tableDiff struct {
	t       testing.TB
	pt      *PageTable
	ref     *refPageTable
	frames  uint64 // size of each table's Buddy
	regions map[mem.VAddr]struct{}
	step    int
}

func newTableDiff(t testing.TB, frames uint64) (*tableDiff, bool) {
	pt, err := NewPageTable(NewBuddy(frames).AllocFrame)
	ref, rerr := newRefPageTable(NewBuddy(frames).AllocFrame)
	if fmt.Sprint(err) != fmt.Sprint(rerr) {
		t.Fatalf("%d frames: NewPageTable error %v, reference %v", frames, err, rerr)
	}
	if err != nil {
		return nil, false
	}
	d := &tableDiff{t: t, pt: pt, ref: ref, frames: frames, regions: map[mem.VAddr]struct{}{}}
	d.check("NewPageTable")
	return d, true
}

// check compares the tables' aggregate queries, and the level-1 count
// with the region set.
func (d *tableDiff) check(op string) {
	d.t.Helper()
	if d.pt.RootFrame() != d.ref.RootFrame() || d.pt.TablePages() != d.ref.TablePages() {
		d.t.Fatalf("step %d %s: root %d, %d table pages; reference root %d, %d table pages",
			d.step, op, d.pt.RootFrame(), d.pt.TablePages(), d.ref.RootFrame(), d.ref.TablePages())
	}
	if got, want := d.pt.L1TablePages(), uint64(len(d.regions)); got != want {
		d.t.Fatalf("step %d %s: L1TablePages = %d, %d 2MB regions hold a 4KB mapping", d.step, op, got, want)
	}
}

func (d *tableDiff) mapPage(v mem.VAddr, c mem.PageSizeClass, f mem.Frame) {
	d.t.Helper()
	err, rerr := d.pt.Map(v, c, f), d.ref.Map(v, c, f)
	if fmt.Sprint(err) != fmt.Sprint(rerr) {
		d.t.Fatalf("step %d Map(%#x, %v, %d) = %v, reference %v", d.step, uint64(v), c, f, err, rerr)
	}
	if err == nil && c == mem.Page4K {
		d.regions[v.PageBase(mem.Page2M)] = struct{}{}
	}
	d.check(fmt.Sprintf("Map(%#x, %v, %d)", uint64(v), c, f))
}

func (d *tableDiff) lookup(v mem.VAddr) {
	d.t.Helper()
	tr, ok := d.pt.Lookup(v)
	rtr, rok := d.ref.Lookup(v)
	if tr != rtr || ok != rok {
		d.t.Fatalf("step %d Lookup(%#x) = %+v %v, reference %+v %v", d.step, uint64(v), tr, ok, rtr, rok)
	}
}

func (d *tableDiff) walk(v mem.VAddr) {
	d.t.Helper()
	steps, n, ok := d.pt.Walk(v)
	rsteps, rn, rok := d.ref.Walk(v)
	if steps != rsteps || n != rn || ok != rok {
		d.t.Fatalf("step %d Walk(%#x) = %+v %d %v, reference %+v %d %v", d.step, uint64(v), steps, n, ok, rsteps, rn, rok)
	}
}

func (d *tableDiff) readPTE(p mem.PAddr) {
	d.t.Helper()
	e, lvl, ok := d.pt.ReadPTE(p)
	re, rlvl, rok := d.ref.ReadPTE(p)
	if e != re || lvl != rlvl || ok != rok {
		d.t.Fatalf("step %d ReadPTE(%#x) = %+v L%d %v, reference %+v L%d %v", d.step, uint64(p), e, lvl, ok, re, rlvl, rok)
	}
}

func (d *tableDiff) isTableFrame(f mem.Frame) {
	d.t.Helper()
	if got, want := d.pt.IsTableFrame(f), d.ref.IsTableFrame(f); got != want {
		d.t.Fatalf("step %d IsTableFrame(%d) = %v, reference %v", d.step, f, got, want)
	}
}

// checkAll compares every entry of every table page. Table pages come
// from the tables' Buddies, so they lie below frames.
func (d *tableDiff) checkAll() {
	d.t.Helper()
	d.step++
	for f := mem.Frame(0); uint64(f) <= d.frames; f++ {
		d.isTableFrame(f)
		if d.ref.IsTableFrame(f) {
			for i := uint64(0); i < mem.EntriesPerTable; i++ {
				d.readPTE(f.PTEAddr(i))
			}
		}
	}
}

// diffVAddr spreads 24 bits over a few table paths, so that mappings
// share table pages and meet each other's superpages: four L4 slots,
// four L3, four L2 and eight L1 slots, and a byte offset in the page.
// One address in eight is made non-canonical.
func diffVAddr(x uint32) mem.VAddr {
	slot := func(i uint32) uint64 { return []uint64{0, 1, 255, 511}[i&3] }
	v := slot(x)<<39 | slot(x>>2)<<30 | slot(x>>4)<<21 | uint64(x>>6&7)<<12 | uint64(x>>9&0xfff)
	if x>>21 == 7 {
		v |= 1 << 50
	}
	return mem.VAddr(v)
}

// diffFrame turns 16 bits into a data frame for a class: naturally
// aligned when the low bit is clear, any frame otherwise.
func diffFrame(x uint16, c mem.PageSizeClass) mem.Frame {
	if x&1 == 0 {
		return mem.Frame(x>>1) * mem.Frame(c.Frames())
	}
	return mem.Frame(x)
}

// run decodes ops six bytes at a time — an op selector, three address
// bytes and two frame bytes — into table calls. ReadPTE and
// IsTableFrame probe frames a little past the Buddy's end, so table
// and non-table frames both appear, and ReadPTE addresses fall
// anywhere inside an entry.
func (d *tableDiff) run(ops []byte) {
	for ; len(ops) >= 6; ops = ops[6:] {
		d.step++
		v := diffVAddr(uint32(ops[1])<<16 | uint32(ops[2])<<8 | uint32(ops[3]))
		x := binary.BigEndian.Uint16(ops[4:])
		f := mem.Frame(uint64(x) % (d.frames + 8))
		switch ops[0] % 6 {
		case 0, 1:
			c := mem.PageSizeClass(ops[0] / 6 % 3)
			d.mapPage(v, c, diffFrame(x, c))
		case 2, 3:
			d.lookup(v)
		case 4:
			d.walk(v)
		case 5:
			if ops[0]&0x80 != 0 {
				d.isTableFrame(f)
			} else {
				d.readPTE(f.Addr() + mem.PAddr(uint64(v)&(mem.PageSize-1)))
			}
		}
	}
	d.checkAll()
}

// decodeTableOps splits fuzz input into the size of the Buddy the
// table pages come from, 0–255 frames, and an op stream.
func decodeTableOps(data []byte) (uint64, []byte, bool) {
	if len(data) < 1 {
		return 0, nil, false
	}
	return uint64(data[0]), data[1:], true
}

func TestPageTableMatchesReferenceRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 6*3000)
		rng.Read(ops)
		frames := []uint64{0, 1, 5, 12, 40, 300, 4096, 1 << 14}[seed%8]
		if d, ok := newTableDiff(t, frames); ok {
			d.run(ops)
		}
	}
}

func FuzzPageTableOps(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{9, 0, 0, 0, 0, 0, 2, 4, 0, 0, 0, 0, 2, 3, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 6, 0, 0, 0x40, 0, 2, 0, 0, 0, 0x41, 0, 3, 10, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 1})
	f.Add([]byte{3, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 4, 5, 0, 0, 0, 0, 0, 0x85, 0, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, ops, ok := decodeTableOps(data)
		if !ok {
			return
		}
		if d, ok := newTableDiff(t, frames); ok {
			d.run(ops)
		}
	})
}
