package dram

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/assoc"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/vm"
)

// bankDiff drives Bank and the reference (refBank, bank_ref_test.go)
// through the same operations and fails on the first observable
// difference: a return value, a stats counter, the ready time, a
// sub-row's latched state, the sub-rows' recency order or a predicted
// window.
type bankDiff struct {
	t       testing.TB
	b       *Bank
	r       *refBank
	st, rst stats.Stats
	rows    []uint64 // the op stream's rows
	nSub    int
	now     uint64
	step    int
}

func newBankDiff(t testing.TB, policy RowPolicy, subRows int, rows []uint64) *bankDiff {
	g := DefaultGeometry()
	g.SubRows = subRows
	return &bankDiff{t: t, rows: rows, nSub: subRows,
		b: NewBank(g, DefaultTiming(), policy),
		// Any bank id: the reference keys its predictor by id and row.
		r: newRefBank(11, g, DefaultTiming(), policy)}
}

// diffRows returns a row pool with six rows in each of three predictor
// sets, so the 4-way sets evict, plus rows of a fourth set around top.
func diffRows(top uint64) []uint64 {
	var rows []uint64
	for k := uint64(0); k < 6; k++ {
		for set := uint64(0); set < 3; set++ {
			rows = append(rows, k*predSets+set)
		}
		rows = append(rows, top-k*predSets)
	}
	return rows
}

// gap maps a byte to a cycle gap: fine steps up to 127, then strides of
// 32 up to about 4,000, past the adaptive policy's largest window.
func gap(b byte) uint64 {
	if b < 128 {
		return uint64(b)
	}
	return uint64(b-128) * 32
}

// allowed decodes a sub-row restriction: none, one sub-row, a run, or
// a run followed by an index past the last sub-row (Access skips it).
func (d *bankDiff) allowed(sel, pick byte) []int {
	lo := int(pick) % d.nSub
	hi := lo + 1 + int(pick>>4)%(d.nSub-lo)
	switch sel >> 4 & 3 {
	case 1:
		return []int{lo}
	case 2:
		return new(indices).span(lo, hi)
	case 3:
		return append(new(indices).span(lo, hi), d.nSub)
	}
	return nil
}

// run decodes ops five bytes at a time: an operation (low three bits
// of the first byte, plus a sub-row restriction in bits 4-5), a row
// from the pool, a segment, a cycle gap, and one more operand byte.
func (d *bankDiff) run(ops []byte) {
	d.t.Helper()
	for ; len(ops) >= 5; ops = ops[5:] {
		d.step++
		sel, row, seg := ops[0], d.rows[int(ops[1])%len(d.rows)], int(ops[2])%d.nSub
		dt, arg := gap(ops[3]), ops[4]
		at := d.now + dt
		var op string
		var got, want any
		switch sel % 8 {
		case 0, 1, 2:
			issue := max(d.now, d.b.ReadyAt()) + dt
			allowed := d.allowed(sel, arg)
			op = fmt.Sprintf("Access(%d, %d, %d, %v)", row, seg, issue, allowed)
			o, done := d.b.Access(row, seg, issue, allowed, &d.st)
			ro, rdone := d.r.Access(row, seg, issue, allowed, &d.rst)
			got, want = [2]any{o, done}, [2]any{ro, rdone}
			d.now = issue
		case 3:
			op = fmt.Sprintf("Pin(%d, %d, %d, %d)", row, seg, at, at+gap(arg))
			d.b.Pin(row, seg, at, at+gap(arg))
			d.r.Pin(row, seg, at, at+gap(arg))
		case 4:
			if arg > 32 {
				continue // refreshes are rare, as in a run
			}
			op = fmt.Sprintf("Refresh(%d, %d)", at, gap(arg))
			d.b.Refresh(at, gap(arg), &d.st)
			d.r.Refresh(at, gap(arg), &d.rst)
		case 5:
			op = fmt.Sprintf("WouldHit(%d, %d, %d)", row, seg, at)
			got, want = d.b.WouldHit(row, seg, at), d.r.WouldHit(row, seg, at)
		case 6, 7:
			// Outcome at a cycle, the plan against the old Peek; case 7
			// asks at a sub-row's deadline or one cycle past it.
			if sel%8 == 7 {
				if s := d.b.subs[int(arg)%d.nSub]; s.valid && s.until < math.MaxUint64 {
					at = s.until + uint64(arg>>7)
				}
			}
			op = fmt.Sprintf("Outcome(%d, %d, %d)", row, seg, at)
			o := d.b.plan(row, seg).outcome(at)
			ro, rlat := d.r.Peek(row, seg, at)
			got, want = [2]any{o, d.b.timing.latency(o)}, [2]any{ro, rlat}
		}
		if got != want {
			d.t.Fatalf("step %d %s: got %v, reference %v", d.step, op, got, want)
		}
		d.compareState(op)
	}
}

// compareState checks everything a later operation could observe.
func (d *bankDiff) compareState(op string) {
	d.t.Helper()
	if d.st != d.rst {
		d.t.Fatalf("step %d %s: stats diverged:\n got %+v\nwant %+v", d.step, op, d.st, d.rst)
	}
	if d.b.readyAt != d.r.readyAt {
		d.t.Fatalf("step %d %s: readyAt %d, reference %d", d.step, op, d.b.readyAt, d.r.readyAt)
	}
	for i := range d.b.subs {
		s, rs := d.b.subs[i], d.r.subs[i]
		if s.valid != rs.valid || s.row != rs.row || s.seg != rs.seg || s.lastTouch != rs.lastTouch ||
			s.pinnedUntil != rs.pinnedUntil {
			d.t.Fatalf("step %d %s: sub-row %d = %+v, reference %+v", d.step, op, i, s, rs)
		}
	}
	// The recency stack, read from its LRU end, must list the valid
	// sub-rows in the order of the reference's stamps, which are
	// distinct: every access stamps one sub-row with a fresh tick.
	var order, want []int
	for i := d.nSub - 1; i >= 0; i-- {
		if w := int(d.b.order >> (4 * i) & 0xF); d.b.subs[w].valid {
			order = append(order, w)
		}
	}
	for i := range d.r.subs {
		if d.r.subs[i].valid {
			want = append(want, i)
		}
	}
	slices.SortFunc(want, func(a, b int) int { return cmp.Compare(d.r.subs[a].lru, d.r.subs[b].lru) })
	if !slices.Equal(order, want) {
		d.t.Fatalf("step %d %s: valid sub-rows from LRU = %v, reference %v", d.step, op, order, want)
	}
	if d.b.policy != PolicyAdaptive {
		return
	}
	for _, row := range d.rows {
		if w, rw := d.b.pred.window(row), d.r.pred.window(d.r.predKey(row)); w != rw {
			d.t.Fatalf("step %d %s: window(%d) = %d, reference %d", d.step, op, row, w, rw)
		}
	}
}

var diffPolicies = []RowPolicy{PolicyAdaptive, PolicyOpen, PolicyClosed}

// diffPools are the op streams' row pools: diffRows, and five rows
// that share one predictor set and recur often enough that several
// sub-rows latch the same segment.
var diffPools = [][]uint64{diffRows(1 << 20), {0, predSets, 2 * predSets, 3 * predSets, 4 * predSets}}

// Every row policy with 1-16 sub-rows must match the reference on
// every answer and counter over seeded op streams that mix
// unrestricted and restricted fills.
func TestBankMatchesReferenceRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := make([]byte, 5*5000)
	for _, policy := range diffPolicies {
		for subRows := 1; subRows <= assoc.MaxWays; subRows++ {
			for _, rows := range diffPools {
				rng.Read(ops)
				newBankDiff(t, policy, subRows, rows).run(ops)
			}
		}
	}
}

// The predictor's 32-bit tags must keep the largest row physical
// memory can hold apart from every other row, under the geometry with
// the most rows: one channel, one bank, one-byte rows.
func TestBankMatchesReferenceAtLargestRow(t *testing.T) {
	g := Geometry{Channels: 1, BanksPerCh: 1, RowBytes: 1}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	top := g.Decode(mem.PAddr(vm.MaxPhysFrames*mem.PageSize - 1)).Row
	var p openPredictor
	p.set(top, predMax)
	for k := uint64(1); k <= predWays; k++ {
		ev, ok := p.set(top-k*predSets, predMin)
		if want := k == predWays; ok != want || (ok && ev != top) {
			t.Fatalf("insert %d: evicted %d (%v), want %d (%v)", k, ev, ok, top, want)
		}
	}
	rng := rand.New(rand.NewSource(2))
	ops := make([]byte, 5*5000)
	for subRows := 1; subRows <= 8; subRows *= 2 {
		rng.Read(ops)
		newBankDiff(t, PolicyAdaptive, subRows, diffRows(top)).run(ops)
	}
}

// FuzzBankOps decodes the row policy, 1-16 sub-rows and a row pool
// from the first byte and an op stream (bankDiff.run) from the rest.
func FuzzBankOps(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x01, 0x00, 0x00, 0x06, 0x01, 0x10, 0x00, 0x00, 0x04, 0xc8, 0x00})
	f.Add([]byte{0x3c, 0x20, 0x03, 0x00, 0x31, 0x03, 0x21, 0x05, 0x11, 0x07, 0x40, 0x90, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		policy, subRows := diffPolicies[int(data[0])%3], 1+int(data[0]>>2)%16
		newBankDiff(t, policy, subRows, diffPools[data[0]>>6&1]).run(data[1:])
	})
}
