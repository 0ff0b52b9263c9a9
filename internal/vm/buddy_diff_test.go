package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// buddyDiff drives the dense Buddy and the map-based reference through
// the same operations and fails on the first observable difference.
type buddyDiff struct {
	t    testing.TB
	b    *Buddy
	r    *refBuddy
	live []mem.Frame // allocated block heads, in allocation order
	step int
}

func newBuddyDiff(t testing.TB, frames uint64) *buddyDiff {
	d := &buddyDiff{t: t, b: NewBuddy(frames), r: newRefBuddy(frames)}
	d.check("NewBuddy")
	return d
}

// check compares every aggregate query of the two allocators.
func (d *buddyDiff) check(op string) {
	d.t.Helper()
	b, r := d.b, d.r
	if b.TotalFrames() != r.TotalFrames() || b.FreeFrames() != r.FreeFrames() {
		d.t.Fatalf("step %d %s: total/free = %d/%d, reference %d/%d",
			d.step, op, b.TotalFrames(), b.FreeFrames(), r.TotalFrames(), r.FreeFrames())
	}
	if b.LargestFreeOrder() != r.LargestFreeOrder() {
		d.t.Fatalf("step %d %s: LargestFreeOrder = %d, reference %d",
			d.step, op, b.LargestFreeOrder(), r.LargestFreeOrder())
	}
	for o := 0; o <= MaxOrder+1; o++ {
		if b.HasFree(o) != r.HasFree(o) {
			d.t.Fatalf("step %d %s: HasFree(%d) = %v, reference %v", d.step, op, o, b.HasFree(o), r.HasFree(o))
		}
	}
}

// same fails unless both allocators returned the same frame and error.
func (d *buddyDiff) same(op string, f, rf mem.Frame, err, rerr error) {
	d.t.Helper()
	if f != rf || fmt.Sprint(err) != fmt.Sprint(rerr) || errors.Is(err, ErrNoMemory) != errors.Is(rerr, ErrNoMemory) {
		d.t.Fatalf("step %d %s: got (%d, %v), reference (%d, %v)", d.step, op, f, err, rf, rerr)
	}
	d.check(op)
}

func (d *buddyDiff) alloc(order int) (mem.Frame, error) {
	f, err := d.b.Alloc(order)
	rf, rerr := d.r.Alloc(order)
	d.same(fmt.Sprintf("Alloc(%d)", order), f, rf, err, rerr)
	if err == nil {
		d.live = append(d.live, f)
	}
	return f, err
}

func (d *buddyDiff) allocFrame() {
	f, err := d.b.AllocFrame()
	rf, rerr := d.r.AllocFrame()
	d.same("AllocFrame", f, rf, err, rerr)
	if err == nil {
		d.live = append(d.live, f)
	}
}

func (d *buddyDiff) allocSpecific(f mem.Frame) {
	err, rerr := d.b.AllocSpecific(f), d.r.AllocSpecific(f)
	d.same(fmt.Sprintf("AllocSpecific(%d)", f), 0, 0, err, rerr)
	if err == nil {
		d.live = append(d.live, f)
	}
}

func (d *buddyDiff) free(f mem.Frame) {
	err, rerr := d.b.Free(f), d.r.Free(f)
	d.same(fmt.Sprintf("Free(%d)", f), 0, 0, err, rerr)
	if err == nil {
		for i, l := range d.live {
			if l == f {
				d.live = append(d.live[:i], d.live[i+1:]...)
				break
			}
		}
	}
}

func (d *buddyDiff) allocated(f mem.Frame) {
	d.t.Helper()
	if got, want := d.b.Allocated(f), d.r.Allocated(f); got != want {
		d.t.Fatalf("step %d Allocated(%d) = %v, reference %v", d.step, f, got, want)
	}
}

// run decodes ops four bytes at a time — an op selector and a 24-bit
// argument — into allocator calls. Orders span [-1, MaxOrder+1] and
// frame arguments reach past TotalFrames (to ^mem.Frame(0)), so every
// error path is exercised; Free targets a live block half the time so
// blocks coalesce rather than only failing.
func (d *buddyDiff) run(ops []byte) {
	frames := d.b.TotalFrames()
	for ; len(ops) >= 4; ops = ops[4:] {
		d.step++
		arg := uint64(ops[1])<<16 | uint64(ops[2])<<8 | uint64(ops[3])
		f := mem.Frame(arg % (frames + frames/8 + 2))
		if arg == 1<<24-1 {
			f = ^mem.Frame(0)
		}
		switch ops[0] % 5 {
		case 0:
			d.alloc(int(arg%(MaxOrder+3)) - 1)
		case 1:
			d.allocFrame()
		case 2:
			d.allocSpecific(f)
		case 3:
			if arg%2 == 0 && len(d.live) > 0 {
				f = d.live[(arg/2)%uint64(len(d.live))]
			}
			d.free(f)
		case 4:
			d.allocated(f)
		}
	}
}

// decodeBuddyOps splits fuzz input into a machine size and an op
// stream: the first two bytes give 1–65536 frames, scaled by 8 when
// the third is odd so order-18 blocks and multi-GB machines appear.
func decodeBuddyOps(data []byte) (uint64, []byte, bool) {
	if len(data) < 3 {
		return 0, nil, false
	}
	frames := 1 + uint64(binary.BigEndian.Uint16(data))
	if data[2]%2 == 1 {
		frames *= 8
	}
	return frames, data[3:], true
}

func TestBuddyMatchesReferenceRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 4*2000)
		rng.Read(ops)
		frames := []uint64{1, 7, 512, 513, 4096, 1<<14 + 5, 1<<18 + 3, 1 << 19}[seed%8]
		newBuddyDiff(t, frames).run(ops)
	}
}

// fragment runs fragment on the Buddy and refFragment on the
// reference, from the same seed, over the whole machine; both must
// then mark the same frames allocated.
func (d *buddyDiff) fragment(seed int64, frac float64) {
	d.t.Helper()
	frames := d.b.TotalFrames()
	fragment(rand.New(rand.NewSource(seed)), d.b, frames, frac)
	refFragment(rand.New(rand.NewSource(seed)), frames, frac, d.r.AllocSpecific)
	d.check(fmt.Sprintf("fragment(%v)", frac))
	for f := mem.Frame(0); uint64(f) < frames; f++ {
		d.allocated(f)
	}
}

// drain allocates single frames from both allocators until they run
// out, failing on the first frame they disagree on. Each allocation
// takes the head of the lowest non-empty order's list, and a block's
// frames all leave before the next block's, so the drain compares
// every free list, in order, in full.
func (d *buddyDiff) drain() {
	d.t.Helper()
	for {
		d.step++
		f, err := d.b.AllocFrame()
		rf, rerr := d.r.AllocFrame()
		if f != rf || err != rerr {
			d.t.Fatalf("step %d drain: got (%d, %v), reference (%d, %v)", d.step, f, err, rf, rerr)
		}
		if err != nil {
			break
		}
	}
	d.check("drain")
}

// takeSome allocates, on both allocators, blocks that leave some 2MB
// regions taken or already split: three 2MB blocks, a 1GB block where
// one fits beside other memory, blocks of orders 12 and 3, and single
// frames. fragment must take those regions frame by frame.
func (d *buddyDiff) takeSome() {
	frames := d.b.TotalFrames()
	orders := []int{9, 0, 9, 12, 3, 9, 0}
	if frames > 1<<MaxOrder {
		orders = append(orders, MaxOrder)
	}
	for _, o := range orders {
		d.alloc(o)
	}
	for _, f := range []uint64{frames / 2, frames/3 + 300, frames - 1} {
		d.allocSpecific(mem.Frame(f))
	}
}

// After memhog fragmentation the two allocators must hold the same
// free lists in the same LIFO order: the next 1,000 allocations,
// mixing 2MB blocks and single frames, return the same frames, and so
// does a drain of every frame left. The machines include sizes that
// are not a multiple of 1GB, the fractions one that stops mid-region,
// and takeSome leaves regions that fragment must take frame by frame.
func TestBuddyMatchesReferenceAfterFragment(t *testing.T) {
	for _, frames := range []uint64{1 << 16, 100_000, 1 << 18, 300_000} {
		for _, frac := range []float64{0.25, 0.5, 0.75, 0.999} {
			for _, taken := range []bool{false, true} {
				if frames == 300_000 && !taken {
					continue // the 1GB block is its reason to be here
				}
				d := newBuddyDiff(t, frames)
				if taken {
					d.takeSome()
				}
				before := d.b.FreeFrames()
				d.fragment(77, frac)
				if d.b.FreeFrames() >= before || d.b.HasFree(16) { // an order-16 block is 128 untouched regions
					t.Fatalf("%d frames, fragment(%v), taken %v: memory left unfragmented, %d of %d frames free",
						frames, frac, taken, d.b.FreeFrames(), before)
				}
				for i := 0; i < 1000; i++ {
					d.step++
					if i%4 == 0 {
						d.alloc(9)
					} else {
						d.allocFrame()
					}
				}
				d.drain()
			}
		}
	}
}

// decodeFragment splits fuzz input into a machine size of up to
// 131,072 frames (two bytes), a memhog fraction in 255ths (one byte),
// a seed (one byte), and allocations made before fragment, three bytes
// each: a byte whose value below 0x80 selects Alloc of that order
// modulo MaxOrder+1, and otherwise AllocSpecific at the frame the next
// two bytes give as a fraction of the machine.
func decodeFragment(data []byte) (frames uint64, frac float64, seed int64, pre []byte, ok bool) {
	if len(data) < 4 {
		return 0, 0, 0, nil, false
	}
	frames = 2 * (1 + uint64(binary.BigEndian.Uint16(data)))
	frac = float64(data[2]) / 255
	return frames, frac, int64(data[3]), data[4:], true
}

func FuzzFragment(f *testing.F) {
	f.Add([]byte{0x7f, 0xff, 128, 1})
	f.Add([]byte{0xff, 0xff, 191, 2, 9, 0, 0, 0x80, 0x40, 0x00, 18, 0, 0})
	f.Add([]byte{0x00, 0xc3, 255, 3, 0x80, 0x7f, 0xff, 3, 0, 0, 12, 0, 0})
	f.Add([]byte{0x12, 0x34, 64, 4, 0, 0, 0, 9, 0, 0, 0x81, 0x10, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, frac, seed, pre, ok := decodeFragment(data)
		if !ok {
			return
		}
		d := newBuddyDiff(t, frames)
		for n := 0; len(pre) >= 3 && n < 16; pre, n = pre[3:], n+1 {
			if pre[0] < 0x80 {
				d.alloc(int(pre[0]) % (MaxOrder + 1))
			} else {
				d.allocSpecific(mem.Frame(uint64(binary.BigEndian.Uint16(pre[1:])) * frames >> 16))
			}
		}
		d.fragment(seed, frac)
		d.drain()
	})
}

func FuzzBuddyOps(f *testing.F) {
	f.Add([]byte{0x02, 0x00, 0x00})
	f.Add([]byte{0x01, 0xff, 0x01, 0, 0, 0, 9, 1, 0, 0, 0, 3, 0, 0, 0})
	f.Add([]byte{0x00, 0x40, 0x00, 2, 0, 3, 9, 2, 0, 3, 9, 3, 0, 3, 9, 3, 0, 3, 9, 4, 0xff, 0xff, 0xff})
	f.Add([]byte{0x00, 0x07, 0x00, 0, 0, 0, 20, 0, 0, 0, 0, 3, 0xff, 0xff, 0xff, 2, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, ops, ok := decodeBuddyOps(data)
		if !ok {
			return
		}
		newBuddyDiff(t, frames).run(ops)
	})
}
