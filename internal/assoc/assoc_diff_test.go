package assoc

import (
	"fmt"
	"math/rand"
	"testing"
)

// assocDiff drives Assoc and the stamp-based reference (refAssoc)
// through the same operations and fails on the first difference in a
// returned value, presence flag or evicted key.
type assocDiff struct {
	t    testing.TB
	a    *Assoc[int]
	r    *refAssoc[int]
	keys uint64 // the op stream's keys span 0..keys-1
	step int
}

func newAssocDiff(t testing.TB, sets, ways int) *assocDiff {
	return &assocDiff{t: t, a: New[int](sets, ways), r: newRefAssoc[int](sets, ways),
		keys: uint64(3 * sets * ways)}
}

// run decodes ops three bytes at a time: an op selector (Lookup, Peek,
// Insert or InsertEvict) and a key among three times the capacity, so
// key 0 is in play and every set sees hits, updates in place, fills
// into empty ways and evictions. Inserted values are the step number.
func (d *assocDiff) run(ops []byte) {
	d.t.Helper()
	for ; len(ops) >= 3; ops = ops[3:] {
		d.step++
		key := (uint64(ops[1])<<8 | uint64(ops[2])) % d.keys
		var op string
		var got, want [2]any
		switch ops[0] % 4 {
		case 0:
			op = fmt.Sprintf("Lookup(%d)", key)
			v, ok := d.a.Lookup(key)
			rv, rok := d.r.Lookup(key)
			got, want = [2]any{v, ok}, [2]any{rv, rok}
		case 1:
			op = fmt.Sprintf("Peek(%d)", key)
			v, ok := d.a.Peek(key)
			rv, rok := d.r.Peek(key)
			got, want = [2]any{v, ok}, [2]any{rv, rok}
		case 2:
			op = fmt.Sprintf("Insert(%d)", key)
			d.a.Insert(key, d.step)
			d.r.Insert(key, d.step)
		case 3:
			op = fmt.Sprintf("InsertEvict(%d)", key)
			ev, ok := d.a.InsertEvict(key, d.step)
			rev, rok := d.r.InsertEvict(key, d.step)
			got, want = [2]any{ev, ok}, [2]any{rev, rok}
		}
		if got != want {
			d.t.Fatalf("step %d %s: got %v, reference %v", d.step, op, got, want)
		}
	}
}

// Every width 1–16 and set count 1–32 must match the stamp-based
// reference on every returned value.
func TestAssocMatchesReferenceRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := make([]byte, 3*4000)
	for ways := 1; ways <= MaxWays; ways++ {
		for sets := 1; sets <= 32; sets *= 2 {
			rng.Read(ops)
			newAssocDiff(t, sets, ways).run(ops)
		}
	}
}

// FuzzAssocOps decodes 1–16 ways and 1–32 sets from the first byte and
// an op stream (assocDiff.run) from the rest.
func FuzzAssocOps(f *testing.F) {
	f.Add([]byte{0x13, 0x02, 0x00, 0x01, 0x02, 0x00, 0x02, 0x00, 0x00, 0x01})
	f.Add([]byte{0x5f, 0x03, 0x00, 0x00, 0x02, 0x00, 0x10, 0x03, 0x00, 0x20, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		ways, sets := 1+int(data[0]%16), 1<<(data[0]/16%6)
		newAssocDiff(t, sets, ways).run(data[1:])
	})
}

// Stack must behave as a move-to-front list of 1–16 ways, starting
// from way 0 least recent, with zero padding above the top way: with
// fewer than 16 ways, way 0 shares its nibble value with the padding.
// LRUIn must find the model's least recent way among a random mask,
// whose bits above the top way never match.
func TestStackMatchesMoveToFront(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for ways := 1; ways <= MaxWays; ways++ {
		// model[0] is the most recent way, model[ways-1] the LRU way.
		model := make([]int, ways)
		for i := range model {
			model[i] = ways - 1 - i
		}
		s := NewStacks(1, ways)[0]
		for step := 0; step < 2000; step++ {
			for i, w := range model {
				if got := int(s >> (4 * i) & 0xF); got != w {
					t.Fatalf("%d ways, step %d: nibble %d = %d, model %v", ways, step, i, got, model)
				}
			}
			if pad := uint64(s) >> (4 * ways) & (1<<(4*(MaxWays-ways)) - 1); ways < MaxWays && pad != 0 {
				t.Fatalf("%d ways, step %d: padding %#x", ways, step, pad)
			}
			if got := s.LRU(ways); got != model[ways-1] {
				t.Fatalf("%d ways, step %d: LRU = %d, model %v", ways, step, got, model)
			}
			mask := uint16(rng.Intn(1 << MaxWays))
			want := -1
			for i := ways - 1; i >= 0 && want < 0; i-- {
				if mask>>model[i]&1 != 0 {
					want = model[i]
				}
			}
			if got := s.LRUIn(ways, mask); got != want {
				t.Fatalf("%d ways, step %d: LRUIn(%#x) = %d, model %v", ways, step, mask, got, model)
			}
			w := rng.Intn(ways)
			if step%7 == 0 {
				w = 0 // the way that shares the padding's value
			}
			s = s.Touch(w)
			i := 0
			for model[i] != w {
				i++
			}
			copy(model[1:i+1], model[:i])
			model[0] = w
		}
	}
}
