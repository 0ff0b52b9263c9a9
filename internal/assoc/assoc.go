// Package assoc provides a generic set-associative array with true LRU
// replacement, and the per-set recency stack that orders it. The array
// is the storage building block for the TLBs and the MMU page-walk
// caches; the stack also orders the data caches of internal/cache and
// the DRAM row-policy prediction cache, so LRU is written once.
package assoc

import (
	"fmt"
	"math/bits"
)

// MaxWays is the widest set a Stack can order: one 4-bit way index per
// nibble of a uint64.
const MaxWays = 16

// Stack is one set's recency order: way indices packed one per nibble,
// the most recently used way in the low nibble and the least recently
// used way in nibble ways-1. Nibbles above ways-1 are zero.
type Stack uint64

// NewStacks returns the starting orders of n sets of the given width:
// way 0 least recent, then way 1, and so on. A set whose ways fill in
// index order and never empty again thus finds its first empty way at
// the LRU position while it has one.
func NewStacks(n, ways int) []Stack {
	var start Stack
	for w := 0; w < ways; w++ {
		start = start<<4 | Stack(w)
	}
	s := make([]Stack, n)
	for i := range s {
		s[i] = start
	}
	return s
}

// Touch returns the order with way w, which must be in the set, moved
// to most recent; the ways that were more recent than w each age by
// one place.
func (s Stack) Touch(w int) Stack {
	const ones, high = 0x1111111111111111, 0x8888888888888888
	// XOR zeroes the nibbles equal to w, and the zero-nibble test flags
	// the lowest exactly (a borrow only corrupts flags above it): w's
	// own nibble, which lies below the zero padding that matches w = 0.
	x := uint64(s) ^ uint64(w)*ones
	shift := uint(bits.TrailingZeros64((x-ones)&^x&high)) &^ 3
	// below masks nibbles 0 through w's; for the 16th nibble the shift
	// is 64, which Go defines to give 0, so below is every bit.
	below := uint64(1)<<(shift+4) - 1
	return Stack(uint64(s)&^below | uint64(s)<<4&below | uint64(w))
}

// LRU returns the least recently used way of a set of the given width.
func (s Stack) LRU(ways int) int { return int(s >> (4 * uint(ways-1)) & 0xF) }

// Geometry is an array's shape: Sets sets of Ways ways each.
type Geometry struct {
	Sets, Ways int
}

// Validate reports why an array of this shape cannot be built: Ways
// must be within 1..MaxWays and Sets a positive power of two.
func (g Geometry) Validate() error {
	if g.Ways <= 0 || g.Ways > MaxWays {
		return fmt.Errorf("assoc: %d ways is outside 1..%d", g.Ways, MaxWays)
	}
	if g.Sets <= 0 || g.Sets&(g.Sets-1) != 0 {
		return fmt.Errorf("assoc: %d sets is not a positive power of two", g.Sets)
	}
	return nil
}

// Assoc is a set-associative array with LRU replacement mapping uint64
// keys to values of type V.
//
// Ways fill in index order and never empty again, so a set's valid
// entries are its first filled[set] ways: probes scan only those, and
// an insertion takes the next empty way until the set is full, then
// the LRU way of its recency stack.
type Assoc[V any] struct {
	ways    int
	setMask uint64
	tags    []uint64
	vals    []V
	order   []Stack
	filled  []uint8
}

// New builds an array with the given geometry. A sets value of 1
// yields a fully-associative array. Panics with Geometry.Validate's
// error on invalid geometry.
func New[V any](sets, ways int) *Assoc[V] {
	if err := (Geometry{Sets: sets, Ways: ways}).Validate(); err != nil {
		panic(err)
	}
	n := sets * ways
	return &Assoc[V]{
		ways: ways, setMask: uint64(sets - 1),
		tags:   make([]uint64, n),
		vals:   make([]V, n),
		order:  NewStacks(sets, ways),
		filled: make([]uint8, sets),
	}
}

// Entries returns the total capacity.
func (a *Assoc[V]) Entries() int { return len(a.tags) }

// find returns key's set, the set's first index and the way holding
// key, or -1.
func (a *Assoc[V]) find(key uint64) (set, base, way int) {
	set = int(key & a.setMask)
	base = set * a.ways
	for w, t := range a.tags[base : base+int(a.filled[set])] {
		if t == key {
			return set, base, w
		}
	}
	return set, base, -1
}

// Lookup probes for key, updating LRU state on a hit.
func (a *Assoc[V]) Lookup(key uint64) (v V, ok bool) {
	set, base, w := a.find(key)
	if w >= 0 {
		a.order[set] = a.order[set].Touch(w)
		v, ok = a.vals[base+w], true
	}
	return v, ok
}

// Peek probes without touching LRU state.
func (a *Assoc[V]) Peek(key uint64) (v V, ok bool) {
	if _, base, w := a.find(key); w >= 0 {
		v, ok = a.vals[base+w], true
	}
	return v, ok
}

// Insert installs key→val, replacing the LRU way of the set (or
// updating in place on a key match).
func (a *Assoc[V]) Insert(key uint64, val V) { a.InsertEvict(key, val) }

// InsertEvict installs key→val exactly as Insert does, and
// additionally reports the valid key it displaced, if any. Callers
// that mirror the array's contents elsewhere use the evicted key to
// invalidate their copy.
func (a *Assoc[V]) InsertEvict(key uint64, val V) (evicted uint64, ok bool) {
	set, base, w := a.find(key)
	if w < 0 {
		if n := int(a.filled[set]); n < a.ways {
			w = n
			a.filled[set]++
		} else {
			w = a.order[set].LRU(a.ways)
			evicted, ok = a.tags[base+w], true
		}
		a.tags[base+w] = key
	}
	a.vals[base+w] = val
	a.order[set] = a.order[set].Touch(w)
	return evicted, ok
}
