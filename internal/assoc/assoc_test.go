package assoc

import (
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	a := New[int](4, 2)
	if a.Entries() != 8 {
		t.Fatalf("Entries = %d", a.Entries())
	}
	if _, ok := a.Lookup(5); ok {
		t.Error("empty array should miss")
	}
	a.Insert(5, 50)
	if v, ok := a.Lookup(5); !ok || v != 50 {
		t.Errorf("Lookup(5) = %d, %v", v, ok)
	}
	a.Insert(5, 51) // in-place update
	if v, _ := a.Lookup(5); v != 51 {
		t.Errorf("update failed: %d", v)
	}
}

func TestLRUEviction(t *testing.T) {
	a := New[int](1, 2) // fully associative, 2 entries
	a.Insert(1, 1)
	a.Insert(2, 2)
	a.Lookup(1) // 1 is now MRU
	a.Insert(3, 3)
	if _, ok := a.Peek(2); ok {
		t.Error("2 was LRU and should be evicted")
	}
	if _, ok := a.Peek(1); !ok {
		t.Error("1 was MRU and should survive")
	}
	if _, ok := a.Peek(3); !ok {
		t.Error("3 was just inserted")
	}
}

func TestPeekDoesNotTouchLRU(t *testing.T) {
	a := New[int](1, 2)
	a.Insert(1, 1)
	a.Insert(2, 2)
	a.Peek(1) // must NOT promote 1
	a.Insert(3, 3)
	if _, ok := a.Peek(1); ok {
		t.Error("1 stayed LRU; Peek must not have promoted it")
	}
}

func TestSetIsolation(t *testing.T) {
	a := New[int](2, 1)
	a.Insert(0, 0) // set 0
	a.Insert(1, 1) // set 1
	a.Insert(2, 2) // set 0: evicts key 0 only
	if _, ok := a.Peek(0); ok {
		t.Error("key 0 should be evicted from set 0")
	}
	if _, ok := a.Peek(1); !ok {
		t.Error("key 1 in set 1 must be untouched")
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	for _, g := range [][2]int{{0, 4}, {3, 4}, {4, 0}, {-4, 2}, {1, MaxWays + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) should panic", g[0], g[1])
				}
			}()
			New[int](g[0], g[1])
		}()
	}
}

// Property: an array never holds more than sets×ways distinct keys,
// and a just-inserted key is always immediately findable.
func TestCapacityProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		a := New[uint16](4, 3)
		for _, k := range keys {
			a.Insert(uint64(k), k)
			if v, ok := a.Peek(uint64(k)); !ok || v != k {
				return false
			}
		}
		resident := 0
		seen := map[uint64]bool{}
		for _, k := range keys {
			if !seen[uint64(k)] {
				seen[uint64(k)] = true
				if _, ok := a.Peek(uint64(k)); ok {
					resident++
				}
			}
		}
		return resident <= 12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
