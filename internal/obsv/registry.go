package obsv

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// HistBuckets is the number of power-of-two histogram buckets. Bucket
// 0 counts observations of 0 or 1; bucket i (i >= 1) counts
// observations in [2^i, 2^(i+1)). 40 buckets cover every uint64 a
// simulated clock can plausibly produce.
const HistBuckets = 40

// Counter is a monotonically increasing counter. The zero value is
// ready to use; a nil *Counter is valid and discards updates, so
// instrumented components need no "is observability on?" branches
// beyond the pointer test the method itself performs. Counters are
// safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Nil-safe.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count. Nil-safe (returns 0).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram accumulates a latency-style distribution into fixed
// power-of-two buckets. Observing allocates nothing and is safe for
// concurrent use; a nil *Histogram discards observations. The zero
// value is ready to use.
type Histogram struct {
	count atomic.Uint64
	sum   atomic.Uint64
	bkt   [HistBuckets]atomic.Uint64
}

// bucketOf maps a value to its bucket: floor(log2(v)), clamped, with
// 0 and 1 sharing bucket 0 — the same rule stats.AddDRAMLatency uses.
func bucketOf(v uint64) int {
	b := bits.Len64(v)
	if b > 0 {
		b--
	}
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// BucketUpper returns the inclusive upper bound of bucket i (the
// largest value the bucket can hold; the last bucket is unbounded and
// reports MaxUint64).
func BucketUpper(i int) uint64 {
	if i >= HistBuckets-1 || i >= 63 {
		return ^uint64(0)
	}
	return 1<<uint(i+1) - 1
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.bkt[bucketOf(v)].Add(1)
}

// Count returns the number of observations. Nil-safe (returns 0).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values. Nil-safe (returns 0).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Snapshot copies the histogram's current state. Nil-safe (returns a
// zero snapshot). Concurrent observers may land between bucket reads;
// the copy is a consistent-enough view for interval reporting, never
// a torn counter.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range s.Buckets {
		s.Buckets[i] = h.bkt[i].Load()
	}
	return s
}

// Reset zeroes the histogram. Nil-safe.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	h.count.Store(0)
	h.sum.Store(0)
	for i := range h.bkt {
		h.bkt[i].Store(0)
	}
}

// HistSnapshot is a point-in-time copy of a Histogram.
type HistSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [HistBuckets]uint64
}

// Quantile returns an upper bound on the p'th quantile (0..1) of the
// snapshot, or 0 when it is empty.
func (s HistSnapshot) Quantile(p float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	target := uint64(float64(s.Count) * p)
	var acc uint64
	for i, n := range s.Buckets {
		acc += n
		if acc > target {
			return BucketUpper(i)
		}
	}
	return BucketUpper(HistBuckets - 1)
}

// Mean returns the arithmetic mean of the snapshot, or 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Sub returns the bucket-wise difference s − prev: the distribution
// of observations made between the two snapshots. prev must be an
// earlier snapshot of the same histogram (without an intervening
// Reset), otherwise counts underflow.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	d := HistSnapshot{Count: s.Count - prev.Count, Sum: s.Sum - prev.Sum}
	for i := range d.Buckets {
		d.Buckets[i] = s.Buckets[i] - prev.Buckets[i]
	}
	return d
}

// Registry names instruments in a slash-separated hierarchy
// ("core0/tlb/l1_hits/4k"). Registration happens at attach time;
// the record path touches only the returned pointers. A nil *Registry
// is valid: it hands out nil instruments, which discard updates.
// The registry is safe for concurrent registration and snapshotting.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	sources  []func(emit func(name string, v uint64))
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
// Nil-safe (returns nil, which discards updates).
func (g *Registry) Counter(name string) *Counter {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	c, ok := g.counters[name]
	if !ok {
		c = &Counter{}
		g.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
// Nil-safe (returns nil, which discards observations).
func (g *Registry) Histogram(name string) *Histogram {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	h, ok := g.hists[name]
	if !ok {
		h = &Histogram{}
		g.hists[name] = h
	}
	return h
}

// Source registers fn, which emits a set of cumulative series from one
// read of its owner's state — the zero-cost way to expose counts an
// owner already keeps (a stats.Stats, a coordinator's tallies) without
// double-counting on the record path. Snapshot calls each source once,
// so the series one source emits are consistent with each other. A
// name comes from exactly one source, and no source emits a Counter's
// name. fn must be safe to call whenever Snapshot is. Nil-safe.
func (g *Registry) Source(fn func(emit func(name string, v uint64))) {
	if g == nil || fn == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.sources = append(g.sources, fn)
}

// Snapshot captures every instrument's current value. Counter values
// and the series sources emit land in Counters (all are cumulative
// uint64 series); histograms land in Hists. Sources run after the
// registry's lock is released, so a source may take its owner's locks
// in any order. Nil-safe (returns an empty snapshot).
func (g *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]uint64{}, Hists: map[string]HistSnapshot{}}
	if g == nil {
		return s
	}
	g.mu.RLock()
	for name, c := range g.counters {
		s.Counters[name] = c.Value()
	}
	for name, h := range g.hists {
		s.Hists[name] = h.Snapshot()
	}
	sources := g.sources // append-only: the first len entries never change
	g.mu.RUnlock()
	emit := func(name string, v uint64) { s.Counters[name] = v }
	for _, fn := range sources {
		fn(emit)
	}
	return s
}

// Snapshot is a point-in-time copy of a Registry: cumulative counter
// and source values plus histogram states.
type Snapshot struct {
	Counters map[string]uint64
	Hists    map[string]HistSnapshot
}

// Delta returns the per-name differences s − prev: what happened
// between the two snapshots. Names absent from prev are treated as
// starting at zero, so instruments registered mid-run report their
// full value in the first interval that sees them.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{Counters: make(map[string]uint64, len(s.Counters)),
		Hists: make(map[string]HistSnapshot, len(s.Hists))}
	for name, v := range s.Counters {
		d.Counters[name] = v - prev.Counters[name]
	}
	for name, h := range s.Hists {
		d.Hists[name] = h.Sub(prev.Hists[name])
	}
	return d
}

// Names returns the sorted union of counter and source names in the
// snapshot — the stable iteration order interval emitters use.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// HistNames returns the sorted histogram names in the snapshot.
func (s Snapshot) HistNames() []string {
	names := make([]string, 0, len(s.Hists))
	for name := range s.Hists {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
