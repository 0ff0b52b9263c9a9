package tlb

// The TLB this package used before it remembered its last L1 entry,
// kept as the reference the differential tests in tlb_diff_test.go
// compare TLB against. It is the old code verbatim, renamed.

import (
	"fmt"

	"repro/internal/assoc"
	"repro/internal/mem"
	"repro/internal/obsv"
	"repro/internal/vm"
)

// refTLB is a two-level, page-size-aware translation lookaside buffer.
// Each level keeps one set-associative array per page-size class,
// probed in parallel (as hardware does with size-partitioned TLBs).
type refTLB struct {
	l1 [3]*assoc.Assoc[vm.Translation]
	l2 [3]*assoc.Assoc[vm.Translation]

	// Per-page-size-class hit/miss counters (nil unless Instrument was
	// called; obsv counters discard updates through nil pointers, so
	// the uninstrumented lookup path pays only the pointer test).
	obsL1Hits [3]*obsv.Counter
	obsL2Hits [3]*obsv.Counter
	obsMisses *obsv.Counter
}

// newRefTLB builds a TLB with the given geometry.
func newRefTLB(cfg Config) *refTLB {
	t := &refTLB{}
	for c := 0; c < 3; c++ {
		t.l1[c] = assoc.New[vm.Translation](cfg.L1[c].Sets, cfg.L1[c].Ways)
		t.l2[c] = assoc.New[vm.Translation](cfg.L2[c].Sets, cfg.L2[c].Ways)
	}
	return t
}

func refKey(v mem.VAddr, c mem.PageSizeClass) uint64 {
	return uint64(v) >> c.Shift()
}

// Lookup probes both levels for a translation of v. An L2 hit is
// promoted into the L1 array of its class.
func (t *refTLB) Lookup(v mem.VAddr) (vm.Translation, HitLevel) {
	for c := mem.Page4K; c <= mem.Page1G; c++ {
		if tr, ok := t.l1[c].Lookup(refKey(v, c)); ok {
			t.obsL1Hits[c].Inc()
			return tr, HitL1
		}
	}
	for c := mem.Page4K; c <= mem.Page1G; c++ {
		if tr, ok := t.l2[c].Lookup(refKey(v, c)); ok {
			t.l1[c].Insert(refKey(v, c), tr)
			t.obsL2Hits[c].Inc()
			return tr, HitL2
		}
	}
	t.obsMisses.Inc()
	return vm.Translation{}, Miss
}

// Instrument registers per-page-size-class hit counters and a miss
// counter under prefix in reg ("<prefix>/l1_hits/2m", ...). The
// per-class split is visibility the aggregate stats counters lack:
// it shows which page sizes carry a workload's TLB locality, the
// quantity Figure 13's page-size sweep varies.
func (t *refTLB) Instrument(reg *obsv.Registry, prefix string) {
	for c := 0; c < 3; c++ {
		t.obsL1Hits[c] = reg.Counter(fmt.Sprintf("%s/l1_hits/%s", prefix, classNames[c]))
		t.obsL2Hits[c] = reg.Counter(fmt.Sprintf("%s/l2_hits/%s", prefix, classNames[c]))
	}
	t.obsMisses = reg.Counter(prefix + "/misses")
}

// Insert fills both levels with a translation returned by a walk.
func (t *refTLB) Insert(tr vm.Translation) {
	c := tr.Class
	k := refKey(tr.VBase, c)
	t.l1[c].Insert(k, tr)
	t.l2[c].Insert(k, tr)
}

// Reach4K returns how many bytes the 4KB L2 array can map — useful for
// sizing workloads so they exceed TLB reach, as the paper's do.
func (t *refTLB) Reach4K() uint64 {
	return uint64(t.l2[mem.Page4K].Entries()) * mem.PageSize
}
