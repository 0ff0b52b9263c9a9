package sim

import (
	"fmt"

	"repro/internal/obsv"
	"repro/internal/stats"
)

// Attach wires an observer into an assembled system. It must be called
// after New and before Run; passing nil is a no-op. Observability stays
// out of Config on purpose: Config is gob-hashed for the runner's
// persistent result cache, and tracing a run must not change its cache
// identity.
//
// The wiring, per OBSERVABILITY.md: every core's TLB, walker, cache
// hierarchy and IMP get registry instruments under "core<i>/...", the
// shared controller and TEMPO engine get the recorder plus
// "dram/queue_depth", and the memory-system stats fields the paper's
// figures are built from, plus a rival mechanism's counters, are
// registry sources (read at snapshot time, so the hot path never pays
// for them).
func (s *System) Attach(o *obsv.Observer) {
	if o == nil {
		return
	}
	s.obs = o
	for i, c := range s.cores {
		c.obs = o.Rec
		c.walker.Rec = o.Rec
		c.walker.CoreID = i
		if o.Reg != nil {
			prefix := fmt.Sprintf("core%d", i)
			c.tlb.Instrument(o.Reg, prefix+"/tlb")
			c.walker.WalkLatency = o.Reg.Histogram(prefix + "/walk/latency")
			c.hier.WBBurst = o.Reg.Histogram(prefix + "/wb_burst")
			if c.imp != nil {
				c.imp.Fanout = o.Reg.Histogram(prefix + "/imp/fanout")
			}
		}
	}
	s.ctrl.Rec = o.Rec
	if s.tempo != nil {
		s.tempo.Rec = o.Rec
	}
	if o.Reg != nil {
		s.ctrl.QDepth = o.Reg.Histogram("dram/queue_depth")
		if s.mech != nil {
			o.Reg.Source(s.mech.CountersInto)
		}
		// Every canonical cross-subsystem metric (obsv.Metric*) over the
		// merged system view, so live snapshots satisfy the same
		// obsv.Audit conservation checks as end-of-run results. Sources
		// fire only at snapshot time, on the simulation thread.
		o.Reg.Source(obsv.StatsSource(s.liveTotal))
	}
}

// liveTotal merges the memory-side and per-core stats mid-run as Run
// merges them into Result.Total, with each core's clock stamped as its
// cycle count the way Run does at the end, so the merge satisfies the
// same cpi-stack conservation law as a finished result. It reads the
// cores, so it runs on the simulation thread.
func (s *System) liveTotal() stats.Stats {
	t := *s.mst
	for _, c := range s.cores {
		cs := *c.st
		cs.Cycles = c.now
		cs.CPICycles = c.now
		t.Add(&cs)
	}
	return t
}

// flushInterval emits one epoch line to the observer's interval sink.
// Registry counters and histograms arrive as per-epoch deltas (the
// observer subtracts the previous snapshot); the extra fields below are
// cumulative progress markers so a consumer can plot rates without
// integrating.
func (s *System) flushInterval(records uint64) error {
	t := s.liveTotal()
	extra := map[string]any{
		"records": records,
		"cycles":  t.Cycles,
	}
	if t.Cycles > 0 {
		extra["ipc"] = float64(t.Instructions) / float64(t.Cycles)
	}
	if refs := t.TLBHits + t.TLBMisses; refs > 0 {
		extra["tlb_miss_rate"] = float64(t.TLBMisses) / float64(refs)
	}
	return s.obs.FlushInterval(extra)
}
