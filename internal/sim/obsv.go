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
// figures are built from are exposed as lazy gauges (read at snapshot
// time, so the hot path never pays for them).
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
		// A rival mechanism's mech/<name>/* counters as lazy gauges:
		// the name set is fixed at construction, so one registration
		// pass covers the run's whole schema.
		if s.mech != nil {
			s.mech.CountersInto(func(name string, _ uint64) {
				o.Reg.Gauge(name, func() uint64 {
					var v uint64
					s.mech.CountersInto(func(n string, x uint64) {
						if n == name {
							v = x
						}
					})
					return v
				})
			})
		}
		// Every canonical cross-subsystem metric (obsv.Metric*) becomes a
		// lazy gauge over the merged system view — the same Stats merge
		// Run uses for Result.Total, so live snapshots satisfy the same
		// obsv.Audit conservation checks as end-of-run results. Gauges
		// fire only at snapshot time, on the simulation thread.
		obsv.RegisterStatsGauges(o.Reg, func() stats.Stats {
			t := *s.mst
			for _, c := range s.cores {
				// Mid-run snapshot: stamp the per-core clock the way Run
				// does at the end, so live gauges satisfy the same
				// cpi-stack conservation law as finished results. Safe to
				// copy: gauges fire on the simulation thread.
				cs := *c.st
				cs.Cycles = c.now
				cs.CPICycles = c.now
				t.Add(&cs)
			}
			return t
		})
	}
}

// flushInterval emits one epoch line to the observer's interval sink.
// Registry counters and histograms arrive as per-epoch deltas (the
// observer subtracts the previous snapshot); the extra fields below are
// cumulative progress markers so a consumer can plot rates without
// integrating.
func (s *System) flushInterval(records uint64) error {
	var cycles, instr, tlbMisses, tlbRefs uint64
	for _, c := range s.cores {
		if c.now > cycles {
			cycles = c.now
		}
		instr += c.st.Instructions
		tlbMisses += c.st.TLBMisses
		tlbRefs += c.st.TLBHits + c.st.TLBMisses
	}
	extra := map[string]any{
		"records": records,
		"cycles":  cycles,
	}
	if cycles > 0 {
		extra["ipc"] = float64(instr) / float64(cycles)
	}
	if tlbRefs > 0 {
		extra["tlb_miss_rate"] = float64(tlbMisses) / float64(tlbRefs)
	}
	return s.obs.FlushInterval(extra)
}
