package translation

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/obsv"
	"repro/internal/stats"
)

// tempoMech is the paper's TEMPO path behind the Mechanism seam. It is
// entirely memory-side: the factory wires the prefetch engine into the
// controller exactly as the pre-refactor simulator did, NewCore returns
// nil so no core makes hook calls, and the run is bit-identical to the
// hardwired pipeline. With Params.TempoEnabled false it degenerates to
// the no-prefetch baseline (no engine, no hooks) — "tempo" is
// therefore the mechanism every non-mech run implicitly uses.
type tempoMech struct {
	engine *core.Engine
	st     *stats.Stats
}

func init() {
	Register("tempo", func(d Deps) (Mechanism, error) {
		m := &tempoMech{st: d.MemStats}
		if !d.Params.TempoEnabled {
			return m, nil
		}
		m.engine = core.NewEngine(d.Reader, d.MemStats)
		m.engine.Pool = d.Ctrl.Pool()
		d.Ctrl.Observer = m.engine
		llc, extra, fill := d.Params.TempoLLC, d.Params.LLCFillExtra, d.Fill
		d.Ctrl.OnPrefetchDone = func(r *dram.Request) {
			if llc {
				fill.AddPending(r.Addr, r.Complete+extra, cache.FillTempo)
			}
		}
		return m, nil
	})
}

func (m *tempoMech) Name() string { return "tempo" }

// NewCore returns nil: TEMPO has no core-side presence, which keeps the
// serial hot path engaged (the 0 allocs/record guarantee lives there).
func (m *tempoMech) NewCore(coreID int, port CorePort) CoreHooks { return nil }

func (m *tempoMech) Attach(rec *obsv.Recorder) {
	if m.engine != nil {
		m.engine.Rec = rec
	}
}

// CountersInto mirrors the engine's stats under the mech/* schema; the
// conservation audit cross-checks them against the mem/tempo_* view.
func (m *tempoMech) CountersInto(emit func(string, uint64)) {
	emit(MetricTempoMirrorTriggers, m.st.TempoTriggers)
	emit(MetricTempoMirrorPrefetches, m.st.TempoPrefetches)
	emit(MetricTempoMirrorSuppressed, m.st.TempoSuppressed)
}

// EnergyJ is zero: the engine's power is already part of
// dram.EnergyModel.Account (TempoJ), not a mechanism add-on.
func (m *tempoMech) EnergyJ() float64 { return 0 }
