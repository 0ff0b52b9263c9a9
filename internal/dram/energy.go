package dram

import "repro/internal/stats"

// EnergyModel converts a run's counters into energy. It follows the
// paper's accounting: TEMPO saves energy chiefly by shortening runtime
// (static + background energy scale with time) while per-operation
// DRAM energy is roughly unchanged (prefetches add a few operations);
// TEMPO's extra hardware (3% of the memory controller, 0.5% of the
// walker) appears as a small static-power adder when enabled.
//
// The absolute wattages are scaled to this simulator's single-core,
// gigabyte-footprint regime (see DESIGN.md substitution #2) and tuned
// so dynamic energy is roughly half of the total on the big-data
// workloads — the regime in which the paper's 10–30% speedups yield
// 1–14% energy savings.
type EnergyModel struct {
	FreqHz float64 // CPU clock for cycle→seconds conversion

	ActNJ float64 // energy per ACT(+implied PRE pair is separate)
	PreNJ float64
	RdNJ  float64
	WrNJ  float64

	RefNJ float64 // energy per all-bank refresh

	InstNJ float64 // CPU dynamic energy per retired instruction

	StaticW     float64 // core+uncore static power
	BackgroundW float64 // DRAM background power
	TempoW      float64 // TEMPO hardware adder (applied when on)
}

// DefaultEnergyModel returns the calibrated model.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{
		FreqHz:      3.2e9,
		ActNJ:       18,
		PreNJ:       10,
		RdNJ:        7,
		WrNJ:        7,
		RefNJ:       90,
		InstNJ:      0.9,
		StaticW:     0.55,
		BackgroundW: 0.15,
		TempoW:      0.004,
	}
}

// Energy is a joule breakdown of one run.
type Energy struct {
	StaticJ  float64
	DRAMDynJ float64
	CPUDynJ  float64
	TempoJ   float64
	// MechJ is the translation mechanism's modelled hardware overhead
	// (tag stores, prediction tables); zero for tempo, whose engine
	// power is TempoJ.
	MechJ float64
}

// Total returns the sum of all components.
func (e Energy) Total() float64 {
	return e.StaticJ + e.DRAMDynJ + e.CPUDynJ + e.TempoJ + e.MechJ
}

// Account computes the energy of a run from its counters. tempoOn
// charges the TEMPO hardware adder.
func (m EnergyModel) Account(st *stats.Stats, tempoOn bool) Energy {
	seconds := float64(st.Cycles) / m.FreqHz
	var e Energy
	e.StaticJ = (m.StaticW + m.BackgroundW) * seconds
	e.DRAMDynJ = (float64(st.ActCount)*m.ActNJ +
		float64(st.PreCount)*m.PreNJ +
		float64(st.RdCount)*m.RdNJ +
		float64(st.WrCount)*m.WrNJ +
		float64(st.RefCount)*m.RefNJ) * 1e-9
	e.CPUDynJ = float64(st.Instructions) * m.InstNJ * 1e-9
	if tempoOn {
		e.TempoJ = m.TempoW * seconds
	}
	return e
}
