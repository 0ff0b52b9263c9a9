package sim

import (
	"bytes"
	"encoding/json"
	"maps"
	"strings"
	"testing"

	"repro/internal/obsv"
)

// runObserved assembles, attaches and runs, returning the observer.
func runObserved(t *testing.T, cfg Config, opts obsv.Options) (*Result, *obsv.Observer) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := obsv.New(opts)
	s.Attach(o)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, o
}

// TestTraceCapturesTempoChain is the acceptance check for the event
// recorder: a TEMPO run must produce at least one complete
// leaf-PTE-read → tempo-prefetch → replay chain in the trace, and the
// Chrome export of that trace must be valid JSON.
func TestTraceCapturesTempoChain(t *testing.T) {
	cfg := quickCfg("xsbench", 20_000)
	cfg.Tempo = DefaultTempo()
	res, o := runObserved(t, cfg, obsv.Options{Trace: true})
	if res.Mem.TempoPrefetches == 0 {
		t.Fatal("run issued no TEMPO prefetches; trace cannot contain a chain")
	}

	events := o.Rec.Events()
	counts := map[obsv.EventKind]int{}
	for _, e := range events {
		counts[e.Kind]++
	}
	for _, k := range []obsv.EventKind{
		obsv.EvRecord, obsv.EvTLBLookup, obsv.EvMMUCache, obsv.EvWalkStep,
		obsv.EvWalkEnd, obsv.EvCacheAccess, obsv.EvDRAM, obsv.EvLeafPTE,
		obsv.EvTempoTrigger, obsv.EvTempoPrefetch, obsv.EvReplay,
	} {
		if counts[k] == 0 {
			t.Errorf("no %v events in trace (kinds seen: %v)", k, counts)
		}
	}

	// At least one full chain: a leaf-PTE DRAM read whose trigger
	// emitted a prefetch, followed by a replay event.
	chain := false
	var sawLeaf, sawPrefetch bool
	for _, e := range events {
		switch e.Kind {
		case obsv.EvLeafPTE:
			sawLeaf = true
		case obsv.EvTempoPrefetch:
			if sawLeaf {
				sawPrefetch = true
			}
		case obsv.EvReplay:
			if sawLeaf && sawPrefetch {
				chain = true
			}
		}
	}
	if !chain {
		t.Error("no leaf-PTE → tempo-prefetch → replay chain in trace")
	}

	var buf bytes.Buffer
	if err := obsv.WriteChromeTrace(&buf, events, map[string]string{"workload": "xsbench"}); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"].([]any); !ok {
		t.Fatal("chrome export missing traceEvents array")
	}
}

// TestTraceRangeFilterLimitsCapture: tracing records [100, 200) of a
// 20k-record run captures far fewer events than tracing everything,
// and every whole-record span falls inside the window.
func TestTraceRangeFilterLimitsCapture(t *testing.T) {
	cfg := quickCfg("xsbench", 20_000)
	_, all := runObserved(t, cfg, obsv.Options{Trace: true})
	_, window := runObserved(t, cfg, obsv.Options{Trace: true, TraceFrom: 100, TraceCount: 100})
	if window.Rec.Len() == 0 {
		t.Fatal("windowed trace is empty")
	}
	if window.Rec.Len() >= all.Rec.Len()+int(all.Rec.Dropped()) {
		t.Fatalf("window captured %d events, full trace %d+%d dropped",
			window.Rec.Len(), all.Rec.Len(), all.Rec.Dropped())
	}
	recSpans := 0
	for _, e := range window.Rec.Events() {
		if e.Kind == obsv.EvRecord {
			recSpans++
		}
	}
	if recSpans != 100 {
		t.Errorf("windowed trace has %d record spans, want 100", recSpans)
	}
}

// TestIntervalStatsSeries: -stats-interval style runs produce one JSONL
// line per epoch with monotonic cumulative extras and parseable
// counter/histogram deltas.
func TestIntervalStatsSeries(t *testing.T) {
	cfg := quickCfg("xsbench", 10_000)
	cfg.Tempo = DefaultTempo()
	var buf bytes.Buffer
	_, o := runObserved(t, cfg, obsv.Options{IntervalEvery: 2000, IntervalSink: &buf})
	if o.Epochs() != 5 {
		t.Fatalf("epochs = %d, want 5 (10k records / 2k interval)", o.Epochs())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d JSONL lines, want 5", len(lines))
	}
	type epoch struct {
		Epoch    uint64            `json:"epoch"`
		Records  uint64            `json:"records"`
		Cycles   uint64            `json:"cycles"`
		IPC      float64           `json:"ipc"`
		Counters map[string]uint64 `json:"counters"`
	}
	var prev epoch
	var tempoTotal uint64
	for i, line := range lines {
		var e epoch
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
		if e.Epoch != uint64(i) {
			t.Errorf("line %d: epoch %d", i, e.Epoch)
		}
		if e.Records != uint64(2000*(i+1)) {
			t.Errorf("epoch %d: records %d", i, e.Records)
		}
		if e.Cycles <= prev.Cycles || e.IPC <= 0 {
			t.Errorf("epoch %d: cycles %d (prev %d), ipc %v", i, e.Cycles, prev.Cycles, e.IPC)
		}
		tempoTotal += e.Counters["mem/tempo_prefetches"]
		prev = e
	}
	// Gauge deltas across epochs must sum to the end-of-run total.
	if tempoTotal == 0 {
		t.Error("tempo prefetch gauge never advanced across epochs")
	}
}

// TestObserverZeroPerturbation is the "heisenbug guard": attaching the
// full observer must not change simulated time or any architectural
// counter — instrumentation reads the simulation, never steers it. It
// covers each predicate the record kernel branches on besides the
// observer itself: a TEMPO run (no hooks), the two-core IMP mix and a
// victima run (CoreHooks).
func TestObserverZeroPerturbation(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"tempo", func() Config {
			cfg := quickCfg("xsbench", 10_000)
			cfg.Tempo = DefaultTempo()
			return cfg
		}},
		{"2core-imp", impMixConfig},
		{"victima", func() Config {
			cfg := quickCfg("xsbench", 20_000)
			cfg.Mech = "victima"
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bare := run(t, tc.cfg())
			observed, _ := runObserved(t, tc.cfg(), obsv.Options{
				Trace: true, IntervalEvery: 1000, IntervalSink: &bytes.Buffer{},
			})
			if bare.Total != observed.Total {
				t.Errorf("stats diverged under observation:\nbare:     %+v\nobserved: %+v",
					bare.Total, observed.Total)
			}
			if len(bare.Cores) != len(observed.Cores) {
				t.Fatalf("%d cores bare, %d observed", len(bare.Cores), len(observed.Cores))
			}
			for i := range bare.Cores {
				if bare.Cores[i] != observed.Cores[i] {
					t.Errorf("core %d diverged under observation:\nbare:     %+v\nobserved: %+v",
						i, bare.Cores[i], observed.Cores[i])
				}
			}
			if !maps.Equal(bare.MechCounters, observed.MechCounters) {
				t.Errorf("mechanism counters diverged: bare %v, observed %v",
					bare.MechCounters, observed.MechCounters)
			}
		})
	}
}
