package obsv

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the power-of-two bucket rule:
// bucket 0 holds {0, 1}; bucket i holds [2^i, 2^(i+1)); the last
// bucket absorbs everything beyond.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 0},
		{2, 1}, {3, 1},
		{4, 2}, {7, 2},
		{8, 3}, {15, 3},
		{1023, 9}, {1024, 10}, {1025, 10},
		{1 << 39, 39}, {1<<40 - 1, 39},
		{1 << 40, HistBuckets - 1}, {^uint64(0), HistBuckets - 1},
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(c.v)
		s := h.Snapshot()
		for i, n := range s.Buckets {
			want := uint64(0)
			if i == c.bucket {
				want = 1
			}
			if n != want {
				t.Errorf("Observe(%d): bucket %d = %d, want %d", c.v, i, n, want)
			}
		}
		if s.Count != 1 || s.Sum != c.v {
			t.Errorf("Observe(%d): count=%d sum=%d", c.v, s.Count, s.Sum)
		}
	}
}

func TestBucketUpper(t *testing.T) {
	if got := BucketUpper(0); got != 1 {
		t.Errorf("BucketUpper(0) = %d, want 1", got)
	}
	if got := BucketUpper(3); got != 15 {
		t.Errorf("BucketUpper(3) = %d, want 15", got)
	}
	if got := BucketUpper(HistBuckets - 1); got != ^uint64(0) {
		t.Errorf("BucketUpper(last) = %d, want MaxUint64", got)
	}
}

func TestHistogramQuantileAndMean(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(10) // bucket 3, upper bound 15
	}
	h.Observe(1000) // bucket 9, upper bound 1023
	s := h.Snapshot()
	if got := s.Quantile(0.50); got != 15 {
		t.Errorf("p50 = %d, want 15", got)
	}
	if got := s.Quantile(0.999); got != 1023 {
		t.Errorf("p99.9 = %d, want 1023", got)
	}
	if got := s.Mean(); got != float64(99*10+1000)/100 {
		t.Errorf("mean = %v", got)
	}
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty snapshot should report zero quantile and mean")
	}
}

// TestSnapshotDeltaAndReset pins the snapshot/reset semantics: deltas
// subtract name-wise (missing names start at zero), and Reset zeroes
// an instrument without disturbing others.
func TestSnapshotDeltaAndReset(t *testing.T) {
	g := NewRegistry()
	c := g.Counter("a/count")
	h := g.Histogram("a/lat")
	c.Add(5)
	h.Observe(100)
	s1 := g.Snapshot()

	c.Add(3)
	h.Observe(200)
	g.Counter("b/late").Inc() // registered between snapshots
	s2 := g.Snapshot()

	d := s2.Delta(s1)
	if d.Counters["a/count"] != 3 {
		t.Errorf("delta a/count = %d, want 3", d.Counters["a/count"])
	}
	if d.Counters["b/late"] != 1 {
		t.Errorf("delta b/late = %d, want 1 (missing names start at zero)", d.Counters["b/late"])
	}
	dh := d.Hists["a/lat"]
	if dh.Count != 1 || dh.Sum != 200 {
		t.Errorf("delta hist count=%d sum=%d, want 1/200", dh.Count, dh.Sum)
	}

	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("Reset did not zero the histogram")
	}
	if c.Value() != 8 {
		t.Error("Reset of one instrument disturbed another")
	}
}

func TestRegistryIdentityAndGauges(t *testing.T) {
	g := NewRegistry()
	if g.Counter("x") != g.Counter("x") {
		t.Error("same name must return the same counter")
	}
	if g.Histogram("y") != g.Histogram("y") {
		t.Error("same name must return the same histogram")
	}
	v := uint64(7)
	g.Source(func(emit func(string, uint64)) { emit("lazy", v) })
	if got := g.Snapshot().Counters["lazy"]; got != 7 {
		t.Errorf("source = %d, want 7", got)
	}
	v = 9
	if got := g.Snapshot().Counters["lazy"]; got != 9 {
		t.Errorf("source = %d, want 9 (read at snapshot time)", got)
	}
}

// TestNilInstrumentsSafe pins the disabled-path contract: every
// record-path method works on nil receivers and a nil registry.
func TestNilInstrumentsSafe(t *testing.T) {
	var c *Counter
	c.Add(1)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter value")
	}
	var h *Histogram
	h.Observe(10)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Snapshot().Count != 0 {
		t.Error("nil histogram")
	}
	var g *Registry
	if g.Counter("x") != nil || g.Histogram("y") != nil {
		t.Error("nil registry must hand out nil instruments")
	}
	g.Source(func(emit func(string, uint64)) { emit("z", 1) })
	if len(g.Snapshot().Counters) != 0 {
		t.Error("nil registry snapshot")
	}
	var r *Recorder
	r.BeginRecord(0, 0)
	r.Emit(Event{})
	if r.Active() || r.Len() != 0 || r.Dropped() != 0 || r.Events() != nil {
		t.Error("nil recorder")
	}
	var o *Observer
	if err := o.FlushInterval(nil); err != nil {
		t.Error("nil observer flush")
	}
}

// TestRegistryConcurrency exercises registration, updates and
// snapshots from many goroutines; run under -race it proves the
// registry's concurrent-safety contract.
func TestRegistryConcurrency(t *testing.T) {
	g := NewRegistry()
	var wg sync.WaitGroup
	const workers = 8
	const perWorker = 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := g.Counter("shared/count")
			h := g.Histogram("shared/lat")
			mine := g.Counter("w/" + string(rune('a'+id)))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(uint64(i))
				mine.Inc()
				if i%500 == 0 {
					_ = g.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := g.Snapshot()
	if got := s.Counters["shared/count"]; got != workers*perWorker {
		t.Errorf("shared counter = %d, want %d", got, workers*perWorker)
	}
	if got := s.Hists["shared/lat"].Count; got != workers*perWorker {
		t.Errorf("shared histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestObserverInterval checks the JSONL stream: epochs count up,
// counters are per-epoch deltas, extras merge at top level.
func TestObserverInterval(t *testing.T) {
	var buf bytes.Buffer
	o := New(Options{IntervalEvery: 10, IntervalSink: &buf})
	c := o.Reg.Counter("x")
	h := o.Reg.Histogram("lat")

	c.Add(4)
	h.Observe(30)
	if err := o.FlushInterval(map[string]any{"records": 10}); err != nil {
		t.Fatal(err)
	}
	c.Add(6)
	if err := o.FlushInterval(map[string]any{"records": 20}); err != nil {
		t.Fatal(err)
	}
	if o.Epochs() != 2 {
		t.Fatalf("epochs = %d, want 2", o.Epochs())
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	type line struct {
		Epoch    uint64              `json:"epoch"`
		Records  float64             `json:"records"`
		Counters map[string]uint64   `json:"counters"`
		Hists    map[string]histLine `json:"hists"`
	}
	var l0, l1 line
	if err := json.Unmarshal([]byte(lines[0]), &l0); err != nil {
		t.Fatalf("line 0: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &l1); err != nil {
		t.Fatalf("line 1: %v", err)
	}
	if l0.Epoch != 0 || l1.Epoch != 1 {
		t.Errorf("epochs %d,%d", l0.Epoch, l1.Epoch)
	}
	if l0.Counters["x"] != 4 || l1.Counters["x"] != 6 {
		t.Errorf("counter deltas %d,%d want 4,6", l0.Counters["x"], l1.Counters["x"])
	}
	if l0.Hists["lat"].Count != 1 || l1.Hists["lat"].Count != 0 {
		t.Errorf("hist deltas %d,%d want 1,0", l0.Hists["lat"].Count, l1.Hists["lat"].Count)
	}
	if l0.Records != 10 || l1.Records != 20 {
		t.Errorf("extras not merged: %v, %v", l0.Records, l1.Records)
	}
}

func TestObserverIntervalRequiresSink(t *testing.T) {
	o := New(Options{IntervalEvery: 5})
	if o.IntervalEvery != 0 {
		t.Error("IntervalEvery without a sink must disable snapshots")
	}
}
