package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// Options configures an Observer.
type Options struct {
	// Trace enables event recording into a ring buffer.
	Trace bool
	// TraceCapacity bounds the ring (events); <= 0 means
	// DefaultRecorderCap.
	TraceCapacity int
	// TraceFrom and TraceCount filter recording to trace records
	// [TraceFrom, TraceFrom+TraceCount) on each core; TraceCount == 0
	// means "to the end of the run".
	TraceFrom, TraceCount uint64
	// IntervalEvery emits one interval snapshot every IntervalEvery
	// executed records (summed across cores); 0 disables snapshots.
	IntervalEvery uint64
	// IntervalSink receives the JSONL snapshot stream; required when
	// IntervalEvery > 0.
	IntervalSink io.Writer
}

// Observer bundles the two instrumentation halves a simulator attaches:
// the event Recorder (nil when tracing is off) and the counter
// Registry, plus the interval-snapshot machinery. Construct with New,
// attach with the simulator's Attach, and call FlushInterval at epoch
// boundaries (the simulator does this when Options.IntervalEvery > 0).
type Observer struct {
	// Rec records lifecycle events; nil when tracing is disabled (all
	// recording sites are nil-safe).
	Rec *Recorder
	// Reg names counters and histograms and holds the sources.
	Reg *Registry
	// IntervalEvery is the epoch length in executed records; 0
	// disables interval snapshots.
	IntervalEvery uint64

	sink  io.Writer
	epoch uint64
	prev  Snapshot

	// lastMu guards last: FlushInterval publishes on the simulation
	// thread, LastSnapshot is read by the introspection server's
	// goroutines.
	lastMu sync.Mutex
	last   Snapshot
}

// New builds an Observer from Options.
func New(o Options) *Observer {
	obs := &Observer{Reg: NewRegistry(), IntervalEvery: o.IntervalEvery, sink: o.IntervalSink}
	if o.Trace {
		obs.Rec = NewRecorder(o.TraceCapacity, o.TraceFrom, o.TraceCount)
	}
	if obs.IntervalEvery > 0 && obs.sink == nil {
		obs.IntervalEvery = 0
	}
	obs.prev = Snapshot{Counters: map[string]uint64{}, Hists: map[string]HistSnapshot{}}
	return obs
}

// histLine is the per-histogram interval summary: the observations
// made during the epoch, with sparse power-of-two buckets keyed by
// their inclusive upper bound.
type histLine struct {
	Count   uint64            `json:"count"`
	Mean    float64           `json:"mean"`
	P50     uint64            `json:"p50"`
	P99     uint64            `json:"p99"`
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

// FlushInterval writes one JSONL snapshot line: the epoch index, every
// registry counter and source series as its delta since the previous
// flush, every histogram as an epoch-local summary, and the caller's
// extra fields (records, cycles, derived rates) merged at top level.
// Returns the first write/encode error; nil-safe and a no-op without a
// sink.
func (o *Observer) FlushInterval(extra map[string]any) error {
	if o == nil || o.sink == nil {
		return nil
	}
	cur := o.Reg.Snapshot()
	d := cur.Delta(o.prev)
	o.prev = cur
	o.lastMu.Lock()
	o.last = cur
	o.lastMu.Unlock()

	line := make(map[string]any, len(extra)+3)
	line["epoch"] = o.epoch
	o.epoch++
	for k, v := range extra {
		line[k] = v
	}
	counters := make(map[string]uint64, len(d.Counters))
	for _, name := range d.Names() {
		counters[name] = d.Counters[name]
	}
	line["counters"] = counters
	hists := make(map[string]histLine, len(d.Hists))
	for _, name := range d.HistNames() {
		h := d.Hists[name]
		hl := histLine{Count: h.Count, Mean: h.Mean(),
			P50: h.Quantile(0.50), P99: h.Quantile(0.99)}
		if h.Count > 0 {
			hl.Buckets = map[string]uint64{}
			for i, n := range h.Buckets {
				if n > 0 {
					hl.Buckets[strconv.FormatUint(BucketUpper(i), 10)] = n
				}
			}
		}
		hists[name] = hl
	}
	line["hists"] = hists

	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("obsv: interval snapshot: %w", err)
	}
	b = append(b, '\n')
	if _, err := o.sink.Write(b); err != nil {
		return fmt.Errorf("obsv: interval snapshot: %w", err)
	}
	return nil
}

// LastSnapshot returns the registry snapshot taken at the most recent
// interval flush (a zero snapshot before the first). It is safe to
// call from any goroutine while the simulation runs — unlike
// Reg.Snapshot, whose sources read simulator state that only the
// simulation thread may touch — so it is what the introspection
// server's /metrics endpoint scrapes. Nil-safe.
func (o *Observer) LastSnapshot() Snapshot {
	if o == nil {
		return Snapshot{Counters: map[string]uint64{}, Hists: map[string]HistSnapshot{}}
	}
	o.lastMu.Lock()
	defer o.lastMu.Unlock()
	s := o.last
	if s.Counters == nil {
		s = Snapshot{Counters: map[string]uint64{}, Hists: map[string]HistSnapshot{}}
	}
	return s
}

// Epochs returns how many interval snapshots have been written.
func (o *Observer) Epochs() uint64 {
	if o == nil {
		return 0
	}
	return o.epoch
}
