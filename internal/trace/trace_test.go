package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func roundTrip(t *testing.T, recs []Record) []Record {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return got
}

// readAll reads s to its end in batches of seven, so streams are also
// read across batch boundaries and into a partly filled last batch.
func readAll(s Stream) []Record {
	var out []Record
	var batch [7]Record
	for {
		n := s.Read(batch[:])
		out = append(out, batch[:n]...)
		if n < len(batch) {
			return out
		}
	}
}

func TestRoundTripBasic(t *testing.T) {
	recs := []Record{
		{PC: 0x400000, VAddr: 0x7FFF_0000_1000, Kind: Load, Gap: 3},
		{PC: 0x400004, VAddr: 0x7FFF_0000_1040, Kind: Store, Gap: 0},
		{PC: 0x400008, VAddr: 0x1234, Kind: Load, Gap: 65535, Value: 42, HasValue: true},
		{PC: 0x400000, VAddr: 0x7FFF_FFFF_F000, Kind: Load, Gap: 1},
	}
	got := roundTrip(t, recs)
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, recs)
	}
}

func TestRoundTripEmpty(t *testing.T) {
	if got := roundTrip(t, nil); len(got) != 0 {
		t.Errorf("empty trace returned %d records", len(got))
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Error("bad magic should be rejected")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should be rejected")
	}
}

func TestTruncatedTraceStops(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Record{PC: 1, VAddr: 2})
	w.Write(Record{PC: 3, VAddr: 4})
	w.Flush()
	data := buf.Bytes()[:buf.Len()-1] // chop the tail
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(readAll(r)); n != 1 {
		t.Errorf("decoded %d records from truncated trace", n)
	}
	if r.Err() == nil {
		t.Error("truncation should surface as an error")
	}
}

// Property: arbitrary record sequences survive a round trip exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]Record, int(n%64))
		for i := range recs {
			recs[i] = Record{
				PC:       rng.Uint64() % (1 << 48),
				VAddr:    mem.VAddr(rng.Uint64() % (1 << 48)),
				Kind:     Kind(rng.Intn(2)),
				Gap:      uint16(rng.Intn(1 << 16)),
				HasValue: rng.Intn(2) == 0,
			}
			if recs[i].HasValue {
				recs[i].Value = rng.Uint64()
			}
		}
		got := roundTrip(t, recs)
		if len(recs) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTakeAndSliceStream(t *testing.T) {
	recs := []Record{{PC: 1}, {PC: 2}, {PC: 3}}
	s := NewSliceStream(recs)
	got := Take(s, 2)
	if len(got) != 2 || got[1].PC != 2 {
		t.Errorf("Take = %+v", got)
	}
	rest := Take(s, 10)
	if len(rest) != 1 || rest[0].PC != 3 {
		t.Errorf("rest = %+v", rest)
	}
	if len(Take(s, 5)) != 0 {
		t.Error("exhausted stream should yield nothing")
	}
}

func TestCompression(t *testing.T) {
	// Sequential-ish traces should encode well under ~6 bytes/record.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	const n = 10_000
	for i := 0; i < n; i++ {
		w.Write(Record{PC: 0x400000 + uint64(i%8)*4, VAddr: mem.VAddr(0x10000 + i*64), Gap: 5})
	}
	w.Flush()
	if perRec := float64(buf.Len()) / n; perRec > 6 {
		t.Errorf("encoding too large: %.1f bytes/record", perRec)
	}
}

func TestWriterFlushIdempotent(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Record{PC: 1, VAddr: 2})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(readAll(r)); n != 1 || r.Err() != nil {
		t.Errorf("n=%d err=%v", n, r.Err())
	}
}

func TestReaderStopsAfterError(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Record{PC: 1, VAddr: 2, HasValue: true, Value: 7})
	w.Flush()
	data := buf.Bytes()[:buf.Len()-1]
	r, _ := NewReader(bytes.NewReader(data))
	Take(r, 1) // fails mid-record
	if len(Take(r, 1)) != 0 {
		t.Error("reader must stay stopped after an error")
	}
	if r.Err() == nil {
		t.Error("error must persist")
	}
}

func TestNegativeDeltasRoundTrip(t *testing.T) {
	recs := []Record{
		{PC: 0xFFFF_FFFF, VAddr: 0xFFFF_F000},
		{PC: 0x10, VAddr: 0x20}, // large negative deltas
	}
	got := roundTrip(t, recs)
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("negative-delta round trip failed: %+v", got)
	}
}

// afterValidRecord returns a trace file holding one valid record
// followed by the raw bytes of a second one.
func afterValidRecord(t testing.TB, raw ...byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{PC: 0x400000, VAddr: 0x7000, Gap: 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return append(buf.Bytes(), raw...)
}

// A record the writer cannot produce, a gap above 65,535 or a flag bit
// other than kind and value, is an error that names the record's
// index, not a record read with the extra bits dropped.
func TestReaderRejectsRecordsTheWriterCannotProduce(t *testing.T) {
	for _, tc := range []struct {
		name string
		raw  []byte
		want string
	}{
		// flags, PC delta, VAddr delta, then the gap 65,536 as a uvarint.
		{"gap 65536", []byte{0, 0, 0, 0x80, 0x80, 0x04}, "record 1: gap 65536 exceeds 65535"},
		{"flag bit 2", []byte{4, 0, 0, 0}, "record 1: flags 0x4 set bits other than kind and value"},
		{"flag bit 7", []byte{0x81, 0, 0, 0}, "record 1: flags 0x81 set bits other than kind and value"},
	} {
		r, err := NewReader(bytes.NewReader(afterValidRecord(t, tc.raw...)))
		if err != nil {
			t.Fatal(err)
		}
		if got := readAll(r); len(got) != 1 {
			t.Errorf("%s: decoded %d records, want the valid one only", tc.name, len(got))
		}
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Err() = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// The largest gap the writer can produce still decodes.
	r, err := NewReader(bytes.NewReader(afterValidRecord(t, 3, 0, 0, 0xff, 0xff, 0x03, 9)))
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(r)
	if len(got) != 2 || got[1].Gap != 65535 || got[1].Kind != Store || got[1].Value != 9 || r.Err() != nil {
		t.Errorf("gap 65535: got %+v, err %v", got, r.Err())
	}
}
