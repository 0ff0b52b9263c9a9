package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/mem"
)

func writeTempTrace(t testing.TB, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rec := Record{PC: 0x400000 + uint64(i%16)*4, VAddr: mem.VAddr(0x10000 + i*64), Gap: 5}
		if i%7 == 0 {
			rec.HasValue, rec.Value = true, uint64(i)
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestWriterPatchesCount: writing through a seekable writer must leave
// an exact record count in the header for readers to preallocate from.
func TestWriterPatchesCount(t *testing.T) {
	const n = 137
	path := writeTempTrace(t, n)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != n {
		t.Errorf("Count = %d, want %d", r.Count(), n)
	}
	got := len(readAll(r))
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Errorf("decoded %d records, want %d", got, n)
	}
}

// TestNonSeekableCountUnknown: a v2 trace written through a plain
// io.Writer keeps count 0 (unknown) but stays fully decodable.
func TestNonSeekableCountUnknown(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.Write(Record{PC: 1, VAddr: 2})
	w.Write(Record{PC: 3, VAddr: 4})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != 0 {
		t.Errorf("Count = %d, want 0 for non-seekable output", r.Count())
	}
	if n := len(readAll(r)); n != 2 || r.Err() != nil {
		t.Errorf("n=%d err=%v", n, r.Err())
	}
}

// TestV1TraceStillReadable: traces captured before the count header
// existed must keep decoding (record encoding is unchanged; only the
// header differs).
func TestV1TraceStillReadable(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	recs := []Record{
		{PC: 0x400000, VAddr: 0x7000, Kind: Load, Gap: 3},
		{PC: 0x400004, VAddr: 0x7040, Kind: Store, HasValue: true, Value: 9},
	}
	for _, rec := range recs {
		w.Write(rec)
	}
	w.Flush()
	// Rebuild the stream as a v1 file: old magic, no count field.
	v1 := append([]byte{}, magicV1[:]...)
	v1 = append(v1, buf.Bytes()[len(magicV2)+8:]...)

	r, err := NewReader(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 header rejected: %v", err)
	}
	if r.Count() != 0 {
		t.Errorf("Count = %d, want 0 for v1", r.Count())
	}
	if got := readAll(r); !reflect.DeepEqual(got, recs) || r.Err() != nil {
		t.Errorf("v1 trace decoded %+v (err=%v), want %+v", got, r.Err(), recs)
	}
}

// BenchmarkTraceLoad measures loading a whole trace into a record
// slice, the way sim.openTraceStream does: "append" grows the slice
// through repeated reallocation (the old behaviour, forced by
// pretending the count is unknown), "prealloc" sizes it once from the
// v2 header count.
func BenchmarkTraceLoad(b *testing.B) {
	const n = 200_000
	path := writeTempTrace(b, n)
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	load := func(b *testing.B, capHint uint64) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := NewReader(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			recs := make([]Record, 0, capHint)
			var batch [256]Record
			for {
				k := r.Read(batch[:])
				recs = append(recs, batch[:k]...)
				if k < len(batch) {
					break
				}
			}
			if len(recs) != n {
				b.Fatalf("decoded %d records", len(recs))
			}
		}
	}
	b.Run("append", func(b *testing.B) { load(b, 0) })
	b.Run("prealloc", func(b *testing.B) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		load(b, r.Count())
	})
}
