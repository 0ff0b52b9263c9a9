// Package trace defines the memory-trace record the simulator
// executes, the batch-reading Stream every record source implements,
// and a compact binary on-disk format (delta + varint encoded),
// standing in for the paper's Pin-collected traces. The simulator
// usually consumes live generator streams; the format exists so traces
// can be captured once and replayed exactly (cmd/tempo-trace). A
// reader rejects any record the writer cannot produce.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/mem"
)

// Kind is the access type.
type Kind uint8

const (
	// Load is a data read.
	Load Kind = iota
	// Store is a data write.
	Store
)

// Record is one memory reference plus the non-memory instruction gap
// preceding it. The 8-byte fields come first, so a record is 32 bytes.
type Record struct {
	// PC identifies the static instruction (IMP indexes on it).
	PC uint64
	// VAddr is the virtual address referenced.
	VAddr mem.VAddr
	// Value is the loaded data for index-array loads (HasValue set);
	// IMP snoops it to learn indirect patterns.
	Value uint64
	// Gap counts non-memory instructions executed before this access.
	Gap uint16
	// Kind distinguishes loads from stores.
	Kind     Kind
	HasValue bool
}

// Stream produces records in batches. Streams may be infinite; callers
// take as many records as the run needs.
type Stream interface {
	// Read fills dst with the stream's next records and returns how
	// many it wrote. It writes fewer than len(dst) only when the stream
	// has ended: a file trace's last record was read, or a record
	// failed to decode (Reader.Err says which). Generators never end,
	// so they always fill dst.
	Read(dst []Record) int
}

// magic identifies the file format; the trailing byte is the version.
// Version 1 is the original header (records follow immediately);
// version 2 inserts a fixed 8-byte little-endian record count after
// the magic (0 = unknown) so readers can preallocate. Readers accept
// both; writers emit version 2.
var (
	magicV1 = [8]byte{'T', 'E', 'M', 'P', 'O', 'T', 'R', 1}
	magicV2 = [8]byte{'T', 'E', 'M', 'P', 'O', 'T', 'R', 2}
)

// countOffset is where the v2 record count lives in the file.
const countOffset = int64(len(magicV2))

// Writer encodes records to an io.Writer.
type Writer struct {
	raw   io.Writer
	w     *bufio.Writer
	prev  Record
	count uint64
}

// NewWriter writes the header and returns a Writer. Call Flush when
// done. When w is also an io.WriteSeeker (a file), Flush patches the
// header's record count so readers can preallocate; otherwise the
// count field stays 0 (unknown), which readers tolerate.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magicV2[:]); err != nil {
		return nil, err
	}
	var zero [8]byte // count placeholder, patched on Flush
	if _, err := bw.Write(zero[:]); err != nil {
		return nil, err
	}
	return &Writer{raw: w, w: bw}, nil
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Write appends one record.
func (w *Writer) Write(r Record) error {
	var buf [binary.MaxVarintLen64 * 4]byte
	flags := byte(r.Kind) & flagKind
	if r.HasValue {
		flags |= flagValue
	}
	if err := w.w.WriteByte(flags); err != nil {
		return err
	}
	n := binary.PutUvarint(buf[:], zigzag(int64(r.PC)-int64(w.prev.PC)))
	n += binary.PutUvarint(buf[n:], zigzag(int64(r.VAddr)-int64(w.prev.VAddr)))
	n += binary.PutUvarint(buf[n:], uint64(r.Gap))
	if r.HasValue {
		n += binary.PutUvarint(buf[n:], r.Value)
	}
	if _, err := w.w.Write(buf[:n]); err != nil {
		return err
	}
	w.prev = r
	w.count++
	return nil
}

// Flush flushes buffered output and, when the underlying writer is
// seekable, patches the header's record count in place.
func (w *Writer) Flush() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	ws, ok := w.raw.(io.WriteSeeker)
	if !ok {
		return nil
	}
	end, err := ws.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	if _, err := ws.Seek(countOffset, io.SeekStart); err != nil {
		return err
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], w.count)
	if _, err := ws.Write(cnt[:]); err != nil {
		return err
	}
	_, err = ws.Seek(end, io.SeekStart)
	return err
}

// Reader decodes a trace file. It implements Stream.
type Reader struct {
	r     *bufio.Reader
	prev  Record
	err   error
	count uint64
	n     uint64 // records decoded so far: the next record's index
}

// ErrBadMagic marks a non-trace or wrong-version file.
var ErrBadMagic = errors.New("trace: bad magic or version")

// NewReader validates the header and returns a Reader. Both format
// versions are accepted.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	switch hdr {
	case magicV1:
		return &Reader{r: br}, nil
	case magicV2:
		var cnt [8]byte
		if _, err := io.ReadFull(br, cnt[:]); err != nil {
			return nil, fmt.Errorf("trace: reading record count: %w", err)
		}
		return &Reader{r: br, count: binary.LittleEndian.Uint64(cnt[:])}, nil
	default:
		return nil, ErrBadMagic
	}
}

// Count returns the number of records the header promises, or 0 when
// unknown (v1 files, or v2 written through a non-seekable writer).
// Callers use it as a preallocation hint; decoding remains the source
// of truth.
func (r *Reader) Count() uint64 { return r.count }

// Read implements Stream. A short read ends the stream: the file
// ended at a record boundary, or Err reports why it did not.
func (r *Reader) Read(dst []Record) int {
	for i := range dst {
		if !r.decode(&dst[i]) {
			return i
		}
	}
	return len(dst)
}

// flagKind and flagValue are a record's flag bits: its Kind and
// whether it carries a Value. The writer sets no others.
const (
	flagKind  = 1 << 0
	flagValue = 1 << 1
)

// decode reads the next record into rec. It reports false at the end
// of the file or on the first error, and keeps doing so.
func (r *Reader) decode(rec *Record) bool {
	if r.err != nil {
		return false
	}
	flags, err := r.r.ReadByte()
	if err != nil {
		r.err = err
		return false
	}
	if flags&^(flagKind|flagValue) != 0 {
		r.err = fmt.Errorf("trace: record %d: flags %#x set bits other than kind and value", r.n, flags)
		return false
	}
	pcD, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = noEOF(err)
		return false
	}
	vaD, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = noEOF(err)
		return false
	}
	gap, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = noEOF(err)
		return false
	}
	if gap > math.MaxUint16 {
		r.err = fmt.Errorf("trace: record %d: gap %d exceeds %d", r.n, gap, math.MaxUint16)
		return false
	}
	*rec = Record{
		PC:       uint64(int64(r.prev.PC) + unzigzag(pcD)),
		VAddr:    mem.VAddr(int64(r.prev.VAddr) + unzigzag(vaD)),
		Gap:      uint16(gap),
		Kind:     Kind(flags & flagKind),
		HasValue: flags&flagValue != 0,
	}
	if rec.HasValue {
		v, err := binary.ReadUvarint(r.r)
		if err != nil {
			r.err = noEOF(err)
			return false
		}
		rec.Value = v
	}
	r.prev = *rec
	r.n++
	return true
}

// noEOF upgrades an EOF in the middle of a record to a real error:
// only an EOF at a record boundary is a clean end of trace.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Err returns the terminal error, if any (io.EOF is normal end).
func (r *Reader) Err() error {
	if r.err == io.EOF {
		return nil
	}
	return r.err
}

// Take reads up to n records from a stream into a new slice.
func Take(s Stream, n int) []Record {
	out := make([]Record, n)
	return out[:s.Read(out)]
}

// SliceStream replays a fixed record slice (tests, captured traces).
type SliceStream struct {
	recs []Record
	pos  int
}

// NewSliceStream wraps records in a Stream.
func NewSliceStream(recs []Record) *SliceStream { return &SliceStream{recs: recs} }

// Read implements Stream.
func (s *SliceStream) Read(dst []Record) int {
	n := copy(dst, s.recs[s.pos:])
	s.pos += n
	return n
}
