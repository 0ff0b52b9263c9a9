package vm

import "repro/internal/mem"

// frameChunk is the number of consecutive frames one chunk of a
// frameIndex covers: 512 frames, one 2MB region of simulated memory.
const (
	frameChunkBits = 9
	frameChunk     = 1 << frameChunkBits
)

// frameIndex is a dense array indexed by physical frame number: a
// two-level table whose chunks materialise on first write, so sparse
// use of a large physical space stays cheap and building one costs
// nothing up front. Reads of frames never written — including frames
// beyond every chunk — return T's zero value without allocating.
//
// It backs both the page table's frame-to-table-page index (on the
// per-access hot path: every walk step and every TEMPO engine PTE read)
// and the buddy allocator's state for blocks below 2MB; two
// bounds-checked indexings beat hashing in both.
type frameIndex[T any] struct {
	chunks []*[frameChunk]T
}

// newFrameIndex returns an index whose chunk table already covers the
// given number of frames (one pointer per chunk), so filling it never
// regrows the table; the chunks themselves still materialise lazily.
func newFrameIndex[T any](frames uint64) frameIndex[T] {
	return frameIndex[T]{chunks: make([]*[frameChunk]T, (frames+frameChunk-1)>>frameChunkBits)}
}

// get returns the entry for f, or the zero value if f was never set.
func (a *frameIndex[T]) get(f mem.Frame) T {
	hi := uint64(f) >> frameChunkBits
	if hi < uint64(len(a.chunks)) {
		if c := a.chunks[hi]; c != nil {
			return c[f%frameChunk]
		}
	}
	var zero T
	return zero
}

// at returns a pointer to the entry for f, materialising its chunk.
func (a *frameIndex[T]) at(f mem.Frame) *T {
	return &a.chunk(f)[f%frameChunk]
}

// chunk returns the chunk holding f, materialising it.
func (a *frameIndex[T]) chunk(f mem.Frame) *[frameChunk]T {
	hi := uint64(f) >> frameChunkBits
	if hi >= uint64(len(a.chunks)) {
		a.chunks = append(a.chunks, make([]*[frameChunk]T, hi+1-uint64(len(a.chunks)))...)
	}
	c := a.chunks[hi]
	if c == nil {
		c = new([frameChunk]T)
		a.chunks[hi] = c
	}
	return c
}
