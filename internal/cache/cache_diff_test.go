package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// invalidTag marks the reference's empty ways; Cache marks them with a
// zero fingerprint instead.
const invalidTag = ^uint32(0)

// cacheDiff drives Cache and the stamp-based reference (refCache)
// through the same operations and fails on the first observable
// difference: a return value.
type cacheDiff struct {
	t     testing.TB
	c     *Cache
	r     *refCache
	lines uint64 // the op stream's addresses span this many lines
	step  int
}

func newCacheDiff(t testing.TB, cfg Config) *cacheDiff {
	return &cacheDiff{t: t, c: New(cfg), r: newRefCache(cfg),
		lines: 3 * cfg.SizeB / mem.LineSize}
}

func (d *cacheDiff) fail(op string, got, want any) {
	d.t.Helper()
	d.t.Fatalf("step %d %s: got %v, reference %v", d.step, op, got, want)
}

// run decodes ops three bytes at a time. The first byte selects the
// operation (bits 0-1), the write or dirty flag (bit 2), the fill's
// provenance (bits 3-4) and an offset within the line (bits 5-7); the
// other two pick a line among three times the cache's capacity, so
// every set sees hits, fills into empty ways and evictions.
func (d *cacheDiff) run(ops []byte) {
	d.t.Helper()
	for ; len(ops) >= 3; ops = ops[3:] {
		d.step++
		sel := ops[0]
		line := (uint64(ops[1])<<8 | uint64(ops[2])) % d.lines
		p := mem.PAddr(line<<mem.LineShift | uint64(sel>>5)*8)
		flag := sel&4 != 0
		switch sel % 4 {
		case 0, 1:
			op := fmt.Sprintf("Access(%#x, %v)", uint64(p), flag)
			hit, prov := d.c.Access(p, flag)
			rhit, rprov := d.r.Access(p, flag)
			if hit != rhit || prov != rprov {
				d.fail(op, fmt.Sprint(hit, prov), fmt.Sprint(rhit, rprov))
			}
		case 2:
			prov := Provenance(sel >> 3 & 3)
			op := fmt.Sprintf("Fill(%#x, %d, %v)", uint64(p), prov, flag)
			v, ev := d.c.Fill(p, prov, flag)
			rv, rev := d.r.Fill(p, prov, flag)
			if v != rv || ev != rev {
				d.fail(op, fmt.Sprint(v, ev), fmt.Sprint(rv, rev))
			}
		case 3:
			if got, want := d.c.Contains(p), d.r.Contains(p); got != want {
				d.fail(fmt.Sprintf("Contains(%#x)", uint64(p)), got, want)
			}
		}
	}
}

// diffConfig builds the configuration of a sets × ways cache.
func diffConfig(sets, ways int, replace Replacement) Config {
	return Config{Name: "diff", SizeB: uint64(sets*ways) * mem.LineSize, Ways: ways, LatencyC: 1, Replace: replace}
}

// Every width 1–16 and set count 1–32, under LRU and SRRIP, must match
// the stamp-based reference on every return value.
func TestCacheMatchesReferenceRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := make([]byte, 3*4000)
	for ways := 1; ways <= 16; ways++ {
		for sets := 1; sets <= 32; sets *= 2 {
			for _, rp := range []Replacement{ReplaceLRU, ReplaceSRRIP} {
				rng.Read(ops)
				newCacheDiff(t, diffConfig(sets, ways, rp)).run(ops)
			}
		}
	}
}

// The reference renumbers its 32-bit stamps when its clock nears
// wraparound; started just below it, the renumbering runs mid-stream
// and the two caches must still agree.
func TestCacheMatchesReferenceAcrossStampWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ops := make([]byte, 3*6000)
	for _, rp := range []Replacement{ReplaceLRU, ReplaceSRRIP} {
		rng.Read(ops)
		d := newCacheDiff(t, diffConfig(4, 8, rp))
		d.r.tick = ^uint32(0) - 2000
		d.run(ops)
		if d.r.tick > 1<<20 {
			t.Fatalf("%v: reference clock at %d; the stamp renumbering never ran", rp, d.r.tick)
		}
	}
}

// FuzzCacheOps decodes a geometry from the first two bytes — 1–16 ways,
// 1–32 sets, LRU or SRRIP, and optionally the reference's clock just
// below wraparound — and an op stream (cacheDiff.run) from the rest.
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{0x07, 0x02, 0x02, 0x00, 0x01, 0x00, 0x00, 0x01})
	f.Add([]byte{0x0f, 0x0d, 0x06, 0x00, 0x10, 0x02, 0x00, 0x20, 0x00, 0x00, 0x10})
	f.Add([]byte{0x00, 0x18, 0x02, 0x00, 0x00, 0x0e, 0x00, 0x01, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ways, sets := 1+int(data[0]%16), 1<<(data[1]%6)
		rp := ReplaceLRU
		if data[1]&8 != 0 {
			rp = ReplaceSRRIP
		}
		d := newCacheDiff(t, diffConfig(sets, ways, rp))
		if data[1]&16 != 0 {
			d.r.tick = ^uint32(0) - 64
		}
		d.run(data[2:])
	})
}
