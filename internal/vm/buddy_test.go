package vm

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestBuddyInitCoversAllFrames(t *testing.T) {
	for _, n := range []uint64{1, 7, 512, 513, 1 << 18, 1<<18 + 3} {
		b := NewBuddy(n)
		if b.FreeFrames() != n {
			t.Errorf("NewBuddy(%d): free = %d", n, b.FreeFrames())
		}
		if b.TotalFrames() != n {
			t.Errorf("NewBuddy(%d): total = %d", n, b.TotalFrames())
		}
	}
}

func TestBuddyAllocAlignment(t *testing.T) {
	b := NewBuddy(1 << 12)
	for order := 0; order <= 9; order++ {
		f, err := b.Alloc(order)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", order, err)
		}
		if uint64(f)%(1<<uint(order)) != 0 {
			t.Errorf("Alloc(%d) returned misaligned frame %d", order, f)
		}
	}
}

func TestBuddyAllocInvalidOrder(t *testing.T) {
	b := NewBuddy(64)
	if _, err := b.Alloc(-1); err == nil {
		t.Error("Alloc(-1) should fail")
	}
	if _, err := b.Alloc(MaxOrder + 1); err == nil {
		t.Error("Alloc(too-big) should fail")
	}
}

func TestBuddyExhaustion(t *testing.T) {
	b := NewBuddy(4)
	for i := 0; i < 4; i++ {
		if _, err := b.AllocFrame(); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := b.AllocFrame(); err != ErrNoMemory {
		t.Errorf("expected ErrNoMemory, got %v", err)
	}
	if b.FreeFrames() != 0 {
		t.Errorf("free = %d", b.FreeFrames())
	}
}

func TestBuddyFreeAndCoalesce(t *testing.T) {
	b := NewBuddy(512)
	var frames []mem.Frame
	for i := 0; i < 512; i++ {
		f, err := b.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	for _, f := range frames {
		if err := b.Free(f); err != nil {
			t.Fatal(err)
		}
	}
	if b.FreeFrames() != 512 {
		t.Fatalf("free = %d after freeing everything", b.FreeFrames())
	}
	// Everything must have coalesced back into one 2MB block.
	if _, err := b.Alloc(9); err != nil {
		t.Errorf("2MB block should be available after coalescing: %v", err)
	}
}

func TestBuddyDoubleFree(t *testing.T) {
	b := NewBuddy(64)
	f, _ := b.AllocFrame()
	if err := b.Free(f); err != nil {
		t.Fatal(err)
	}
	if err := b.Free(f); err == nil {
		t.Error("double free should fail")
	}
	if err := b.Free(63); err == nil {
		t.Error("freeing a never-allocated frame should fail")
	}
	// Frames past the end — inside the last chunk, past every chunk,
	// and the largest frame number — are never allocated.
	for _, f := range []mem.Frame{64, 511, 512, 1 << 40, ^mem.Frame(0)} {
		if err := b.Free(f); err == nil {
			t.Errorf("Free(%d) past TotalFrames should fail", f)
		}
		if b.Allocated(f) {
			t.Errorf("Allocated(%d) past TotalFrames = true", f)
		}
	}
	if b.FreeFrames() != 64 {
		t.Errorf("free = %d after failed frees, want 64", b.FreeFrames())
	}
}

func TestBuddyAllocSpecific(t *testing.T) {
	b := NewBuddy(1024)
	if err := b.AllocSpecific(777); err != nil {
		t.Fatal(err)
	}
	if err := b.AllocSpecific(777); err == nil {
		t.Error("frame 777 should no longer be free")
	}
	for _, f := range []mem.Frame{1024, 5000, 1 << 40, ^mem.Frame(0)} {
		if err := b.AllocSpecific(f); err == nil {
			t.Errorf("out-of-range frame %d should fail", f)
		}
		if b.Allocated(f) {
			t.Errorf("Allocated(%d) past TotalFrames = true", f)
		}
	}
	if !b.Allocated(777) || b.Allocated(776) {
		t.Error("Allocated should report exactly the allocated head 777")
	}
	// Frame 777 sits in the second 2MB region; that region can no
	// longer satisfy an order-9 allocation, but the first can.
	f, err := b.Alloc(9)
	if err != nil {
		t.Fatal(err)
	}
	if f != 0 {
		t.Errorf("expected the intact region at 0, got %d", f)
	}
	if _, err := b.Alloc(9); err == nil {
		t.Error("no second intact 2MB region should remain")
	}
	// Freeing 777 restores contiguity.
	if err := b.Free(777); err != nil {
		t.Fatal(err)
	}
	if f, err := b.Alloc(9); err != nil || f != 512 {
		t.Errorf("Alloc(9) after free = %d, %v", f, err)
	}
}

func TestBuddyHasFreeAndLargest(t *testing.T) {
	b := NewBuddy(512)
	if !b.HasFree(9) || b.LargestFreeOrder() != 9 {
		t.Error("fresh 512-frame buddy should have an order-9 block")
	}
	if b.HasFree(10) {
		t.Error("no order-10 block in 512 frames")
	}
	if err := b.AllocSpecific(100); err != nil {
		t.Fatal(err)
	}
	if b.HasFree(9) {
		t.Error("order 9 should be gone after fragmentation")
	}
	if b.LargestFreeOrder() != 8 {
		t.Errorf("largest = %d, want 8", b.LargestFreeOrder())
	}
	b2 := NewBuddy(1)
	b2.AllocFrame()
	if b2.LargestFreeOrder() != -1 {
		t.Error("exhausted buddy should report -1")
	}
}

// Property: a random interleaving of allocations and frees never
// produces overlapping live blocks and always conserves frame counts.
func TestBuddyRandomisedInvariants(t *testing.T) {
	const frames = 1 << 14
	rng := rand.New(rand.NewSource(42))
	b := NewBuddy(frames)
	type block struct {
		f     mem.Frame
		order int
	}
	var live []block
	owner := make(map[mem.Frame]int) // frame -> index into live (+1)
	checkNoOverlap := func(f mem.Frame, order int) {
		for i := uint64(0); i < 1<<uint(order); i++ {
			if owner[f+mem.Frame(i)] != 0 {
				t.Fatalf("frame %d double-allocated", f+mem.Frame(i))
			}
		}
	}
	for step := 0; step < 5000; step++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			order := rng.Intn(6)
			f, err := b.Alloc(order)
			if err != nil {
				continue
			}
			checkNoOverlap(f, order)
			live = append(live, block{f, order})
			for i := uint64(0); i < 1<<uint(order); i++ {
				owner[f+mem.Frame(i)] = len(live)
			}
		} else {
			i := rng.Intn(len(live))
			blk := live[i]
			if err := b.Free(blk.f); err != nil {
				t.Fatalf("free %v: %v", blk, err)
			}
			for j := uint64(0); j < 1<<uint(blk.order); j++ {
				delete(owner, blk.f+mem.Frame(j))
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		var liveFrames uint64
		for _, blk := range live {
			liveFrames += 1 << uint(blk.order)
		}
		if b.FreeFrames()+liveFrames != frames {
			t.Fatalf("frame conservation violated: free=%d live=%d",
				b.FreeFrames(), liveFrames)
		}
	}
	// Drain and verify full coalescing.
	for _, blk := range live {
		if err := b.Free(blk.f); err != nil {
			t.Fatal(err)
		}
	}
	if b.FreeFrames() != frames {
		t.Fatalf("free = %d after drain", b.FreeFrames())
	}
	if b.LargestFreeOrder() != 14 {
		t.Errorf("largest order = %d, want 14 (fully coalesced)", b.LargestFreeOrder())
	}
}

// Property: Alloc always returns naturally aligned, in-range blocks.
func TestBuddyAllocAlignmentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuddy(1 << 13)
		for i := 0; i < 200; i++ {
			order := rng.Intn(10)
			fr, err := b.Alloc(order)
			if err != nil {
				return true // exhaustion is fine
			}
			if uint64(fr)%(1<<uint(order)) != 0 {
				return false
			}
			if uint64(fr)+(1<<uint(order)) > b.TotalFrames() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBuddyDeterminism(t *testing.T) {
	run := func() []mem.Frame {
		b := NewBuddy(1 << 12)
		var got []mem.Frame
		for i := 0; i < 50; i++ {
			f, err := b.Alloc(i % 5)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, f)
			if i%3 == 0 {
				b.Free(f)
			}
		}
		return got
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("allocation order not deterministic at step %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Building a machine must not cost memory in proportion to its size:
// NewBuddy plus a first 2MB allocation split only blocks of 2MB and
// above, so they touch no chunk, only two 16KB chunk tables and the
// 24KB slice of region slots (60KB in all), where flat per-frame state
// for 4GB of frames would take 12MB.
func TestBuddySetupAllocationIsLazy(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := NewBuddy(1 << 20)
	if _, err := b.Alloc(9); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 128<<10 {
		t.Errorf("NewBuddy(1<<20) + Alloc(9) allocated %d bytes, want < 128KB", got)
	}
}

// Memhog state must cost memory only where a region keeps free blocks:
// at memhog 0.75 over 1GB, fragment fills all 512 regions, half of
// them completely. 12-byte heads would need 6KB a region, 3MB in all;
// a state byte per frame needs 256KB, plus 4KB of free-list links in
// each region memhog leaves free blocks in, about 1.3MB.
func TestFragmentAllocationIsLazy(t *testing.T) {
	const frames = 1 << 18
	b := NewBuddy(frames)
	fullTemplates()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fragment(rand.New(rand.NewSource(1)), b, frames, 0.75)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Errorf("fragment of 1GB at 0.75 allocated %d bytes, want < 2MB", got)
	}
}
