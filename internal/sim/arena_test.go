package sim

import (
	"runtime"
	"sync"
	"testing"
)

// arenaReplicate runs one warm-start replicate in a: a kernel, a batch
// of processes that each hold n times, drained to completion.
// It returns the kernel's executed-step count as a digest.
func arenaReplicate(a *Arena, batch, n int) uint64 {
	k := NewKernelIn(a)
	for j := 0; j < batch; j++ {
		f := AllocFrom[warmStartFrame](a)
		f.n = n
		f.p = k.Spawn("w", f)
	}
	k.Drain()
	return k.Steps()
}

// TestArenaResetReuse pins the warm-start contract: after the first
// replicate grows the slabs and queue backings, reset-and-rerun cycles
// allocate nothing.
func TestArenaResetReuse(t *testing.T) {
	a := NewArena()
	want := arenaReplicate(a, 32, 4)
	a.Reset()
	if got := testing.AllocsPerRun(10, func() {
		if got := arenaReplicate(a, 32, 4); got != want {
			t.Errorf("warm replicate steps = %d, want %d", got, want)
		}
		a.Reset()
	}); got != 0 {
		t.Errorf("warm replicate allocated %.1f objects/run, want 0", got)
	}
}

// TestArenaMatchesHeapKernel pins digest equivalence: the same workload
// runs bit-for-bit identically on a plain heap kernel, a cold arena
// kernel, and a warm (reset) arena kernel.
func TestArenaMatchesHeapKernel(t *testing.T) {
	k := NewKernel()
	for j := 0; j < 32; j++ {
		f := &warmStartFrame{n: 4}
		f.p = k.Spawn("w", f)
	}
	k.Drain()
	want := k.Steps()

	a := NewArena()
	if got := arenaReplicate(a, 32, 4); got != want {
		t.Errorf("cold arena replicate steps = %d, want %d", got, want)
	}
	a.Reset()
	if got := arenaReplicate(a, 32, 4); got != want {
		t.Errorf("warm arena replicate steps = %d, want %d", got, want)
	}
}

// TestArenaSecondKernelPanics pins the single-owner contract: building a
// second kernel in an arena without a Reset between them must panic
// rather than silently corrupt the first kernel's memory.
func TestArenaSecondKernelPanics(t *testing.T) {
	a := NewArena()
	NewKernelIn(a)
	defer func() {
		if recover() == nil {
			t.Fatal("second NewKernelIn without Reset did not panic")
		}
	}()
	NewKernelIn(a)
}

// TestSlabHighWaterRelease pins the shrink behaviour: one burst cycle
// must not pin its high-water capacity forever. Idle cycles (usage at or
// below a quarter of capacity) release the largest chunk, halving
// capacity per reset down to the last chunk.
func TestSlabHighWaterRelease(t *testing.T) {
	a := NewArena()
	s := SlabFor[heapItem](a)
	for i := 0; i < 100; i++ {
		s.Alloc()
	}
	burstCap := s.used() + s.remaining()
	a.Reset()
	if got := s.used() + s.remaining(); got != burstCap {
		// The burst cycle itself used well over a quarter of capacity,
		// so the first reset must retain everything.
		t.Fatalf("capacity after busy reset = %d, want %d", got, burstCap)
	}
	for i := 0; i < 20 && len(s.chunks) > 1; i++ {
		for j := 0; j < 5; j++ {
			s.Alloc()
		}
		a.Reset()
	}
	if len(s.chunks) != 1 {
		t.Fatalf("idle cycles left %d chunks, want 1", len(s.chunks))
	}
	if got := s.used() + s.remaining(); got >= burstCap {
		t.Fatalf("capacity after idle resets = %d, want < %d", got, burstCap)
	}
}

// TestSlabResetZeroes pins that reset returns recycled elements zeroed:
// a stale frame from the previous replicate must not leak its state
// (pointers kept alive, a nonzero PC) into the next.
func TestSlabResetZeroes(t *testing.T) {
	a := NewArena()
	s := SlabFor[warmStartFrame](a)
	f := s.Alloc()
	f.n = 7
	f.PC = 3
	a.Reset()
	g := s.Alloc()
	if g != f {
		t.Fatalf("reset slab handed out a different element first")
	}
	if g.n != 0 || g.PC != 0 || g.p != nil {
		t.Fatalf("recycled element not zeroed: %+v", g)
	}
}

// TestArenaConcurrentSweeps runs independent arenas on concurrent
// goroutines — the sweep-worker topology, one arena per kernel, sharing
// nothing — and checks every replicate digest. Run under -race this
// verifies the arena needs no locking when not shared.
func TestArenaConcurrentSweeps(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	var wg sync.WaitGroup
	errs := make([]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a := NewArena()
			want := arenaReplicate(a, 16, 3)
			for i := 0; i < 50; i++ {
				a.Reset()
				if got := arenaReplicate(a, 16, 3); got != want {
					errs[w] = "replicate digest drifted across resets"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, e := range errs {
		if e != "" {
			t.Errorf("worker %d: %s", w, e)
		}
	}
}
