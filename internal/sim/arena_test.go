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

// keepFrame is a slab type that keeps its slice backing across reuse.
type keepFrame struct {
	n   int
	buf []int
}

func (f *keepFrame) Recycle() { *f = keepFrame{buf: f.buf[:0]} }

// TestSlabFreeReuse pins per-object recycling: an element given back is
// the next one handed out, zeroed, except for the slice backing a
// Recycler keeps, truncated.
func TestSlabFreeReuse(t *testing.T) {
	a := NewArena()
	f := AllocFrom[warmStartFrame](a)
	f.n, f.PC = 7, 3
	FreeTo(a, f)
	if g := AllocFrom[warmStartFrame](a); g != f || g.n != 0 || g.PC != 0 {
		t.Fatalf("reallocated element %p %+v, want %p zeroed", g, g, f)
	}
	k := AllocFrom[keepFrame](a)
	k.n, k.buf = 5, append(k.buf, 1, 2, 3)
	backing := &k.buf[0]
	FreeTo(a, k)
	g := AllocFrom[keepFrame](a)
	if g != k || g.n != 0 || len(g.buf) != 0 || cap(g.buf) < 3 || &g.buf[:1][0] != backing {
		t.Fatalf("recycled element %+v did not keep its truncated backing", g)
	}
}

// TestPutArenaLiveKernelPanics pins that an arena still owning a kernel
// cannot enter the pool, where the next taker would build over it.
func TestPutArenaLiveKernelPanics(t *testing.T) {
	a := NewArena()
	NewKernelIn(a)
	defer func() {
		if recover() == nil {
			t.Fatal("PutArena of an arena with a live kernel did not panic")
		}
	}()
	PutArena(a)
}

// TestArenaConcurrentSweeps runs arenas on concurrent goroutines — the
// sweep-worker topology, one arena per kernel — and checks every
// replicate digest. Each worker gives its arena back to the pool after
// every replicate and takes one again, so arenas pass between workers.
// Run under -race this verifies that the pool orders those handoffs and
// that an arena needs no locking while one worker owns it.
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
			a := TakeArena()
			want := arenaReplicate(a, 16, 3)
			for i := 0; i < 50; i++ {
				a.Reset()
				PutArena(a)
				a = TakeArena()
				if got := arenaReplicate(a, 16, 3); got != want {
					errs[w] = "replicate digest drifted across resets"
					return
				}
			}
			a.Reset()
			PutArena(a)
		}(w)
	}
	wg.Wait()
	for w, e := range errs {
		if e != "" {
			t.Errorf("worker %d: %s", w, e)
		}
	}
}

// staleAbortRun runs a process that dies with its deadline abort still
// queued: a holds 1 s and finishes, its abort is due at t=5, and at t=2
// b spawns and holds 10 s. It reports b's hold outcome and whether b
// took a's record, with the kernel's step and live-process counts.
func staleAbortRun(k *Kernel) (ok, reused bool, steps uint64, live int) {
	a := spawnSteps(k, "a", hold(1))
	k.AtInterrupt(5, a)
	at(k, 2, func() {
		b := spawnSteps(k, "b", hold(10), then(func(_ *Proc, o bool) { ok = o }))
		reused = b == a
	})
	k.Drain()
	return ok, reused, k.Steps(), k.LiveProcs()
}

// TestStaleAbortSkipsReusedRecord pins that a deadline abort which
// outlives its process reaches no later process: on an arena kernel the
// next Spawn reuses the dead process's record, and when the stale abort
// fires the new process is not interrupted. The run matches a plain
// kernel's, where nothing is reused.
func TestStaleAbortSkipsReusedRecord(t *testing.T) {
	wantOK, reused, wantSteps, wantLive := staleAbortRun(NewKernel())
	if !wantOK || reused {
		t.Fatalf("plain kernel: hold ok=%v, reused=%v; want true, false", wantOK, reused)
	}
	ok, reused, steps, live := staleAbortRun(NewKernelIn(NewArena()))
	if !reused {
		t.Fatal("arena kernel: the second process did not reuse the first's record")
	}
	if !ok {
		t.Error("the stale abort interrupted the process that reused the record")
	}
	if steps != wantSteps || live != wantLive {
		t.Errorf("arena kernel: Steps %d, LiveProcs %d; plain kernel: %d, %d", steps, live, wantSteps, wantLive)
	}
}

// rideCompleter is an idle resource's direct completion: it delivers
// the ride its caller armed, as a disk's direct transfer does, and
// records whether the ride's registry slot was the dead sentinel.
type rideCompleter struct {
	k     *Kernel
	r     Ride
	stale bool
}

func (c *rideCompleter) Complete(bool) {
	c.stale = c.k.tasks[c.r.tid] == &c.k.dead
	c.k.DeliverRide(c.r)
}

// staleRideRun interrupts a rider during its direct transfer (due at
// t=3) at t=1, so it unwinds and dies, and spawns b at t=2 to hold 5 s.
// It reports the rider's wait outcome, b's hold outcome and finish
// time, whether b took the rider's record, whether the completion found
// the rider's slot holding the sentinel, and the step and live-process
// counts.
func staleRideRun(k *Kernel) (riderOK, bOK bool, bDone float64, reused, stale bool, steps uint64, live int) {
	c := &rideCompleter{k: k}
	comp := k.RegisterCompleter(c)
	riderOK = true
	rider := spawnSteps(k, "rider",
		func(p *Proc, _ bool) (bool, bool) {
			var entered bool
			c.r, entered = k.AtCompleteRide(3, comp, p)
			return entered, false
		},
		then(func(_ *Proc, ok bool) { riderOK = ok }))
	at(k, 1, rider.Interrupt)
	at(k, 2, func() {
		b := spawnSteps(k, "b", hold(5), then(func(p *Proc, ok bool) { bOK, bDone = ok, p.Now() }))
		reused = b == rider
	})
	k.Drain()
	return riderOK, bOK, bDone, reused, c.stale, k.Steps(), k.LiveProcs()
}

// TestStaleRideWakesNothing pins that the completion of a direct
// transfer whose interrupted rider has died wakes nothing: it addresses
// the rider's slot, which holds the dead sentinel, so the process that
// reused the rider's record on an arena kernel holds on undisturbed.
// The run matches a plain kernel's.
func TestStaleRideWakesNothing(t *testing.T) {
	riderOK, bOK, bDone, reused, stale, wantSteps, wantLive := staleRideRun(NewKernel())
	if riderOK || !bOK || bDone != 7 || reused || !stale {
		t.Fatalf("plain kernel: rider ok=%v, b ok=%v done at %g, reused=%v, sentinel=%v; want false, true, 7, false, true",
			riderOK, bOK, bDone, reused, stale)
	}
	riderOK, bOK, bDone, reused, stale, steps, live := staleRideRun(NewKernelIn(NewArena()))
	if !reused {
		t.Fatal("arena kernel: b did not reuse the rider's record")
	}
	if riderOK || !bOK || bDone != 7 {
		t.Errorf("arena kernel: rider ok=%v, b ok=%v done at %g; want false, true, 7", riderOK, bOK, bDone)
	}
	if !stale {
		t.Error("the stale ride's completion addressed a live record, not the dead sentinel")
	}
	if steps != wantSteps || live != wantLive {
		t.Errorf("arena kernel: Steps %d, LiveProcs %d; plain kernel: %d, %d", steps, live, wantSteps, wantLive)
	}
}

// churnWorker holds once, then gives its frame back to the arena and
// finishes, as a query frame does at departure.
type churnWorker struct {
	FrameState
	p *Proc
}

func (f *churnWorker) Step(m *Machine, ok bool) Status {
	if f.PC == 0 {
		f.PC = 1
		if f.p.StartHold(3.5) {
			return Park
		}
	}
	FreeTo(f.p.k.arena, f)
	return m.Return(ok)
}

// churnSource spawns a churnWorker every simulated second, n in all, so
// at most 4 workers are alive at once.
type churnSource struct {
	FrameState
	p *Proc
	n int
}

func (f *churnSource) Step(m *Machine, ok bool) Status {
	for f.n > 0 {
		f.n--
		w := AllocFrom[churnWorker](f.p.k.arena)
		w.p = f.p.k.Spawn("w", w)
		if f.p.StartHold(1) {
			return Park
		}
	}
	return m.Return(true)
}

// churn runs n churn workers on k to completion and returns its step
// count.
func churn(k *Kernel, n int) uint64 {
	src := AllocFrom[churnSource](k.arena)
	src.n = n
	src.p = k.Spawn("source", src)
	k.Drain()
	return k.Steps()
}

// TestArenaChurnBounded pins that an arena stays at the size of what is
// alive at once: 10,000 one-hold processes, at most 4 alive beside
// their source, leave the Proc slab holding 5 records, not 10,000, in a
// run identical to a plain kernel's.
func TestArenaChurnBounded(t *testing.T) {
	want := churn(NewKernel(), 10_000)
	a := NewArena()
	if got := churn(NewKernelIn(a), 10_000); got != want {
		t.Errorf("arena kernel Steps = %d, plain kernel %d", got, want)
	}
	if n := SlabFor[Proc](a).used(); n != 5 {
		t.Errorf("Proc slab handed out %d records, want 5", n)
	}
}
