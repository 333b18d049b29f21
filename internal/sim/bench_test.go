package sim

import "testing"

// Kernel micro-benchmarks: the scheduling hot path in isolation. All
// must run allocation-free in steady state (allocs/op = 0). The frozen
// before/after history of earlier kernels is BENCH_kernel.json at the
// repo root.

// BenchmarkKernelChurn measures the timer churn pattern the simulator
// generates constantly: schedule two events, cancel one, execute one.
func BenchmarkKernelChurn(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	// Warm the event pool so steady state is measured, not growth.
	for i := 0; i < 64; i++ {
		k.At(1, fn)
	}
	k.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := k.At(1, fn)
		k.At(2, fn)
		t.Stop()
		k.Step()
	}
	b.StopTimer()
	k.Drain()
}

// BenchmarkTimerChurn is the schedule/cancel-heavy variant of
// BenchmarkKernelChurn: the pacing + firm-deadline pattern where most
// armed timers never fire. Each iteration schedules three timers at
// distinct future times, cancels two, and executes one, so the queue
// sees two tombstones per live event.
func BenchmarkTimerChurn(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.At(0.5, fn)
	}
	k.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t1 := k.At(0.5, fn)
		t2 := k.At(1.5, fn)
		k.At(1, fn)
		t1.Stop()
		t2.Stop()
		k.Step()
	}
	b.StopTimer()
	k.Drain()
}

// BenchmarkFarFuture measures events scheduled ~160 simulated years
// ahead and cancelled before firing: a distant-timeout pattern. Both
// the pending entries and the cancellation tombstones must stay
// allocation-free in steady state.
func BenchmarkFarFuture(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	// Two long-lived anchor timers keep the heap non-empty, so the
	// measured far-future events are filed behind pending entries.
	k.At(6e7, fn)
	k.At(6e7, fn)
	// Warm the heap's backing array and its compaction path.
	for i := 0; i < 64; i++ {
		t := k.At(5e9, fn)
		t.Stop()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := k.At(5e9, fn)
		k.At(1, fn)
		t.Stop() // tombstone; periodic compaction reclaims
		k.Step() // fires the near event
	}
	b.StopTimer()
	k.Drain()
}

// BenchmarkKernelZeroDelay measures the same-timestamp handoff pattern
// (spawn turns, wakes, gate grants): schedule at delay 0, execute.
func BenchmarkKernelZeroDelay(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	k.At(0, fn)
	k.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.At(0, fn)
		k.Step()
	}
}

// BenchmarkInlineHoldWake measures the process wait cycle: a hold (timer
// park + timed wake), then a plain park ended by an external Wake, each
// resumed by a turn the kernel runs as a call into the process's frame.
func BenchmarkInlineHoldWake(b *testing.B) {
	k := NewKernel()
	f := &holdWakeFrame{}
	p := k.Spawn("holdwake", f)
	f.p = p
	k.Step() // spawn turn: machine runs and parks in its hold
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step() // hold timer fires, wake scheduled
		k.Step() // machine resumes, blocks in its park
		p.Wake()
		k.Step() // machine resumes, blocks in its hold again
	}
	b.StopTimer()
	p.Interrupt()
	k.Drain()
}

// holdOnlyFrame re-arms a 1-second hold forever: the pure timer-wake
// turn cycle with no external wakes, isolating event dispatch.
type holdOnlyFrame struct {
	FrameState
	p *Proc
}

func (f *holdOnlyFrame) Step(m *Machine, ok bool) Status {
	for {
		switch f.PC {
		case 0:
			f.PC = 1
			if f.p.StartHold(1) {
				return Park
			}
			ok = false
		case 1:
			if !ok {
				return m.Return(false)
			}
			f.PC = 0
		}
	}
}

// BenchmarkTypedDispatch measures the kernel's event dispatch in
// isolation: a process endlessly re-arming a hold, so every
// kernel step fires either a timed task wake or a zero-delay task turn —
// the two event kinds that dominate simulation runs.
func BenchmarkTypedDispatch(b *testing.B) {
	k := NewKernel()
	f := &holdOnlyFrame{}
	p := k.Spawn("dispatch", f)
	f.p = p
	k.Step() // spawn turn: machine parks in its hold
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step() // hold timer fires, wake delivered
		k.Step() // turn: machine re-arms its hold
	}
	b.StopTimer()
	p.Interrupt()
	k.Drain()
}

// burstLoopFrame runs n back-to-back bursts on a server, parking only
// when a burst is not elided.
type burstLoopFrame struct {
	FrameState
	p *Proc
	s *Server
	n int
}

func (f *burstLoopFrame) Step(m *Machine, ok bool) Status {
	for {
		switch f.PC {
		case 0:
			if f.n == 0 {
				return m.Return(true)
			}
			f.n--
			f.PC = 1
			var entered bool
			if entered, ok = f.s.StartUse(f.p, 0, 1e-3); entered {
				return Park
			}
		case 1:
			if !ok {
				return m.Return(false)
			}
			f.PC = 0
		}
	}
}

// BenchmarkServerElided measures service elision: a lone process
// doing back-to-back bursts on an idle server, where every completion
// is provably the next event, so each burst runs inline in the task's
// single turn with no event queued.
func BenchmarkServerElided(b *testing.B) {
	k := NewKernel()
	f := &burstLoopFrame{s: NewServer(k, "cpu"), n: b.N}
	f.p = k.Spawn("bursts", f)
	b.ReportAllocs()
	b.ResetTimer()
	k.Drain()
	b.StopTimer()
	if k.Elided() != uint64(b.N) {
		b.Fatalf("elided %d of %d bursts", k.Elided(), b.N)
	}
}

// warmStartFrame holds n times, then finishes.
type warmStartFrame struct {
	FrameState
	p *Proc
	n int
}

func (f *warmStartFrame) Step(m *Machine, ok bool) Status {
	for {
		switch f.PC {
		case 0:
			if f.n == 0 {
				return m.Return(true)
			}
			f.n--
			f.PC = 1
			if f.p.StartHold(1) {
				return Park
			}
			ok = false
		case 1:
			if !ok {
				return m.Return(false)
			}
			f.PC = 0
		}
	}
}

// BenchmarkArenaWarmStart measures the replicate start-up pattern the
// sweep engine repeats thousands of times: build a kernel, spawn a
// batch of processes, run them to completion, tear down. With a
// per-worker arena the whole cycle — kernel, frames, event pool — runs
// on memory recycled from the previous replicate, at 0 allocs/op.
func BenchmarkArenaWarmStart(b *testing.B) {
	const batch = 32
	a := NewArena()
	frames := SlabFor[warmStartFrame](a)
	run := func() {
		k := NewKernelIn(a)
		for j := 0; j < batch; j++ {
			f := frames.Alloc()
			f.n = 4
			f.p = k.Spawn("w", f)
		}
		k.Drain()
		a.Reset()
	}
	run() // grow the slabs and queue backings once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// gateLoopFrame queues at g with a fixed priority, re-queueing each
// time it is released, until a wait is interrupted.
type gateLoopFrame struct {
	FrameState
	p    *Proc
	g    *Gate
	prio float64
}

func (f *gateLoopFrame) Step(m *Machine, ok bool) Status {
	if !ok || !f.g.Enqueue(f.p, f.prio, nil, 0) {
		return m.Return(false)
	}
	return Park
}

// spawnGateLoops spawns n gateLoopFrame waiters on g, with priorities
// cycling through 0..3, and runs their spawn turns: everyone queues.
func spawnGateLoops(k *Kernel, g *Gate, n int) {
	for i := 0; i < n; i++ {
		f := &gateLoopFrame{g: g, prio: float64(i % 4)}
		f.p = k.Spawn("waiter", f)
	}
	for i := 0; i < n; i++ {
		k.Step()
	}
}

// BenchmarkGateContention measures the scheduler-queue hot path the CPU
// and disks run on every dispatch: N queued waiters, the owner scans for
// the best (lowest Prio, FIFO among ties), releases it, and the released
// process immediately re-queues.
func BenchmarkGateContention(b *testing.B) {
	const nWaiters = 8
	k := NewKernel()
	g := NewGate(k, "bench")
	spawnGateLoops(k, g, nWaiters)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best := pickBest(g)
		g.Release(best)
		k.Step() // released proc re-queues
	}
	b.StopTimer()
	for _, p := range procsOf(g) {
		p.Interrupt()
	}
	k.Drain()
}

// BenchmarkGateBoundScan is BenchmarkGateContention with the owner scan
// replaced by Gate.MinWaiter, the pick the CPU and disk dispatchers
// use. The gate keeps its queue in (Prio, arrival) order, so the pick
// reads the head and there is no bound left to scan against; the
// released waiter's re-queue walks past the waiters ahead of it. The
// gap to BenchmarkGateContention is the full queue walk the order saves.
func BenchmarkGateBoundScan(b *testing.B) {
	const nWaiters = 8
	k := NewKernel()
	g := NewGate(k, "bench")
	spawnGateLoops(k, g, nWaiters)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best := g.MinWaiter()
		g.Release(best)
		k.Step() // released proc re-queues
	}
	b.StopTimer()
	for _, p := range procsOf(g) {
		p.Interrupt()
	}
	k.Drain()
}

// nopCompleter is a Completer whose completions change nothing.
type nopCompleter struct{}

func (nopCompleter) Complete(bool) {}

// BenchmarkDeadlineBacklog prices event selection under the deadline
// backlog an overloaded run holds: 40 pending firm-deadline aborts
// (overload-small's mean) while timed service completions churn in
// front of them. Each iteration arms one more abort, due 40.5
// completion gaps ahead, and one completion, one gap ahead, then fires
// the two events due first: the oldest abort, whose target has already
// finished, and the completion. It fails if the backlog drifts.
func BenchmarkDeadlineBacklog(b *testing.B) {
	const backlog, gap = 40, 1e-3
	k := NewKernel()
	comp := k.RegisterCompleter(nopCompleter{})
	target := k.Spawn("finished", &Script{})
	k.Drain()
	arm := func() {
		k.AtInterrupt((backlog+0.5)*gap, target)
		k.AtComplete(gap, comp, false)
	}
	for i := 0; i < backlog; i++ { // fill the backlog
		arm()
		k.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arm()
		k.Step() // the oldest abort
		k.Step() // the completion
	}
	b.StopTimer()
	if len(k.dl) != backlog || len(k.heap) != 0 {
		b.Fatalf("%d aborts and %d other timed events pending, want %d and 0", len(k.dl), len(k.heap), backlog)
	}
}

// BenchmarkDelayScale measures the schedule/fire cycle across event
// delays from a second down to a microsecond. The heap orders by exact
// time, so no delay scale should cost more than another.
func BenchmarkDelayScale(b *testing.B) {
	scales := []struct {
		name  string
		delay float64
	}{
		{"delay=1s", 1},
		{"delay=62.5ms", 0.0625},
		{"delay=1ms", 1e-3},
		{"delay=1us", 1e-6},
	}
	for _, s := range scales {
		b.Run(s.name, func(b *testing.B) {
			k := NewKernel()
			fn := func() {}
			// Warm the pool and the heap backing.
			for i := 0; i < 64; i++ {
				k.At(s.delay, fn)
			}
			k.Drain()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.At(s.delay, fn)
				k.Step()
			}
			b.StopTimer()
			k.Drain()
		})
	}
}

// pickBest scans the whole gate for the minimum Prio, first in
// iteration order among equals: the walk a dispatcher would make if the
// gate kept no order.
func pickBest(g *Gate) *Waiting {
	var best *Waiting
	for w := g.First(); w != nil; w = w.Next() {
		if best == nil || w.Prio < best.Prio {
			best = w
		}
	}
	return best
}

// procsOf snapshots the processes currently queued at g (teardown aid).
func procsOf(g *Gate) []*Proc {
	var out []*Proc
	for _, w := range g.Waiters() {
		out = append(out, w.Proc())
	}
	return out
}

// benchPart is a minimal partition: an empty kernel whose horizon sits
// one second past its clock, so every coordinator window costs only the
// synchronization machinery itself.
type benchPart struct{ k *Kernel }

func (p *benchPart) Kernel() *Kernel  { return p.k }
func (p *benchPart) Horizon() float64 { return p.k.Now() + 1 }

// BenchmarkCoordinatorWindow measures the per-window cost of the
// partition coordinator: horizon scan, fan-out through the persistent
// worker pool, barrier, and exchange. This is the fixed tax every
// synchronization interval of a partitioned run pays regardless of how
// much simulation happens inside the window, and it must stay
// allocation-free — the pool keeps its workers between windows instead
// of spawning goroutines per window. The partitions are empty, so the
// workers=N rows price the handoff between participants, not any
// parallel speed-up.
func BenchmarkCoordinatorWindow(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"workers=2", 2},
		{"workers=4", 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			parts := make([]Partition, 4)
			for i := range parts {
				parts[i] = &benchPart{k: NewKernel()}
			}
			c := NewCoordinator(parts, bc.workers, func(now float64) {})
			b.ReportAllocs()
			b.ResetTimer()
			c.Run(float64(b.N))
			b.StopTimer()
			c.Close()
		})
	}
}
