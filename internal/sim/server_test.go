package sim

import (
	"math"
	"slices"
	"testing"
)

func TestServerSerialService(t *testing.T) {
	k := NewKernel()
	s := NewServer(k, "cpu")
	var done []float64
	for i := 0; i < 3; i++ {
		spawnSteps(k, "user", use(s, 0, 2), then(func(p *Proc, _ bool) { done = append(done, p.Now()) }))
	}
	k.Drain()
	want := []float64{2, 4, 6}
	for i := range want {
		if math.Abs(done[i]-want[i]) > 1e-12 {
			t.Fatalf("completions %v, want %v", done, want)
		}
	}
	if got := s.Meter().BusyTime(); math.Abs(got-6) > 1e-12 {
		t.Fatalf("busy time %g, want 6", got)
	}
}

func TestServerPriorityOrder(t *testing.T) {
	k := NewKernel()
	s := NewServer(k, "cpu")
	var order []string
	record := func(name string) step {
		return then(func(*Proc, bool) { order = append(order, name) })
	}
	// Occupy the server first so the others queue.
	spawnSteps(k, "first", use(s, 5, 10), record("first"))
	at(k, 1, func() {
		spawnSteps(k, "low", use(s, 9, 1), record("low"))
		spawnSteps(k, "high", use(s, 1, 1), record("high"))
	})
	k.Drain()
	if len(order) != 3 || order[0] != "first" || order[1] != "high" || order[2] != "low" {
		t.Fatalf("service order %v, want [first high low]", order)
	}
}

func TestServerFIFOAmongEqualPriority(t *testing.T) {
	k := NewKernel()
	s := NewServer(k, "cpu")
	var order []int
	spawnSteps(k, "occupier", use(s, 0, 5))
	at(k, 1, func() {
		for i := 0; i < 4; i++ {
			i := i
			spawnSteps(k, "eq", use(s, 7, 1), then(func(*Proc, bool) { order = append(order, i) }))
		}
	})
	k.Drain()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-priority order %v, want FIFO", order)
		}
	}
}

func TestServerInterruptWhileQueued(t *testing.T) {
	k := NewKernel()
	s := NewServer(k, "cpu")
	spawnSteps(k, "occupier", use(s, 0, 100))
	var gotOK *bool
	victim := spawnSteps(k, "victim", use(s, 1, 10), then(func(_ *Proc, ok bool) { gotOK = &ok }))
	at(k, 5, func() { victim.Interrupt() })
	k.Run(20)
	if gotOK == nil {
		t.Fatal("victim still blocked after interrupt")
	}
	if *gotOK {
		t.Fatal("queued request should report interruption")
	}
	if k.Now() != 20 {
		t.Fatalf("now = %g", k.Now())
	}
}

func TestServerInterruptDuringServiceCompletesFirst(t *testing.T) {
	k := NewKernel()
	s := NewServer(k, "cpu")
	var finishedAt float64
	var ok bool
	victim := spawnSteps(k, "victim", use(s, 0, 10), then(func(p *Proc, got bool) {
		ok = got
		finishedAt = p.Now()
	}))
	at(k, 3, func() { victim.Interrupt() })
	k.Drain()
	if ok {
		t.Fatal("interrupted service must report false")
	}
	if finishedAt != 10 {
		t.Fatalf("service should complete before interrupt reported; finished at %g", finishedAt)
	}
}

func TestServerUtilizationWindow(t *testing.T) {
	k := NewKernel()
	s := NewServer(k, "cpu")
	spawnSteps(k, "u", use(s, 0, 4))
	k.Run(8)
	if got := s.Meter().Utilization(0, 0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("utilization %g, want 0.5", got)
	}
	// Window starting at t=8 with a 2-second service in [8,10], to 12.
	start, busy0 := k.Now(), s.Meter().BusyTime()
	spawnSteps(k, "u2", use(s, 0, 2))
	k.Run(12)
	if got := s.Meter().Utilization(start, busy0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("windowed utilization %g, want 0.5", got)
	}
}

func TestGateReleaseSpecificWaiter(t *testing.T) {
	k := NewKernel()
	g := NewGate(k, "adm")
	var admitted []int
	for i := 0; i < 3; i++ {
		i := i
		spawnSteps(k, "w", enqueue(g, float64(i), i, 0), then(func(_ *Proc, ok bool) {
			if ok {
				admitted = append(admitted, i)
			}
		}))
	}
	at(k, 1, func() {
		// Admit waiter with Data==1 first, then 0, leave 2 waiting.
		for _, w := range g.Waiters() {
			if w.Data.(int) == 1 {
				g.Release(w)
			}
		}
		for _, w := range g.Waiters() {
			if w.Data.(int) == 0 {
				g.Release(w)
			}
		}
	})
	k.Run(10)
	if len(admitted) != 2 || admitted[0] != 1 || admitted[1] != 0 {
		t.Fatalf("admissions %v, want [1 0]", admitted)
	}
	if g.Len() != 1 {
		t.Fatalf("gate should still hold one waiter, has %d", g.Len())
	}
}

func TestGateInterruptRemovesWaiter(t *testing.T) {
	k := NewKernel()
	g := NewGate(k, "adm")
	p := spawnSteps(k, "w", enqueue(g, 0, nil, 0), then(func(_ *Proc, ok bool) {
		if ok {
			t.Error("wait should report interruption")
		}
	}))
	at(k, 1, func() { p.Interrupt() })
	k.Run(5)
	if g.Len() != 0 {
		t.Fatalf("interrupted waiter not removed; len=%d", g.Len())
	}
}

func TestGateStaleHandleIgnored(t *testing.T) {
	k := NewKernel()
	g := NewGate(k, "adm")
	p := spawnSteps(k, "w", enqueue(g, 0, nil, 0))
	var handle *Waiting
	at(k, 1, func() {
		handle = g.Waiters()[0]
		p.Interrupt() // removes the entry
	})
	at(k, 2, func() {
		if g.Release(handle) {
			t.Error("stale release should report false")
		}
	})
	k.Run(5)
}

// TestGateIterationArrivalOrder is the equal-Prio case of
// TestGatePrioOrder: waiters sharing one priority iterate in arrival
// order, and releasing one from the middle keeps the chain intact.
func TestGateIterationArrivalOrder(t *testing.T) {
	k := NewKernel()
	g := NewGate(k, "adm")
	for i := 0; i < 4; i++ {
		i := i
		spawnSteps(k, "w", enqueue(g, 0, nil, float64(i)))
	}
	at(k, 1, func() {
		var got []float64
		for w := g.First(); w != nil; w = w.Next() {
			got = append(got, w.Val)
		}
		for i, v := range got {
			if v != float64(i) {
				t.Errorf("iteration order %v, want arrival order", got)
				break
			}
		}
		if len(got) != 4 {
			t.Errorf("iterated %d waiters, want 4", len(got))
		}
		// Removing from the middle must keep the chain intact.
		ws := g.Waiters()
		g.Release(ws[1])
		got = got[:0]
		for w := g.First(); w != nil; w = w.Next() {
			got = append(got, w.Val)
		}
		if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
			t.Errorf("after mid-release iteration %v, want [0 2 3]", got)
		}
	})
	k.Drain()
}

// TestGatePrioOrder pins the gate's queue order: waiters with distinct
// priorities iterate in (Prio, arrival) order, equal priorities stay
// FIFO, and MinWaiter is the head. The order must survive an interrupt
// that removes a waiter from the middle, service entry and release of
// the head, and later arrivals.
func TestGatePrioOrder(t *testing.T) {
	k := NewKernel()
	g := NewGate(k, "ed")
	var procs []*Proc
	arrive := func(prio float64) {
		id := float64(len(procs))
		procs = append(procs, spawnSteps(k, "w", enqueue(g, prio, nil, id)))
	}
	for _, prio := range []float64{3, 1, 2, 1, 0, 3, 2, 1} {
		arrive(prio)
	}
	check := func(when string, want ...int) {
		t.Helper()
		var got []int
		for w := g.First(); w != nil; w = w.Next() {
			got = append(got, int(w.Val))
			if n := w.Next(); n != nil && (n.Prio < w.Prio || n.Prio == w.Prio && n.Seq() < w.Seq()) {
				t.Fatalf("%s: waiter %g (prio %g) follows %g (prio %g)", when, n.Val, n.Prio, w.Val, w.Prio)
			}
		}
		if !slices.Equal(got, want) || g.Len() != len(want) {
			t.Fatalf("%s: order %v (len %d), want %v", when, got, g.Len(), want)
		}
		if g.MinWaiter() != g.First() {
			t.Fatalf("%s: MinWaiter is not the head", when)
		}
	}
	k.Run(0) // spawn turns: everyone queues
	check("queued", 4, 1, 3, 7, 2, 6, 0, 5)
	procs[7].Interrupt()
	check("after interrupting 7", 4, 1, 3, 2, 6, 0, 5)
	served := g.First()
	if !g.BeginService(served) {
		t.Fatal("BeginService of the head failed")
	}
	check("after service entry of the head", 1, 3, 2, 6, 0, 5)
	if !g.Release(g.First()) {
		t.Fatal("Release of the head failed")
	}
	check("after releasing the head", 3, 2, 6, 0, 5)
	arrive(1)
	arrive(0)
	arrive(3)
	k.Run(0)
	check("after three more arrivals", 9, 3, 8, 2, 6, 0, 5, 10)
	g.EndService(served)
	for _, p := range procs {
		p.Interrupt()
	}
	k.Drain()
	if g.Len() != 0 || k.LiveProcs() != 0 {
		t.Fatalf("teardown left %d queued, %d live", g.Len(), k.LiveProcs())
	}
}

// roundsFrame queues at g once per round for rounds 0, 1 and 2, with
// the round as priority and payload, and stops at the first
// interrupted wait.
type roundsFrame struct {
	FrameState
	p      *Proc
	g      *Gate
	rounds *int
}

func (f *roundsFrame) Step(m *Machine, ok bool) Status {
	switch {
	case f.PC == 0:
		f.PC = 1
		*f.rounds = 0
	case !ok:
		return m.Return(false)
	default:
		*f.rounds++
	}
	if *f.rounds == 3 {
		return m.Return(true)
	}
	if f.g.Enqueue(f.p, float64(*f.rounds), *f.rounds, 0) {
		return Park
	}
	return m.Return(false)
}

func TestGateEntryRecycledAcrossWaits(t *testing.T) {
	// A process's embedded wait entry is reused wait after wait; each
	// re-queue must present fresh seq/payload and wire into the list.
	k := NewKernel()
	g := NewGate(k, "adm")
	var rounds int
	f := &roundsFrame{g: g, rounds: &rounds}
	f.p = k.Spawn("w", f)
	var seqs []uint64
	release := func() {
		w := g.First()
		if w == nil {
			t.Error("no waiter queued")
			return
		}
		if w.Data.(int) != rounds {
			t.Errorf("payload %v, want %d", w.Data, rounds)
		}
		seqs = append(seqs, w.Seq())
		g.Release(w)
	}
	at(k, 1, release)
	at(k, 2, release)
	at(k, 3, release)
	k.Drain()
	if rounds != 3 {
		t.Fatalf("completed %d waits, want 3", rounds)
	}
	if len(seqs) != 3 || !(seqs[0] < seqs[1] && seqs[1] < seqs[2]) {
		t.Fatalf("arrival seqs %v, want strictly increasing", seqs)
	}
}

func TestGateServiceSection(t *testing.T) {
	k := NewKernel()
	g := NewGate(k, "disk")
	var ok bool
	var resumed float64
	p := spawnSteps(k, "w", enqueue(g, 0, nil, 0), then(func(p *Proc, got bool) {
		ok = got
		resumed = p.Now()
	}))
	at(k, 1, func() {
		w := g.Waiters()[0]
		g.BeginService(w)
		at(k, 9, func() { g.EndService(w) })
	})
	// Interrupt mid-service: must defer to completion.
	at(k, 5, func() { p.Interrupt() })
	k.Drain()
	if ok {
		t.Fatal("deferred interrupt not reported")
	}
	if resumed != 10 {
		t.Fatalf("service should complete at 10, resumed at %g", resumed)
	}
}
