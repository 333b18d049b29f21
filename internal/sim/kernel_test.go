package sim

import (
	"fmt"
	"math"
	"testing"
)

// at schedules fn after delay simulated seconds, as simtest.At does
// for the packages built on this one (simtest imports sim).
func at(k *Kernel, delay float64, fn func()) {
	k.AtComplete(delay, k.RegisterCompleter(completerFunc(fn)), true)
}

// completerFunc is a Completer that runs a function.
type completerFunc func()

func (f completerFunc) Complete(bool) { f() }

func TestKernelOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	at(k, 2, func() { order = append(order, 2) })
	at(k, 1, func() { order = append(order, 1) })
	at(k, 3, func() { order = append(order, 3) })
	k.Drain()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if k.Now() != 3 {
		t.Fatalf("clock = %g, want 3", k.Now())
	}
}

func TestKernelFIFOTies(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		at(k, 5, func() { order = append(order, i) })
	}
	k.Drain()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken out of scheduling order: %v", order)
		}
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	fired := 0
	at(k, 1, func() { fired++ })
	at(k, 2, func() { fired++ })
	at(k, 3, func() { fired++ })
	k.Run(2)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (event at exactly `until` must run)", fired)
	}
	if k.Now() != 2 {
		t.Fatalf("clock = %g, want 2", k.Now())
	}
	k.Run(10)
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
	// With no events left the clock advances to `until`.
	if k.Now() != 10 {
		t.Fatalf("clock = %g, want 10", k.Now())
	}
}

func TestZeroDelayOrdersAfterEqualTimeHeapEvents(t *testing.T) {
	k := NewKernel()
	var order []string
	at(k, 5, func() {
		order = append(order, "a")
		// Scheduled inside the tick at t=5: must run after the heap
		// event "b" that was scheduled for t=5 long before it.
		at(k, 0, func() { order = append(order, "c") })
	})
	at(k, 5, func() { order = append(order, "b") })
	k.Drain()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order %v, want [a b c]", order)
	}
}

// TestCancelledZeroDelaySkipped: a zero-delay hold files its wake in
// the lane, and an interrupt in the same instant ends the hold before
// the wake comes up. The lane drops the wake, firing nothing and
// counting no step, and the zero-delay event queued behind it fires.
func TestCancelledZeroDelaySkipped(t *testing.T) {
	k := NewKernel()
	var resumed []bool
	p := spawnSteps(k, "holder", hold(0), then(func(_ *Proc, ok bool) { resumed = append(resumed, ok) }))
	k.Step() // spawn turn: the wake of hold(0) enters the lane
	fired := false
	at(k, 0, func() { fired = true })
	p.Interrupt()
	k.Drain()
	if !fired || len(resumed) != 1 || resumed[0] {
		t.Fatalf("fired=%v resumed=%v; want true [false]", fired, resumed)
	}
	// Spawn turn, the event, and the turn the interrupt scheduled.
	if k.Steps() != 3 || k.Now() != 0 {
		t.Fatalf("steps=%d now=%g; want 3, 0 (the dropped wake counts no step)", k.Steps(), k.Now())
	}
}

func TestKernelChurnOrdering(t *testing.T) {
	// Heavily mixed schedule traffic must fire every event in exact
	// (time, seq) order.
	k := NewKernel()
	type ev struct{ at, idx int }
	var fired []ev
	idx := 0
	for round := 0; round < 50; round++ {
		for j := 0; j < 10; j++ {
			when := (round*7+j*3)%23 + 1
			i := idx
			at(k, float64(when), func() { fired = append(fired, ev{when, i}) })
			idx++
		}
	}
	k.Drain()
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if a.at > b.at || (a.at == b.at && a.idx > b.idx) {
			t.Fatalf("out of order at %d: %+v before %+v", i, a, b)
		}
	}
	if len(fired) != 500 {
		t.Fatalf("fired %d events, want 500", len(fired))
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	var times []float64
	at(k, 1, func() {
		times = append(times, k.Now())
		at(k, 1, func() { times = append(times, k.Now()) })
	})
	k.Drain()
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("nested scheduling wrong: %v", times)
	}
}

// TestNegativeDelayPanics: every entry point that schedules after a
// delay panics on a negative or NaN one, since a NaN time would break
// the queue's order.
func TestNegativeDelayPanics(t *testing.T) {
	k := NewKernel()
	task := k.Spawn("t", &warmStartFrame{})
	srv := NewServer(k, "cpu")
	entries := []struct {
		name string
		call func(d float64)
	}{
		{"AtInterrupt", func(d float64) { k.AtInterrupt(d, task) }},
		{"AtComplete", func(d float64) { k.AtComplete(d, 0, true) }},
		{"StartHold", func(d float64) { task.StartHold(d) }},
		{"StartUse", func(d float64) { srv.StartUse(task, 0, d) }},
	}
	for _, e := range entries {
		for _, d := range []float64{-1, math.NaN()} {
			t.Run(fmt.Sprintf("%s(%g)", e.name, d), func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s(%g) did not panic", e.name, d)
					}
				}()
				e.call(d)
			})
		}
	}
}

func TestHoldAdvancesTime(t *testing.T) {
	k := NewKernel()
	var ends []float64
	var steps []step
	for i := 0; i < 3; i++ {
		steps = append(steps, hold(1.5), then(func(p *Proc, ok bool) {
			if !ok {
				t.Error("unexpected interrupt")
			}
			ends = append(ends, p.Now())
		}))
	}
	spawnSteps(k, "holder", steps...)
	k.Drain()
	want := []float64{1.5, 3.0, 4.5}
	for i := range want {
		if math.Abs(ends[i]-want[i]) > 1e-12 {
			t.Fatalf("hold times %v, want %v", ends, want)
		}
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("leaked %d processes", k.LiveProcs())
	}
}

func TestInterleavedProcsDeterministic(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var trace []string
		holds := func(dt float64, name string) []step {
			var steps []step
			for i := 0; i < 3; i++ {
				steps = append(steps, hold(dt), then(func(*Proc, bool) { trace = append(trace, name) }))
			}
			return steps
		}
		spawnSteps(k, "a", holds(2, "a")...)
		spawnSteps(k, "b", holds(3, "b")...)
		k.Drain()
		return trace
	}
	first := run()
	for i := 0; i < 20; i++ {
		got := run()
		for j := range first {
			if got[j] != first[j] {
				t.Fatalf("nondeterministic trace: %v vs %v", first, got)
			}
		}
	}
}

func TestParkWake(t *testing.T) {
	k := NewKernel()
	woke := false
	p := spawnSteps(k, "sleeper", park(), then(func(_ *Proc, ok bool) {
		if !ok {
			t.Error("park reported interrupt")
		}
		woke = true
	}))
	at(k, 5, func() { p.Wake() })
	k.Drain()
	if !woke {
		t.Fatal("process never woke")
	}
	if k.Now() != 5 {
		t.Fatalf("woke at %g, want 5", k.Now())
	}
}

func TestInterruptDuringHold(t *testing.T) {
	k := NewKernel()
	var interruptedAt float64 = -1
	p := spawnSteps(k, "victim", hold(100), then(func(p *Proc, ok bool) {
		if ok {
			t.Error("hold should have been interrupted")
		}
		interruptedAt = p.Now()
	}))
	at(k, 7, func() { p.Interrupt() })
	k.Drain()
	if interruptedAt != 7 {
		t.Fatalf("interrupted at %g, want 7", interruptedAt)
	}
}

// TestInterruptedHoldWakeDropped: an interrupt ends a hold at once and
// leaves its wake queued. When the wake comes up, the process waits in
// a later hold whose wake has another sequence number, so the stale
// wake is dropped: it fires nothing, reaches no sink, counts no step
// and does not move the clock, and the later hold runs its full length.
func TestInterruptedHoldWakeDropped(t *testing.T) {
	k := NewKernel()
	var wakes, cancels int
	k.SetSink(&hookSink{
		dispatch: func(_ float64, _ uint64, kind uint8, _ int32) {
			if kind == evWake {
				wakes++
			}
		},
		cancel: func(uint64) { cancels++ },
	})
	var ends []float64
	var oks []bool
	record := then(func(p *Proc, ok bool) {
		ends = append(ends, p.Now())
		oks = append(oks, ok)
	})
	p := spawnSteps(k, "holder", hold(5), record, hold(10), record)
	at(k, 1, func() { p.Interrupt() })
	k.Drain()
	if len(ends) != 2 || ends[0] != 1 || oks[0] || ends[1] != 11 || !oks[1] {
		t.Fatalf("holds ended at %v with ok %v; want [1 11] and [false true]", ends, oks)
	}
	// Spawn turn, interrupt, its turn, the second hold's wake, its turn.
	if wakes != 1 || cancels != 1 || k.Steps() != 5 {
		t.Fatalf("wakes=%d cancels=%d steps=%d; want 1, 1, 5", wakes, cancels, k.Steps())
	}
}

func TestInterruptDuringPark(t *testing.T) {
	k := NewKernel()
	got := make(chan bool, 1)
	p := spawnSteps(k, "victim", park(), then(func(_ *Proc, ok bool) { got <- ok }))
	at(k, 1, func() { p.Interrupt() })
	k.Drain()
	if ok := <-got; ok {
		t.Fatal("park should report interruption")
	}
}

func TestInterruptDeadProcIsNoop(t *testing.T) {
	k := NewKernel()
	p := k.Spawn("quick", &Script{})
	k.Drain()
	if !p.Dead() {
		t.Fatal("process should be dead")
	}
	p.Interrupt() // must not panic or deadlock
	k.Drain()
}

func TestWakeDoubleDeliverOnce(t *testing.T) {
	k := NewKernel()
	count := 0
	p := spawnSteps(k, "sleeper", park(), then(func(*Proc, bool) { count++ }))
	at(k, 1, func() { p.Wake(); p.Wake() })
	k.Drain()
	if count != 1 {
		t.Fatalf("process resumed %d times, want 1", count)
	}
}

func TestWakeDoesNotDisturbHold(t *testing.T) {
	k := NewKernel()
	var resumedAt float64
	p := spawnSteps(k, "sleeper", hold(10), then(func(p *Proc, ok bool) {
		if !ok {
			t.Error("hold interrupted unexpectedly")
		}
		resumedAt = p.Now()
	}))
	at(k, 1, func() { p.Wake() }) // must be a no-op: Wake only ends Park
	k.Drain()
	if resumedAt != 10 {
		t.Fatalf("hold ended at %g, want 10 (Wake must not cut holds short)", resumedAt)
	}
}

func TestInterruptWhileRunningDefersToNextBlock(t *testing.T) {
	k := NewKernel()
	var first, second bool
	var firstAt, secondAt float64
	spawnSteps(k, "self",
		hold(1),
		// Interrupt arrives while running (delivered synchronously here).
		then(func(p *Proc, _ bool) { p.Interrupt() }),
		hold(1), // should consume the pending interrupt, arming nothing
		then(func(_ *Proc, ok bool) { first, firstAt = ok, k.Now() }),
		hold(1), // should proceed normally
		then(func(_ *Proc, ok bool) { second, secondAt = ok, k.Now() }),
	)
	k.Drain()
	if first {
		t.Fatal("pending interrupt not delivered at next blocking point")
	}
	if firstAt != 1 {
		t.Fatalf("interrupted hold ended at t=%g, want 1: the pending interrupt must end it at once", firstAt)
	}
	if !second {
		t.Fatal("interrupt incorrectly persisted past one delivery")
	}
	if secondAt != 2 {
		t.Fatalf("following hold ended at t=%g, want 2", secondAt)
	}
}
