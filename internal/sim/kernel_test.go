package sim

import (
	"fmt"
	"math"
	"testing"
)

func TestKernelOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.At(2, func() { order = append(order, 2) })
	k.At(1, func() { order = append(order, 1) })
	k.At(3, func() { order = append(order, 3) })
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
		k.At(5, func() { order = append(order, i) })
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
	k.At(1, func() { fired++ })
	k.At(2, func() { fired++ })
	k.At(3, func() { fired++ })
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

func TestTimerStop(t *testing.T) {
	k := NewKernel()
	fired := false
	tm := k.At(1, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	k.Drain()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	k := NewKernel()
	tm := k.At(1, func() {})
	k.Drain()
	if tm.Stop() {
		t.Fatal("Stop after firing should report false")
	}
}

func TestTimerStaleAfterSlotReuse(t *testing.T) {
	k := NewKernel()
	var fired []string
	t1 := k.At(1, func() { fired = append(fired, "a") })
	if !t1.Stop() {
		t.Fatal("first Stop should report true")
	}
	// The cancelled event's slot is recycled by the next At; the old
	// timer and the old queue tombstone must not affect the new event.
	t2 := k.At(2, func() { fired = append(fired, "b") })
	if t1.Stop() {
		t.Fatal("stale timer Stop should report false after slot reuse")
	}
	k.Drain()
	if len(fired) != 1 || fired[0] != "b" {
		t.Fatalf("fired %v, want [b]", fired)
	}
	if t2.Stop() {
		t.Fatal("Stop after firing should report false")
	}
}

func TestTimerZeroValue(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Fatal("zero-value timer Stop should report false")
	}
}

func TestZeroDelayOrdersAfterEqualTimeHeapEvents(t *testing.T) {
	k := NewKernel()
	var order []string
	k.At(5, func() {
		order = append(order, "a")
		// Scheduled inside the tick at t=5: must run after the heap
		// event "b" that was scheduled for t=5 long before it.
		k.At(0, func() { order = append(order, "c") })
	})
	k.At(5, func() { order = append(order, "b") })
	k.Drain()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order %v, want [a b c]", order)
	}
}

func TestCancelledZeroDelaySkipped(t *testing.T) {
	k := NewKernel()
	fired := 0
	tm := k.At(0, func() { fired++ })
	k.At(0, func() { fired += 10 })
	if !tm.Stop() {
		t.Fatal("Stop on pending zero-delay event should report true")
	}
	k.Drain()
	if fired != 10 {
		t.Fatalf("fired = %d, want 10 (cancelled lane event must be skipped)", fired)
	}
}

func TestKernelChurnOrdering(t *testing.T) {
	// Heavily mixed schedule/cancel traffic must still fire live events
	// in exact (time, seq) order across the pooled heap and fast lane.
	k := NewKernel()
	type ev struct{ at, idx int }
	var fired []ev
	var timers []Timer
	idx := 0
	for round := 0; round < 50; round++ {
		for j := 0; j < 10; j++ {
			at := (round*7+j*3)%23 + 1
			i := idx
			timers = append(timers, k.At(float64(at), func() { fired = append(fired, ev{at, i}) }))
			idx++
		}
	}
	for i := range timers {
		if i%3 == 0 {
			timers[i].Stop()
		}
	}
	k.Drain()
	if len(fired) == 0 {
		t.Fatal("nothing fired")
	}
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if a.at > b.at || (a.at == b.at && a.idx > b.idx) {
			t.Fatalf("out of order at %d: %+v before %+v", i, a, b)
		}
	}
	for _, e := range fired {
		if e.idx%3 == 0 {
			t.Fatalf("cancelled event %d fired", e.idx)
		}
	}
	if want := 500 - (500+2)/3; len(fired) != want {
		t.Fatalf("fired %d events, want %d", len(fired), want)
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	var times []float64
	k.At(1, func() {
		times = append(times, k.Now())
		k.At(1, func() { times = append(times, k.Now()) })
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
		{"At", func(d float64) { k.At(d, func() {}) }},
		{"AtWake", func(d float64) { k.AtWake(d, task) }},
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
	var at []float64
	var steps []step
	for i := 0; i < 3; i++ {
		steps = append(steps, hold(1.5), then(func(p *Proc, ok bool) {
			if !ok {
				t.Error("unexpected interrupt")
			}
			at = append(at, p.Now())
		}))
	}
	spawnSteps(k, "holder", steps...)
	k.Drain()
	want := []float64{1.5, 3.0, 4.5}
	for i := range want {
		if math.Abs(at[i]-want[i]) > 1e-12 {
			t.Fatalf("hold times %v, want %v", at, want)
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
	k.At(5, func() { p.Wake() })
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
	k.At(7, func() { p.Interrupt() })
	k.Drain()
	if interruptedAt != 7 {
		t.Fatalf("interrupted at %g, want 7", interruptedAt)
	}
}

func TestInterruptDuringPark(t *testing.T) {
	k := NewKernel()
	got := make(chan bool, 1)
	p := spawnSteps(k, "victim", park(), then(func(_ *Proc, ok bool) { got <- ok }))
	k.At(1, func() { p.Interrupt() })
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
	k.At(1, func() { p.Wake(); p.Wake() })
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
	k.At(1, func() { p.Wake() }) // must be a no-op: Wake only ends Park
	k.Drain()
	if resumedAt != 10 {
		t.Fatalf("hold ended at %g, want 10 (Wake must not cut holds short)", resumedAt)
	}
}

func TestInterruptWhileRunningDefersToNextBlock(t *testing.T) {
	k := NewKernel()
	var first, second bool
	spawnSteps(k, "self",
		hold(1),
		// Interrupt arrives while running (delivered synchronously here).
		then(func(p *Proc, _ bool) { p.Interrupt() }),
		hold(1), // should consume the pending interrupt
		then(func(_ *Proc, ok bool) { first = ok }),
		hold(1), // should proceed normally
		then(func(_ *Proc, ok bool) { second = ok }),
	)
	k.Drain()
	if first {
		t.Fatal("pending interrupt not delivered at next blocking point")
	}
	if !second {
		t.Fatal("interrupt incorrectly persisted past one delivery")
	}
}
