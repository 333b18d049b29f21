package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestTimedOrderConformance is a randomized stress of the full event
// queue against a reference model: events with delays spanning twelve
// orders of magnitude, a third of them cancelled, must fire in exactly
// the (time, seq) order a sorted list predicts. This exercises heap
// ordering, equal-time ties and tombstone sweeps together.
func TestTimedOrderConformance(t *testing.T) {
	type ref struct {
		at  float64
		seq int
	}
	rng := rand.New(rand.NewSource(7))
	// Delay magnitudes from centiseconds to centuries.
	mags := []float64{0.01, 0.4, 3, 70, 4000, 300000, 2e8, 5e9}
	for round := 0; round < 20; round++ {
		k := NewKernel()
		var fired []int
		var model []ref
		var timers []Timer
		seq := 0
		n := 100 + rng.Intn(200)
		var delays []float64
		for i := 0; i < n; i++ {
			var d float64
			if len(delays) > 0 && rng.Intn(4) == 0 {
				// Reuse an earlier delay bit for bit: equal-time events
				// must tie-break on sequence.
				d = delays[rng.Intn(len(delays))]
			} else {
				d = mags[rng.Intn(len(mags))] * (0.5 + rng.Float64())
			}
			delays = append(delays, d)
			at := d // scheduled from time 0
			id := seq
			timers = append(timers, k.At(d, func() { fired = append(fired, id) }))
			model = append(model, ref{at: at, seq: id})
			seq++
		}
		cancelled := map[int]bool{}
		for i := range timers {
			if rng.Intn(3) == 0 {
				timers[i].Stop()
				cancelled[i] = true
			}
		}
		var want []ref
		for _, m := range model {
			if !cancelled[m.seq] {
				want = append(want, m)
			}
		}
		sort.Slice(want, func(a, b int) bool {
			if want[a].at != want[b].at {
				return want[a].at < want[b].at
			}
			return want[a].seq < want[b].seq
		})
		k.Drain()
		if len(fired) != len(want) {
			t.Fatalf("round %d: fired %d events, want %d", round, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i].seq {
				t.Fatalf("round %d: position %d fired seq %d, want %d", round, i, fired[i], want[i].seq)
			}
		}
	}
}

// TestEqualTimeSeqOrder pins sequence order among equal-time events
// that later-scheduled earlier events overtake: two events with the
// exact same time are pending when two earlier ones arrive, and the
// pair must still fire in sequence order after them. A cancelled
// event's tombstone is consumed on the way.
func TestEqualTimeSeqOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	at := func(d float64, id int) { k.At(d, func() { order = append(order, id) }) }
	// Two early events, then two events a second later.
	at(0.1, 0)
	at(0.2, 1)
	at(1.05, 2)
	e3 := k.At(1.07, func() { order = append(order, 3) })
	k.Step() // 0
	k.Step() // 1
	k.Step() // 2
	e3.Stop()
	k.Step() // drops the tombstone, fires nothing
	// Two equal-time events (4 has the earlier seq)…
	at(0.005, 4)
	at(0.005, 5)
	// …and two earlier events scheduled after them.
	at(0.001, 6)
	at(0.002, 7)
	k.Drain()
	want := []int{0, 1, 2, 6, 7, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v (equal-time events out of seq order)", order, want)
		}
	}
}

// TestNestedMixedScheduling schedules from inside event callbacks at mixed
// magnitudes, so inserts land just after the current time, between
// pending events, and far beyond them while the queue is mid drain.
func TestNestedMixedScheduling(t *testing.T) {
	k := NewKernel()
	var order []string
	k.At(100, func() {
		order = append(order, "a")
		k.At(0.001, func() { order = append(order, "a+eps") })
		k.At(0.5, func() { order = append(order, "a+0.5") })
		k.At(50000, func() { order = append(order, "a+50000") })
	})
	k.At(100.25, func() { order = append(order, "b") })
	k.At(101, func() { order = append(order, "c") })
	k.Drain()
	want := []string{"a", "a+eps", "b", "a+0.5", "c", "a+50000"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestFarFutureOrdering pins events ~160 simulated years ahead: they
// fire in time order after every near event, and a cancelled one never
// fires even once the clock reaches its neighborhood.
func TestFarFutureOrdering(t *testing.T) {
	k := NewKernel()
	var order []string
	k.At(5e9, func() { order = append(order, "far-b") })
	k.At(4.9e9, func() { order = append(order, "far-a") })
	tm := k.At(4.95e9, func() { order = append(order, "far-cancelled") })
	k.At(1, func() { order = append(order, "near") })
	if !tm.Stop() {
		t.Fatal("Stop on pending far event should report true")
	}
	k.Drain()
	want := []string{"near", "far-a", "far-b"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// TestFarHeapCompaction cancels far-future events in bulk and checks
// that the periodic compaction actually bounds the heap's tombstones.
func TestFarHeapCompaction(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	for i := 0; i < 1000; i++ {
		tm := k.At(5e9+float64(i), fn)
		tm.Stop()
	}
	if len(k.heap) > 2*compactMin {
		t.Fatalf("heap holds %d entries after cancelling all; compaction failed", len(k.heap))
	}
	k.At(6e9, fn)
	k.Drain()
	if k.Now() != 6e9 {
		t.Fatalf("clock = %g, want 6e9", k.Now())
	}
}

// TestEqualTimeNestedInsert pins the tie between an event scheduled
// long ahead and one scheduled moments before, from inside a handler,
// for exactly the same time: the earlier-scheduled one fires first.
func TestEqualTimeNestedInsert(t *testing.T) {
	k := NewKernel()
	var order []int
	k.At(256, func() { order = append(order, 0) })
	// 255.9 + 0.1 rounds to exactly 256.
	k.At(255.9, func() {
		k.At(0.1, func() { order = append(order, 1) })
	})
	k.Drain()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("order %v, want [0 1] (earlier seq first)", order)
	}
}

// TestDescendingInsertCancel schedules a burst of timers in
// descending-time order, each one the new earliest, then cancels the
// two earliest: the rest fire in time order.
func TestDescendingInsertCancel(t *testing.T) {
	k := NewKernel()
	var order []int
	var timers []Timer
	for i := 0; i < 10; i++ {
		at := float64(10 - i)
		id := i
		timers = append(timers, k.At(at, func() { order = append(order, id) }))
	}
	// Cancel the two earliest events.
	timers[9].Stop() // at=1
	timers[8].Stop() // at=2
	k.Drain()
	want := []int{7, 6, 5, 4, 3, 2, 1, 0} // at=3..10 in time order
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestLaneShrinksAfterBurst pins the lane-ring fix: a one-off burst of
// zero-delay events must not pin its high-water backing array forever —
// once drained back to small steady-state cycles, the retained capacity
// drops.
func TestLaneShrinksAfterBurst(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	const burst = 100000
	for i := 0; i < burst; i++ {
		k.At(0, fn)
	}
	k.Drain()
	// The first small cycle after the burst is evidence the high-water
	// capacity is no longer needed; its drain must release the backing
	// array instead of pinning ~2.3 MB for the rest of the run.
	for i := 0; i < 100; i++ {
		k.At(0, fn)
		k.Step()
	}
	if got := cap(k.lane); got > laneShrinkCap {
		t.Fatalf("lane capacity %d after steady state, want ≤ %d", got, laneShrinkCap)
	}
	// A sustained large lane, by contrast, keeps its capacity: no
	// shrink thrash while bursts are the steady state.
	for i := 0; i < 10*laneShrinkCap; i++ {
		k.At(0, fn)
	}
	k.Drain()
	before := cap(k.lane)
	for i := 0; i < 10*laneShrinkCap; i++ {
		k.At(0, fn)
	}
	k.Drain()
	if got := cap(k.lane); got != before {
		t.Fatalf("sustained burst capacity changed %d → %d; shrink is thrashing", before, got)
	}
}

// TestExtremeTimesOrdered schedules events at astronomically distant
// times, with a tie: they fire in exact (time, seq) order.
func TestExtremeTimesOrdered(t *testing.T) {
	k := NewKernel()
	var order []string
	k.At(1e18, func() { order = append(order, "b") })
	k.At(5e17, func() { order = append(order, "a") })
	k.At(1e18, func() { order = append(order, "c") }) // ties b on time, later seq
	k.At(1, func() { order = append(order, "near") })
	k.Drain()
	want := []string{"near", "a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestRunUntilKeepsPending pins Run's peek at the heap's root: the
// clock must stop exactly at `until` with later events still pending.
func TestRunUntilKeepsPending(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.At(5, func() { fired++ })
	k.At(15, func() { fired++ })
	k.Run(10)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if k.Now() != 10 {
		t.Fatalf("clock = %g, want 10", k.Now())
	}
	k.Run(20)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// fuzzDelays are the delays FuzzTimedQueue schedules at: zero (the
// lane), a microsecond to an hour, and 2^27 s, years past every other.
// An index of len(fuzzDelays) repeats a pending event's time instead.
var fuzzDelays = [...]float64{0, 1e-6, 1.0 / 16, 1, 3600, 1 << 27}

// abortSink passes the sequence number of every dispatched deadline
// abort to fired; everything else it observes is ignored.
type abortSink func(seq uint64)

func (s abortSink) Dispatch(_ float64, seq uint64, kind uint8, _ int32) {
	if kind == evInterrupt {
		s(seq)
	}
}
func (abortSink) Cancel(float64, uint64)                    {}
func (abortSink) WaitBegin(float64, string, int32, float64) {}
func (abortSink) WaitEnd(float64, string, int32)            {}
func (abortSink) TaskName(int32, string)                    {}

// FuzzTimedQueue drives the kernel with At, AtInterrupt, Stop, Step,
// Run and events that schedule more events from their handlers, and
// checks it against a reference that keeps every event in a list: each
// event must be the pending event earliest in (at, seq) order and fire
// at its own time, every event never stopped fires, Stop reports
// whether its event was still pending, and Steps counts the events
// fired. Deadline aborts wait in a heap of their own, so the check
// covers the pick between the two heaps' roots, compaction across both,
// and root reads that skip the slot check while no tombstone can be
// pending. An abort interrupts a task that has already finished, which
// does nothing; a sink observes its dispatch.
//
// The input is read as (op, arg) byte pairs:
//
//	0: At(delay arg)
//	1: At(delay arg), whose handler calls At(delay arg>>4)
//	2: Stop the timer of event arg (mod the events scheduled so far)
//	3: Step
//	4: Run(now + delay arg)
//	5: AtInterrupt(delay arg)
func FuzzTimedQueue(f *testing.F) {
	for _, seed := range timedQueueSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		k := NewKernel()
		target := k.SpawnInline("target", &Script{})
		k.Drain() // the target finishes in its spawn turn
		type event struct {
			at    float64
			child int  // fuzzDelays index its handler schedules at, or -1
			done  bool // fired or stopped
		}
		// Every event takes the next sequence number, so the index of an
		// event orders it among equal times.
		var evs []event
		var timers []Timer
		aborts := map[uint64]int{} // abort seq → event index
		now, fired := k.Now(), k.Steps()
		// next returns the pending event earliest in (at, seq) order,
		// or -1.
		next := func() int {
			best := -1
			for i, e := range evs {
				if !e.done && (best < 0 || e.at < evs[best].at) {
					best = i
				}
			}
			return best
		}
		var schedule func(delay float64, child int, abort bool)
		fire := func(id int) {
			if want := next(); want != id {
				t.Fatalf("event %d (at %g) fired, want event %d", id, evs[id].at, want)
			}
			if k.Now() != evs[id].at {
				t.Fatalf("event %d fired at %g, want %g", id, k.Now(), evs[id].at)
			}
			evs[id].done = true
			now = evs[id].at
			fired++
			if c := evs[id].child; c >= 0 {
				schedule(fuzzDelays[c], -1, false)
			}
		}
		k.SetSink(abortSink(func(seq uint64) { fire(aborts[seq]) }))
		schedule = func(delay float64, child int, abort bool) {
			id := len(evs)
			evs = append(evs, event{at: now + delay, child: child})
			if abort {
				tm := k.AtInterrupt(delay, target)
				aborts[tm.seq] = id
				timers = append(timers, tm)
				return
			}
			timers = append(timers, k.At(delay, func() { fire(id) }))
		}
		delay := func(arg int) float64 {
			if i := arg % (len(fuzzDelays) + 1); i < len(fuzzDelays) {
				return fuzzDelays[i]
			}
			// Repeat a pending event's time, to force a tie.
			var pending []int
			for j, e := range evs {
				if !e.done {
					pending = append(pending, j)
				}
			}
			if len(pending) == 0 {
				return 0
			}
			return evs[pending[arg%len(pending)]].at - now
		}
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 6 {
			case 0:
				schedule(delay(arg), -1, false)
			case 1:
				schedule(delay(arg), (arg>>4)%len(fuzzDelays), false)
			case 2:
				if len(timers) == 0 {
					continue
				}
				j := arg % len(timers)
				if got, want := timers[j].Stop(), !evs[j].done; got != want {
					t.Fatalf("Stop of event %d = %v, want %v", j, got, want)
				}
				evs[j].done = true
			case 3:
				want := next() >= 0
				if got := k.Step(); got != want {
					t.Fatalf("Step = %v, want %v", got, want)
				}
			case 4:
				until := now + fuzzDelays[arg%len(fuzzDelays)]
				k.Run(until)
				if w := next(); w >= 0 && evs[w].at <= until {
					t.Fatalf("Run(%g) returned with event %d pending at %g", until, w, evs[w].at)
				}
				now = max(now, until)
			case 5:
				schedule(delay(arg), -1, true)
			}
			if k.Now() != now || k.Steps() != fired {
				t.Fatalf("after op %d: Now %g, Steps %d; want %g, %d", i/2, k.Now(), k.Steps(), now, fired)
			}
		}
		k.Drain()
		if w := next(); w >= 0 {
			t.Fatalf("event %d (at %g) never fired", w, evs[w].at)
		}
		if k.Steps() != fired {
			t.Fatalf("Steps %d, want %d", k.Steps(), fired)
		}
	})
}

// timedQueueSeeds encodes FuzzTimedQueue inputs after the patterns of
// TestTimedOrderConformance, plus compaction, nesting and deadline
// backlog patterns.
func timedQueueSeeds() [][]byte {
	rng := rand.New(rand.NewSource(7))
	var seeds [][]byte
	// Schedule a burst from time 0 with ties, stop about a third, then
	// run past everything.
	for round := 0; round < 4; round++ {
		var b []byte
		n := 40 + rng.Intn(60)
		for i := 0; i < n; i++ {
			b = append(b, 0, byte(rng.Intn(len(fuzzDelays)+1)))
		}
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				b = append(b, 2, byte(i))
			}
		}
		seeds = append(seeds, append(b, 4, 5))
	}
	// Stop most of 64 distant events, so the heap compacts, then step
	// through the rest interleaved with near events.
	var b []byte
	for i := 0; i < 64; i++ {
		b = append(b, 0, 5)
	}
	for i := 0; i < 48; i++ {
		b = append(b, 2, byte(i))
	}
	for i := 0; i < 20; i++ {
		b = append(b, 0, byte(1+i%3), 3, 0)
	}
	seeds = append(seeds, append(b, 4, 5))
	// Handlers that schedule more events, with steps and short runs in
	// between.
	b = nil
	for i := 0; i < 30; i++ {
		b = append(b, 1, byte(rng.Intn(256)), byte(rng.Intn(5)), byte(rng.Intn(256)))
	}
	seeds = append(seeds, b)
	// A backlog of 40 deadline aborts an hour and more ahead, some tied
	// to each other, under churn of near events that each fire before
	// the next is scheduled. Along the way a zero-delay event and an
	// abort are stopped now and then (a lane and a heap tombstone), near
	// events tie with pending ones across the two heaps, and finally
	// most aborts are stopped, so both heaps compact, before the churn
	// resumes and a run drains everything.
	for round := 0; round < 2; round++ {
		b = nil
		n := 0 // events scheduled
		sched := func(op, arg byte) {
			b = append(b, op, arg)
			n++
		}
		for i := 0; i < 40; i++ {
			sched(5, byte(4+rng.Intn(3))) // an hour, 2^27 s or a tie
		}
		churn := func(steps int) {
			for i := 0; i < steps; i++ {
				sched(0, byte(1+rng.Intn(3)))
				b = append(b, 3, 0)
				switch rng.Intn(8) {
				case 0:
					sched(0, 0)
					b = append(b, 2, byte(n-1)) // stop it in the lane
				case 1:
					b = append(b, 2, byte(rng.Intn(40))) // stop an abort
				case 2:
					sched(0, 6) // tie a near event to a pending time
				}
			}
		}
		churn(60)
		for i := 0; i < 40; i++ {
			if i%4 != 0 {
				b = append(b, 2, byte(i))
			}
		}
		churn(30)
		seeds = append(seeds, append(b, 4, 5))
	}
	// Aborts and near events stopped and then stepped past, so every
	// tombstone is dropped at a root and root reads go back to trusting
	// the roots; then an abort tied to the one pending near event, which
	// fires second, and more of both, stepped through.
	b = nil
	for i := 0; i < 8; i++ {
		b = append(b, 5, 3, 0, 2)
	}
	b = append(b, 2, 0, 2, 3, 2, 4, 2, 9)
	for i := 0; i < 16; i++ {
		b = append(b, 3, 0)
	}
	b = append(b, 0, 3, 5, 6, 3, 0, 3, 0)
	for i := 0; i < 8; i++ {
		b = append(b, 5, byte(1+i%4), 0, byte(6-i%2), 3, 0)
	}
	return append(seeds, append(b, 4, 5))
}
