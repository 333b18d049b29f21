package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestTimedOrderConformance is a randomized stress of the full event
// queue against a reference model: events with delays spanning twelve
// orders of magnitude must fire in exactly the (time, seq) order a
// sorted list predicts. This exercises heap ordering and equal-time
// ties together.
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
		var want []ref
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
			id := i
			at(k, d, func() { fired = append(fired, id) })
			want = append(want, ref{at: d, seq: id}) // scheduled from time 0
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
// pair must still fire in sequence order after them.
func TestEqualTimeSeqOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	sched := func(d float64, id int) { at(k, d, func() { order = append(order, id) }) }
	// Three early events.
	sched(0.1, 0)
	sched(0.2, 1)
	sched(1.05, 2)
	k.Step() // 0
	k.Step() // 1
	k.Step() // 2
	// Two equal-time events (3 has the earlier seq)…
	sched(0.005, 3)
	sched(0.005, 4)
	// …and two earlier events scheduled after them.
	sched(0.001, 5)
	sched(0.002, 6)
	k.Drain()
	want := []int{0, 1, 2, 5, 6, 3, 4}
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
	at(k, 100, func() {
		order = append(order, "a")
		at(k, 0.001, func() { order = append(order, "a+eps") })
		at(k, 0.5, func() { order = append(order, "a+0.5") })
		at(k, 50000, func() { order = append(order, "a+50000") })
	})
	at(k, 100.25, func() { order = append(order, "b") })
	at(k, 101, func() { order = append(order, "c") })
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
// fire in time order after every near event.
func TestFarFutureOrdering(t *testing.T) {
	k := NewKernel()
	var order []string
	at(k, 5e9, func() { order = append(order, "far-b") })
	at(k, 4.9e9, func() { order = append(order, "far-a") })
	at(k, 1, func() { order = append(order, "near") })
	k.Drain()
	want := []string{"near", "far-a", "far-b"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// TestEqualTimeNestedInsert pins the tie between an event scheduled
// long ahead and one scheduled moments before, from inside a handler,
// for exactly the same time: the earlier-scheduled one fires first.
func TestEqualTimeNestedInsert(t *testing.T) {
	k := NewKernel()
	var order []int
	at(k, 256, func() { order = append(order, 0) })
	// 255.9 + 0.1 rounds to exactly 256.
	at(k, 255.9, func() {
		at(k, 0.1, func() { order = append(order, 1) })
	})
	k.Drain()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("order %v, want [0 1] (earlier seq first)", order)
	}
}

// TestDescendingInsertCancel schedules a burst of events in
// descending-time order, each one the new earliest: they fire in time
// order.
func TestDescendingInsertCancel(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		id := i
		at(k, float64(10-i), func() { order = append(order, id) })
	}
	k.Drain()
	want := []int{9, 8, 7, 6, 5, 4, 3, 2, 1, 0} // at=1..10 in time order
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
	comp := k.RegisterCompleter(nopCompleter{})
	const burst = 100000
	for i := 0; i < burst; i++ {
		k.AtComplete(0, comp, false)
	}
	k.Drain()
	// The first small cycle after the burst is evidence the high-water
	// capacity is no longer needed; its drain must release the backing
	// array instead of pinning ~2.3 MB for the rest of the run.
	for i := 0; i < 100; i++ {
		k.AtComplete(0, comp, false)
		k.Step()
	}
	if got := cap(k.lane); got > laneShrinkCap {
		t.Fatalf("lane capacity %d after steady state, want ≤ %d", got, laneShrinkCap)
	}
	// A sustained large lane, by contrast, keeps its capacity: no
	// shrink thrash while bursts are the steady state.
	for i := 0; i < 10*laneShrinkCap; i++ {
		k.AtComplete(0, comp, false)
	}
	k.Drain()
	before := cap(k.lane)
	for i := 0; i < 10*laneShrinkCap; i++ {
		k.AtComplete(0, comp, false)
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
	at(k, 1e18, func() { order = append(order, "b") })
	at(k, 5e17, func() { order = append(order, "a") })
	at(k, 1e18, func() { order = append(order, "c") }) // ties b on time, later seq
	at(k, 1, func() { order = append(order, "near") })
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
	at(k, 5, func() { fired++ })
	at(k, 15, func() { fired++ })
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

// hookSink passes every dispatch and every hold cancel it observes to
// its hooks; gate transitions and task names are ignored.
type hookSink struct {
	dispatch func(at float64, seq uint64, kind uint8, arg int32)
	cancel   func(seq uint64)
}

func (s *hookSink) Dispatch(at float64, seq uint64, kind uint8, arg int32) {
	s.dispatch(at, seq, kind, arg)
}
func (s *hookSink) Cancel(_ float64, seq uint64)            { s.cancel(seq) }
func (*hookSink) WaitBegin(float64, string, int32, float64) {}
func (*hookSink) WaitEnd(float64, string, int32)            {}
func (*hookSink) TaskName(int32, string)                    {}

// holderFrame parks idle until woken, then holds for hold seconds, and
// parks idle again once the hold runs out or is interrupted. It
// reports each hold it arms to armed. FuzzTimedQueue never leaves an
// interrupt pending, so both waits are always entered.
type holderFrame struct {
	FrameState
	p     *Proc
	hold  float64
	armed func()
}

func (f *holderFrame) Step(m *Machine, ok bool) Status {
	f.PC ^= 1
	if f.PC == 1 {
		f.p.StartPark()
	} else {
		f.p.StartHold(f.hold)
		f.armed()
	}
	return Park
}

// FuzzTimedQueue drives the kernel with timed and zero-delay events,
// deadline aborts, Step, Run, events that schedule more events from
// their handlers, and a holder process whose holds are woken and
// interrupted, and checks it against a reference that keeps every
// event in a list. Each event must be the pending event earliest in
// (at, seq) order and fire at its own time, every event takes the next
// sequence number, and Steps counts the events fired. The reference
// observes turns, wakes and hold cancels through a sink and mirrors
// them in sequence order. An interrupted hold leaves its wake queued,
// and the reference keeps it pending but dropped: when it comes up, it
// must fire nothing, count no step and leave the clock alone; Step must
// report true for consuming it; Run must consume every dropped wake up
// to its bound; and no dropped wake may end a later hold. After every
// op the kernel must queue exactly the events the reference has
// pending. Deadline aborts wait in a heap of their own, so the check
// covers the pick between the two heaps' roots. An abort interrupts a
// task that has already finished, which does nothing.
//
// The input is read as (op, arg) byte pairs:
//
//	0: schedule an event after delay arg
//	1: the same, whose handler schedules one after delay arg>>4
//	2: interrupt the holder's hold, or wake it idle to hold for delay arg
//	3: Step
//	4: Run(now + delay arg)
//	5: AtInterrupt(delay arg)
func FuzzTimedQueue(f *testing.F) {
	for _, seed := range timedQueueSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		k := NewKernel()
		target := k.Spawn("target", &Script{})
		holder := &holderFrame{}
		holder.p = k.Spawn("holder", holder)
		k.Drain() // the target finishes; the holder parks idle
		type event struct {
			at      float64
			child   int  // fuzzDelays index its handler schedules at, or -1
			dropped bool // a wake whose hold an interrupt ended
			done    bool // fired or, if dropped, consumed
		}
		// Every event takes the next sequence number, so seq-seq0 is its
		// index, and the index orders it among equal times.
		var evs []event
		seq0 := k.seq
		now, fired := k.Now(), k.Steps()
		pending, cancels, interrupts := 0, 0, 0
		record := func(at float64, seq uint64, child int) {
			if seq != seq0+uint64(len(evs)) {
				t.Fatalf("event %d took seq %d", len(evs), seq)
			}
			evs = append(evs, event{at: at, child: child})
			pending++
		}
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
		consume := func(id int) {
			evs[id].done = true
			pending--
		}
		// retire consumes the dropped wakes that come up before any
		// live event and no later than until.
		retire := func(until float64) {
			for w := next(); w >= 0 && evs[w].dropped && evs[w].at <= until; w = next() {
				consume(w)
			}
		}
		k.SetSink(&hookSink{
			dispatch: func(_ float64, seq uint64, kind uint8, _ int32) {
				id := int(seq - seq0)
				if evs[id].dropped {
					t.Fatalf("wake %d (at %g) fired after an interrupt ended its hold", id, evs[id].at)
				}
				retire(evs[id].at)
				if want := next(); want != id {
					t.Fatalf("event %d (at %g) fired, want event %d", id, evs[id].at, want)
				}
				if k.Now() != evs[id].at {
					t.Fatalf("event %d fired at %g, want %g", id, k.Now(), evs[id].at)
				}
				consume(id)
				now = evs[id].at
				fired++
				if kind == evWake {
					record(now, k.seq, -1) // the holder's turn, next
				}
			},
			cancel: func(seq uint64) {
				evs[seq-seq0].dropped = true
				cancels++
			},
		})
		holder.armed = func() { record(now+holder.hold, holder.p.holdSeq, -1) }
		var schedule func(delay float64, child int)
		schedule = func(delay float64, child int) {
			at(k, delay, func() {
				if child >= 0 {
					schedule(fuzzDelays[child], -1)
				}
			})
			record(now+delay, k.seq-1, child)
		}
		delay := func(arg int) float64 {
			if i := arg % (len(fuzzDelays) + 1); i < len(fuzzDelays) {
				return fuzzDelays[i]
			}
			// Repeat a pending event's time, to force a tie.
			var ids []int
			for j, e := range evs {
				if !e.done {
					ids = append(ids, j)
				}
			}
			if len(ids) == 0 {
				return 0
			}
			return evs[ids[arg%len(ids)]].at - now
		}
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 6 {
			case 0:
				schedule(delay(arg), -1)
			case 1:
				schedule(delay(arg), (arg>>4)%len(fuzzDelays))
			case 2:
				if p := holder.p; p.state == procParked {
					if p.cancel == cancelPlain {
						holder.hold = delay(arg)
						p.Wake()
					} else {
						p.Interrupt()
						interrupts++
					}
					record(now, k.seq-1, -1) // the holder's turn
				}
			case 3:
				w, steps := next(), fired
				if got := k.Step(); got != (w >= 0) {
					t.Fatalf("Step = %v, want %v", got, w >= 0)
				}
				if w >= 0 && evs[w].dropped {
					if fired != steps {
						t.Fatalf("Step fired an event past the dropped wake %d", w)
					}
					consume(w)
				}
			case 4:
				until := now + fuzzDelays[arg%len(fuzzDelays)]
				k.Run(until)
				retire(until)
				if w := next(); w >= 0 && evs[w].at <= until {
					t.Fatalf("Run(%g) returned with event %d pending at %g", until, w, evs[w].at)
				}
				now = max(now, until)
			case 5:
				d := delay(arg)
				k.AtInterrupt(d, target)
				record(now+d, k.seq-1, -1)
			}
			queued := len(k.heap) + len(k.dl) + len(k.lane) - k.lhead
			if k.Now() != now || k.Steps() != fired || cancels != interrupts || queued != pending {
				t.Fatalf("after op %d: Now %g, Steps %d, %d cancels, %d queued; want %g, %d, %d, %d",
					i/2, k.Now(), k.Steps(), cancels, queued, now, fired, interrupts, pending)
			}
		}
		k.Drain()
		retire(math.Inf(1))
		if w := next(); w >= 0 {
			t.Fatalf("event %d (at %g) never fired", w, evs[w].at)
		}
		if k.Steps() != fired || k.Now() != now {
			t.Fatalf("after Drain: Steps %d, Now %g; want %d, %g", k.Steps(), k.Now(), fired, now)
		}
	})
}

// timedQueueSeeds encodes FuzzTimedQueue inputs after the patterns of
// TestTimedOrderConformance, plus interrupted holds, nesting and
// deadline backlog patterns.
func timedQueueSeeds() [][]byte {
	rng := rand.New(rand.NewSource(7))
	var seeds [][]byte
	// Schedule a burst from time 0 with ties, waking the holder into a
	// hold or interrupting it now and then and stepping once after each,
	// then run past everything.
	for round := 0; round < 4; round++ {
		var b []byte
		n := 40 + rng.Intn(60)
		for i := 0; i < n; i++ {
			b = append(b, 0, byte(rng.Intn(len(fuzzDelays)+1)))
			if rng.Intn(4) == 0 {
				b = append(b, 2, byte(rng.Intn(len(fuzzDelays)+1)), 3, 0)
			}
		}
		seeds = append(seeds, append(b, 4, 5))
	}
	// Interrupt 24 distant holds, so their wakes pile up in the heap
	// behind near events stepped one at a time, step onto the first
	// eight dropped wakes, then run past them all.
	var b []byte
	for i := 0; i < 24; i++ {
		b = append(b, 2, byte(4+i%2), 3, 0, 2, 0, 3, 0)
	}
	for i := 0; i < 20; i++ {
		b = append(b, 0, byte(1+i%3), 3, 0)
	}
	for i := 0; i < 8; i++ {
		b = append(b, 3, 0)
	}
	seeds = append(seeds, append(b, 4, 5))
	// Handlers that schedule more events, with holder ops, steps and
	// short runs in between.
	b = nil
	for i := 0; i < 30; i++ {
		b = append(b, 1, byte(rng.Intn(256)), byte(rng.Intn(5)), byte(rng.Intn(256)))
	}
	seeds = append(seeds, b)
	// A backlog of 40 deadline aborts an hour and more ahead, some tied
	// to each other, under churn of near events that each fire before
	// the next is scheduled. Along the way the holder's zero-delay holds
	// are interrupted in the lane, its long holds are interrupted in the
	// heap, and near events tie with pending ones across the two heaps,
	// before a run drains everything.
	for round := 0; round < 2; round++ {
		b = nil
		for i := 0; i < 40; i++ {
			b = append(b, 5, byte(4+rng.Intn(3))) // an hour, 2^27 s or a tie
		}
		for i := 0; i < 90; i++ {
			b = append(b, 0, byte(1+rng.Intn(3)), 3, 0)
			switch rng.Intn(8) {
			case 0: // a zero-delay hold, interrupted before its wake
				b = append(b, 2, 0, 3, 0, 2, 0, 3, 0, 3, 0)
			case 1: // a long hold, interrupted later
				b = append(b, 2, byte(4+rng.Intn(2)), 3, 0)
			case 2:
				b = append(b, 2, 0) // interrupt a hold, if one is armed
			case 3:
				b = append(b, 0, 6) // tie a near event to a pending time
			}
		}
		seeds = append(seeds, append(b, 4, 5))
	}
	// Holds tied to pending events and aborts, interrupted and stepped
	// past, with more tied events scheduled behind the dropped wakes.
	b = nil
	for i := 0; i < 8; i++ {
		b = append(b, 5, 3, 0, 2)
	}
	for i := 0; i < 8; i++ {
		b = append(b, 2, 6, 3, 0, 2, 0, 0, 6, 3, 0)
	}
	for i := 0; i < 16; i++ {
		b = append(b, 3, 0)
	}
	return append(seeds, append(b, 4, 5))
}
