package sim

import (
	"fmt"
	"math"

	"pmm/internal/trace"
)

// The kernel's scheduling core is allocation-free in steady state:
//
//   - Event records live in a pooled slot arena. Scheduling reuses a
//     freed slot instead of heap-allocating (the free list is threaded
//     through the slots themselves), so after warmup At/Stop/Step never
//     allocate.
//   - Timed events wait in two 4-ary min-heaps ordered by (time, seq)
//     (queue.go): deadline aborts in one, everything else in the other,
//     and the smaller root fires first. Cancellation leaves a tombstone,
//     dropped when it reaches a root or when the heaps compact.
//   - Zero-delay events (process turns, wakes, gate grants — the
//     dominant event kind) bypass the heaps entirely through a FIFO fast
//     lane: they fire at the current time in scheduling order, so a
//     plain queue preserves the (time, seq) contract.
//
// Slot occupancy is keyed by the event's globally unique sequence
// number: a lane or heap entry or Timer whose seq no longer matches its
// slot is stale (fired, cancelled, or the slot was recycled) and is
// ignored.

// eventSlot is one pooled event record. karg packs the event kind (low
// 3 bits) with its payload (the rest) — a task or completer index into
// the kernel registries — so typed slots hold no pointers and
// scheduling them crosses no write barrier; fn is populated only for
// evClosure (the Kernel.At escape hatch). seq identifies the occupying
// event (noEvent when the slot is free); next links vacant slots into
// the free list.
type eventSlot struct {
	fn   func()
	seq  uint64
	next int32
	karg int32
}

// Event kinds: every event the simulator schedules is one of these, and
// Step dispatches on the kind with a single switch instead of an
// indirect closure call. All payloads are registry indexes (see
// Kernel.tasks/comps), so the hot kinds capture nothing. Kinds must fit
// the low 3 bits of eventSlot.karg.
const (
	// evClosure runs a user-supplied func(): the Kernel.At escape hatch.
	evClosure uint8 = iota
	// evTurn runs one turn of a process (zero-delay resume). Turns only
	// ever enter the lane, whose entry carries the task id (laneItem).
	evTurn
	// evWake delivers a hold's timed wake to the parked task in arg.
	evWake
	// evParkWake calls Wake on the task in arg: a no-op unless the task
	// still sits in a plain park (pacing urgency timers).
	evParkWake
	// evInterrupt calls Interrupt on the task in arg (deadline aborts).
	evInterrupt
	// evComplete / evCompleteQ end a resource service section: the
	// completer in arg finishes its direct or queued service (server and
	// disk completions).
	evComplete
	evCompleteQ
)

// The trace package names kernel event kinds by value; keep the two
// enumerations aligned so Sink.Dispatch can pass kinds through raw (a
// mismatch makes an index below non-zero and fails compilation).
var _ = [1]struct{}{}[trace.KindClosure^evClosure]
var _ = [1]struct{}{}[trace.KindTurn^evTurn]
var _ = [1]struct{}{}[trace.KindWake^evWake]
var _ = [1]struct{}{}[trace.KindParkWake^evParkWake]
var _ = [1]struct{}{}[trace.KindInterrupt^evInterrupt]
var _ = [1]struct{}{}[trace.KindComplete^evComplete]
var _ = [1]struct{}{}[trace.KindCompleteQ^evCompleteQ]

// Completer is a resource whose service completions the kernel delivers
// as typed events: Complete ends the service armed by AtComplete, with
// direct distinguishing an idle-resource direct serve from a dispatched
// queued one. Servers and disks register once at construction via
// RegisterCompleter.
type Completer interface {
	Complete(direct bool)
}

// noEvent marks a vacant slot. Real sequence numbers are assigned from 0
// upward and cannot reach it.
const noEvent = ^uint64(0)

// heapItem is one pending timed event: an entry of one of the kernel's
// two heaps. Plain data (no pointers), ordered by (at, seq).
type heapItem struct {
	at  float64
	seq uint64
	id  int32
}

// laneItem is one pending zero-delay event in the same-timestamp FIFO
// fast lane. Its time is implicitly the kernel's current time. Turn
// events (kind == evTurn) are slot-free: they cannot be cancelled, so
// the lane entry itself is the whole event record and id is the task id.
// Every other kind is slot-backed: id is a slot id, and a seq mismatch
// against the slot marks the entry cancelled.
type laneItem struct {
	seq  uint64
	id   int32
	kind uint8
}

// Timer is a handle to a scheduled event that can be cancelled. The zero
// value is a stopped timer.
type Timer struct {
	k   *Kernel
	id  int32
	seq uint64
}

// Stop cancels the timer. It reports whether the event had not yet
// fired. The event's lane or heap entry becomes a stale tombstone,
// skipped when it reaches the head of its queue.
func (t *Timer) Stop() bool {
	k := t.k
	if k == nil {
		return false
	}
	t.k = nil
	return k.stopEvent(t.id, t.seq)
}

// stopEvent cancels the pending event identified by (id, seq),
// reporting whether it had not yet fired. It backs both Timer.Stop and
// the pointer-free hold-wake handle in Proc.
func (k *Kernel) stopEvent(id int32, seq uint64) bool {
	s := &k.slots[id]
	if s.seq != seq {
		return false // already fired or cancelled
	}
	k.freeSlot(id, s)
	k.tombstone()
	if k.sink != nil {
		k.sink.Cancel(k.now, seq)
	}
	return true
}

// Kernel is the simulation engine: a virtual clock plus an event queue.
// The zero value is not usable; call NewKernel.
type Kernel struct {
	// Hot scalars first, so the scheduling fast paths touch one or two
	// cache lines of the kernel itself.
	now      float64
	seq      uint64
	steps    uint64 // events executed
	freeHead int32  // vacant-slot list through slot.next (LIFO keeps hot slots cache-warm)
	lhead    int    // first unconsumed lane index
	dead     int    // cancellations since the heaps last compacted, less tombstones popped

	slots []eventSlot // pooled event records
	lane  []laneItem  // FIFO of zero-delay events at the current time
	heap  []heapItem  // 4-ary min-heap of timed events by (at, seq), see queue.go
	dl    []heapItem  // the same for deadline aborts (AtInterrupt)

	// Typed-event registries: tasks and completers are appended once (at
	// spawn / construction) and addressed by index from event slots, so
	// typed events store no pointers. Task ids are never recycled — late
	// events (deadline aborts) may outlive their process, and an id reuse
	// would mis-target them — but a kernel only ever registers as many
	// tasks as it spawns processes, so growth is bounded and tiny.
	tasks []*Proc
	comps []Completer

	// sink, when non-nil, observes every dispatched event, timer
	// cancel, and gate transition (see SetSink). Cold: checked, never
	// written, on the hot paths.
	sink trace.Sink

	// until is the until argument of the Run in progress (+Inf outside
	// Run); it bounds how far Elide may advance.
	until float64
	// elided counts successful Elide calls.
	elided uint64

	arena *Arena // frame arena the kernel allocates processes from (may be nil)
	procs int    // live processes, for leak detection in tests
}

// NewKernel returns a kernel with the clock at time zero.
func NewKernel() *Kernel {
	return &Kernel{freeHead: -1, until: math.Inf(1)}
}

// NewKernelIn returns a kernel whose process and frame allocations come
// from arena a, and which adopts the slot pool, lane, heaps and registry
// backing a retained from the previous replicate — a warm start. A nil
// arena degrades to NewKernel. The arena owns at most one kernel at a
// time: constructing a second before Arena.Reset panics.
func NewKernelIn(a *Arena) *Kernel {
	if a == nil {
		return NewKernel()
	}
	if a.kernel != nil {
		panic("sim: arena already owns a live kernel; Reset it first")
	}
	k := SlabFor[Kernel](a).Alloc()
	k.freeHead = -1
	k.until = math.Inf(1)
	k.arena = a
	k.slots = a.slotBuf[:0]
	k.lane = a.laneBuf[:0]
	k.heap = a.heapBuf[:0]
	k.dl = a.dlBuf[:0]
	k.tasks = a.taskBuf[:0]
	k.comps = a.compBuf[:0]
	a.kernel = k
	return k
}

// Arena returns the frame arena this kernel allocates from, or nil for
// a plain heap-allocating kernel.
func (k *Kernel) Arena() *Arena { return k.arena }

// SetSink attaches a trace sink observing every dispatched event, every
// successful timer cancel, and every gate-queue transition, or detaches
// it when s is nil. The sink is a pure observer of the (time, seq)
// stream: it must not schedule events or otherwise feed back into the
// simulation, so runs are bit-identical with and without one (the
// Sink-contract note in doc.go spells out the rules). Attach before
// spawning processes so the sink sees every task's spawn name.
func (k *Kernel) SetSink(s trace.Sink) {
	k.sink = s
	if s != nil {
		for _, p := range k.tasks {
			s.TaskName(p.tid, p.name)
		}
	}
}

// Sink returns the attached trace sink, or nil.
func (k *Kernel) Sink() trace.Sink { return k.sink }

// registerTask assigns a process its kernel-local id, the payload typed
// events carry instead of a pointer.
func (k *Kernel) registerTask(p *Proc) {
	p.tid = int32(len(k.tasks))
	k.tasks = append(k.tasks, p)
	if k.sink != nil {
		k.sink.TaskName(p.tid, p.name)
	}
}

// RegisterCompleter registers a resource for typed completion events and
// returns the id AtComplete addresses it by. Call once at construction.
func (k *Kernel) RegisterCompleter(c Completer) int32 {
	id := int32(len(k.comps))
	k.comps = append(k.comps, c)
	return id
}

// Now returns the current simulation time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// Steps returns the number of events executed so far, counting the
// events Elide skipped as executed.
func (k *Kernel) Steps() uint64 { return k.steps }

// Elided returns how many resource completions Elide ran inline.
func (k *Kernel) Elided() uint64 { return k.elided }

// Elide is the check-and-advance primitive behind service elision. A
// resource starting service on an idle channel calls it with the
// completion's absolute time at (the caller's now+service, the same
// float expression sched would file it under) and the number of events
// the queued path would have executed up to the caller's resumed turn.
// Elide reports whether that completion is guaranteed to be the very
// next event to fire: no trace sink is attached (a sink observes every
// event), no live zero-delay lane entry is pending, the earliest timed
// event lies strictly after at (an equal time carries a lower sequence
// number and would win), and at does not pass the until of the Run in
// progress. On true the clock is at at, Steps counts the skipped
// events, and the caller applies the completion's effects and continues
// in the same turn; on false nothing changed and the caller takes the
// queued path. Callers must also require a positive service time and no
// pending interrupt.
func (k *Kernel) Elide(at float64, events uint64) bool {
	if k.sink != nil || at > k.until || k.skipStaleLane() {
		return false
	}
	if it, _, ok := k.peek(); ok && it.at <= at {
		return false
	}
	k.now = at
	k.steps += events
	k.elided++
	return true
}

// LiveProcs returns the number of spawned processes that have not finished.
func (k *Kernel) LiveProcs() int { return k.procs }

// freeSlot vacates a slot and recycles it onto the intrusive free list.
// fn is cleared only when set — typed events never store one, so their
// free crosses no write barrier.
func (k *Kernel) freeSlot(id int32, s *eventSlot) {
	if s.fn != nil {
		s.fn = nil
	}
	s.seq = noEvent
	s.next = k.freeHead
	k.freeHead = id
}

// newSlot takes a slot from the pool and stamps it with a fresh
// sequence number, the event kind, and its payload.
func (k *Kernel) newSlot(kind uint8, arg int32) (int32, *eventSlot, uint64) {
	id := k.freeHead
	if id >= 0 {
		k.freeHead = k.slots[id].next
	} else {
		k.slots = append(k.slots, eventSlot{})
		id = int32(len(k.slots) - 1)
	}
	seq := k.seq
	k.seq++
	s := &k.slots[id]
	s.seq = seq
	s.karg = arg<<3 | int32(kind)
	return id, s, seq
}

// sched files a freshly stamped slot into the queue after delay (≥ 0)
// simulated seconds. Events with equal times fire in scheduling order,
// which keeps runs deterministic. A zero delay goes to the fast lane:
// lane entries always fire before the clock can advance (nothing can be
// scheduled earlier than now), so their time needs no storage and no
// heap ordering. A positive delay goes to the main heap.
func (k *Kernel) sched(delay float64, id int32, s *eventSlot, seq uint64) {
	if delay == 0 {
		k.lane = append(k.lane, laneItem{seq: seq, id: id, kind: uint8(s.karg & 7)})
		return
	}
	k.heap = push(k.heap, heapItem{at: k.now + delay, seq: seq, id: id})
}

// At schedules fn to run after delay simulated seconds and returns a
// cancellable Timer. A negative or NaN delay panics: the past is
// immutable, and a NaN time has no place in the (time, seq) order.
// At is the closure escape hatch for ad-hoc events; everything the
// simulator schedules on its hot paths uses the typed kinds instead.
func (k *Kernel) At(delay float64, fn func()) Timer {
	checkDelay(delay)
	if fn == nil {
		panic("sim: nil event function")
	}
	id, s, seq := k.newSlot(evClosure, 0)
	s.fn = fn
	k.sched(delay, id, s, seq)
	return Timer{k: k, id: id, seq: seq}
}

// checkDelay panics unless delay is a valid wait: non-negative, and
// not NaN. Only a bug can produce an invalid one.
func checkDelay(delay float64) {
	if !(delay >= 0) {
		panic(fmt.Sprintf("sim: delay %g is negative or NaN", delay))
	}
}

// schedTurn schedules a zero-delay turn for a process. Turns cannot be
// cancelled, so they are slot-free: the lane entry itself is the whole
// event record, and scheduling one touches no slot at all. The body is
// small enough to inline into deliverWake and Spawn.
func (k *Kernel) schedTurn(p *Proc) {
	seq := k.seq
	k.seq++
	k.lane = append(k.lane, laneItem{seq: seq, id: p.tid, kind: evTurn})
}

// schedWake arms the timed wake of a hold: deliverWake(false) on the
// process after delay. It returns the (slot, seq) pair identifying the
// event — the hold's cancel handle, pointer-free so storing it in the
// process crosses no write barrier.
func (k *Kernel) schedWake(delay float64, p *Proc) (int32, uint64) {
	id, s, seq := k.newSlot(evWake, p.tid)
	k.sched(delay, id, s, seq)
	return id, seq
}

// AtWake schedules p.Wake() after delay simulated seconds: a timed
// nudge that resumes the process only if it still sits in a plain park
// (pacing urgency timers). A negative or NaN delay panics.
func (k *Kernel) AtWake(delay float64, p *Proc) Timer {
	checkDelay(delay)
	id, s, seq := k.newSlot(evParkWake, p.tid)
	k.sched(delay, id, s, seq)
	return Timer{k: k, id: id, seq: seq}
}

// AtInterrupt schedules p.Interrupt() after delay simulated seconds
// (firm-deadline aborts). Interrupting a finished process is a no-op,
// so the timer may safely outlive its target. A positive delay files
// the event in the deadline heap, apart from the kernel's other timed
// events. A negative or NaN delay panics.
func (k *Kernel) AtInterrupt(delay float64, p *Proc) Timer {
	checkDelay(delay)
	id, s, seq := k.newSlot(evInterrupt, p.tid)
	if delay == 0 {
		k.sched(0, id, s, seq)
	} else {
		k.dl = push(k.dl, heapItem{at: k.now + delay, seq: seq, id: id})
	}
	return Timer{k: k, id: id, seq: seq}
}

// AtComplete schedules a service completion: after delay, the completer
// registered under comp finishes its direct or queued service. Service
// sections are uncancellable, so no Timer is built. A negative or NaN
// delay panics.
func (k *Kernel) AtComplete(delay float64, comp int32, direct bool) {
	checkDelay(delay)
	kind := evCompleteQ
	if direct {
		kind = evComplete
	}
	id, s, seq := k.newSlot(kind, comp)
	k.sched(delay, id, s, seq)
}

// Ride is the handle of a caller parked on a direct service completion
// by AtCompleteRide: the process and the sequence number reserved for its
// wake. It holds no pointer. No armed ride carries sequence number 0
// (the completion it rides on takes an earlier one), so the zero Ride
// delivers nothing.
type Ride struct {
	seq uint64
	tid int32
}

// AtCompleteRide schedules a direct service completion, exactly as
// AtComplete(delay, comp, true), and parks p until it fires. It stands
// in for AtComplete followed by p.StartHold(delay). That hold's wake
// would fire at the same time with the very next sequence number, so no
// event could ever come between the two. The completion therefore
// delivers the wake itself, via DeliverRide, and no second event is
// queued. The caller's wait stays a cancellable hold: an interrupt
// resumes it at once and reports the reserved sequence number to the
// sink as a cancel, as stopping the hold timer would. entered is false
// when a pending interrupt consumed the wait; the completion is
// scheduled either way.
func (k *Kernel) AtCompleteRide(delay float64, comp int32, p *Proc) (r Ride, entered bool) {
	k.AtComplete(delay, comp, true)
	if !p.startRide() {
		return Ride{}, false
	}
	return Ride{seq: p.holdSeq, tid: p.tid}, true
}

// DeliverRide delivers the wake of ride r if its hold is still armed:
// the process sits in that very ride (same kind, same sequence number).
// The wake counts as a step and reaches the sink as the same evWake
// dispatch the timed wake event would have produced. A ride whose wait
// an interrupt ended delivers nothing. Completers call it after their
// own completion effects, where the wake event would have fired.
func (k *Kernel) DeliverRide(r Ride) {
	p := k.tasks[r.tid]
	if p.state != procParked || p.cancel != cancelRide || p.holdSeq != r.seq {
		return
	}
	k.steps++
	if k.sink != nil {
		k.sink.Dispatch(k.now, r.seq, evWake, r.tid)
	}
	p.deliverWake(false)
}

// skipStaleLane advances past cancelled entries at the lane head,
// reporting whether a live lane event is pending. Turn entries are
// slot-free and uncancellable, so they are always live.
func (k *Kernel) skipStaleLane() bool {
	for k.lhead < len(k.lane) {
		l := k.lane[k.lhead]
		if l.kind == evTurn || k.slots[l.id].seq == l.seq {
			return true
		}
		k.lhead++
	}
	if len(k.lane) > 0 {
		k.resetLane()
	}
	return false
}

// laneShrinkCap bounds the lane capacity kept across a full drain: a
// backing array beyond this that the last burst left mostly unused is
// released instead of pinned forever.
const laneShrinkCap = 256

// resetLane reclaims the fully drained lane. Entries only append
// between resets, so len(k.lane) is the high-water mark of the cycle
// just drained: a large backing array that this cycle left under a
// quarter full is dropped (the next burst re-sizes organically) rather
// than pinning its one-off high-water capacity for the rest of the run.
func (k *Kernel) resetLane() {
	if cap(k.lane) > laneShrinkCap && len(k.lane) <= cap(k.lane)/4 {
		k.lane = nil
	} else {
		k.lane = k.lane[:0]
	}
	k.lhead = 0
}

// Step executes the next pending event — the live event earliest in
// (time, seq) order — advancing the clock. It reports whether an event
// was executed.
func (k *Kernel) Step() bool { return k.step(inf) }

// inf is the until of a Step. Read from a variable, it keeps Step cheap
// enough for the compiler to inline, where math.Inf(1) would not.
var inf = math.Inf(1)

// step executes the next pending event if its time is at most until,
// and reports whether it did. Selection and dispatch live in one
// function on purpose: Run and Step both loop on it, so each event is
// selected once, and splitting either half out would cost a call on
// the hottest loop in the simulator.
func (k *Kernel) step(until float64) bool {
	var id int32
	if k.skipStaleLane() {
		if k.now > until {
			return false
		}
		l := k.lane[k.lhead]
		// Lane entries fire at the current time, so a timed event wins
		// only when it carries an equal time and an earlier sequence
		// (e.g. a positive delay that underflowed to the current
		// instant).
		if it, h, ok := k.peek(); ok && it.at == k.now && it.seq < l.seq {
			*h = popRoot(*h)
			id = it.id
		} else {
			// Lane head wins: consume it. Turn entries carry their
			// payload in the lane item itself — no slot to read or
			// vacate.
			k.lhead++
			if k.lhead == len(k.lane) {
				k.resetLane()
			}
			if l.kind == evTurn {
				k.steps++
				if k.sink != nil {
					k.sink.Dispatch(k.now, l.seq, evTurn, l.id)
				}
				k.tasks[l.id].runTurn()
				return true
			}
			id = l.id
		}
	} else if it, h, ok := k.peek(); ok && it.at <= until {
		*h = popRoot(*h)
		k.now = it.at
		id = it.id
	} else {
		return false
	}
	// Typed dispatch: vacate the slot, count the step, switch on the
	// event kind. Typed payloads devirtualize to direct method calls on
	// registry entries; only evClosure pays an indirect call.
	s := &k.slots[id]
	karg, fn := s.karg, s.fn
	if k.sink != nil {
		k.sink.Dispatch(k.now, s.seq, uint8(karg&7), karg>>3)
	}
	k.freeSlot(id, s)
	k.steps++
	switch arg := karg >> 3; uint8(karg & 7) {
	case evWake:
		k.tasks[arg].deliverWake(false)
	case evClosure:
		fn()
	case evParkWake:
		k.tasks[arg].Wake()
	case evInterrupt:
		k.tasks[arg].Interrupt()
	case evComplete:
		k.comps[arg].Complete(true)
	default: // evCompleteQ
		k.comps[arg].Complete(false)
	}
	return true
}

// Run executes events until the clock would pass until or no events
// remain; the clock is then clamped up to until. Events scheduled
// exactly at until do run.
func (k *Kernel) Run(until float64) {
	k.until = until
	for k.step(until) {
	}
	if k.now < until {
		k.now = until
	}
	k.until = math.Inf(1)
}

// Drain executes every remaining event. Intended for tests and teardown.
func (k *Kernel) Drain() {
	for k.Step() {
	}
}
