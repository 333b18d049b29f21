package sim

import (
	"fmt"
	"math"

	"pmm/internal/trace"
)

// An event is a plain value held whole in its lane or heap entry: its
// time, its sequence number, and karg, the event kind (low 3 bits)
// packed with its payload (the rest), a task or completer index into
// the kernel registries. No event is ever cancelled: an interrupted
// hold's wake stays queued and is dropped when it comes up
// (Proc.holding). The package doc describes the queues.

// Event kinds: every event the simulator schedules is one of these, and
// Step dispatches on the kind with a single switch. All payloads are
// registry indexes (see Kernel.tasks/comps), so no event captures
// anything. Kinds must fit the low 3 bits of karg.
const (
	// Kinds 0 and 3 are retired. The kinds that remain keep their
	// values, which kernel trace records carry.
	_ uint8 = iota
	// evTurn runs one turn of a process (zero-delay resume). Turns only
	// ever enter the lane.
	evTurn
	// evWake delivers a hold's timed wake to the task in arg, unless an
	// interrupt already ended the hold.
	evWake
	_
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
var _ = [1]struct{}{}[trace.KindTurn^evTurn]
var _ = [1]struct{}{}[trace.KindWake^evWake]
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

// heapItem is one pending timed event: an entry of one of the kernel's
// two heaps. Plain data (no pointers), ordered by (at, seq).
type heapItem struct {
	at   float64
	seq  uint64
	karg int32
}

// laneItem is one pending zero-delay event in the same-timestamp FIFO
// fast lane. Its time is implicitly the kernel's current time.
type laneItem struct {
	seq  uint64
	karg int32
}

// Kernel is the simulation engine: a virtual clock plus an event queue.
// The zero value is not usable; call NewKernel.
type Kernel struct {
	// Hot scalars first, so the scheduling fast paths touch one or two
	// cache lines of the kernel itself.
	now   float64
	seq   uint64
	steps uint64 // events executed
	lhead int    // first unconsumed lane index

	lane []laneItem // FIFO of zero-delay events at the current time
	heap []heapItem // 4-ary min-heap of timed events by (at, seq), see queue.go
	dl   []heapItem // the same for deadline aborts (AtInterrupt)

	// Typed-event registries: tasks and completers are appended once (at
	// spawn / construction) and addressed by index from events, so
	// events store no pointers. Task ids are never recycled: late events
	// (a finished query's deadline abort, a ride whose rider unwound)
	// may outlive their process. When a process dies its slot points at
	// dead, so those events find a dead process and do nothing, while
	// its record may serve a later Spawn under a new id. A kernel only
	// ever registers as many tasks as it spawns processes, so growth is
	// bounded and tiny.
	tasks []*Proc
	comps []Completer

	// sink, when non-nil, observes every dispatched event, hold cancel,
	// and gate transition (see SetSink). Cold: checked, never written,
	// on the hot paths.
	sink trace.Sink

	// until is the until argument of the Run in progress (+Inf outside
	// Run); it bounds how far Elide may advance.
	until float64
	// elided counts successful Elide calls.
	elided uint64

	arena *Arena // frame arena the kernel allocates processes from (may be nil)
	procs int    // live processes, for leak detection in tests

	// dead is the sentinel every finished process's registry slot
	// points at (see tasks). It is never spawned and never changes.
	dead Proc
}

// NewKernel returns a kernel with the clock at time zero.
func NewKernel() *Kernel {
	k := &Kernel{until: math.Inf(1)}
	k.dead.state = procDead
	return k
}

// NewKernelIn returns a kernel whose process and frame allocations come
// from arena a, and which adopts the lane, heaps and registry backing a
// retained from the previous replicate — a warm start. A nil arena
// degrades to NewKernel. The arena owns at most one kernel at a time:
// constructing a second before Arena.Reset panics.
func NewKernelIn(a *Arena) *Kernel {
	if a == nil {
		return NewKernel()
	}
	if a.kernel != nil {
		panic("sim: arena already owns a live kernel; Reset it first")
	}
	k := SlabFor[Kernel](a).Alloc()
	k.until = math.Inf(1)
	k.dead.state = procDead
	k.arena = a
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
// hold an interrupt cancels, and every gate-queue transition, or
// detaches it when s is nil. The sink is a pure observer of the (time,
// seq) stream: it must not schedule events or otherwise feed back into
// the simulation, so runs are bit-identical with and without one (the
// Sink-contract note in doc.go spells out the rules). Attach before
// spawning processes so the sink sees every task's spawn name; a task
// that already finished is not reported.
func (k *Kernel) SetSink(s trace.Sink) {
	k.sink = s
	if s != nil {
		for _, p := range k.tasks {
			if p != &k.dead {
				s.TaskName(p.tid, p.name)
			}
		}
	}
}

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
// event), the zero-delay lane is empty, the earliest timed event lies
// strictly after at (an equal time carries a lower sequence number and
// would win), and at does not pass the until of the Run in progress.
// On true the clock is at at, Steps counts the skipped events, and the
// caller applies the completion's effects and continues in the same
// turn; on false nothing changed and the caller takes the queued path.
// Callers must also require a positive service time and no pending
// interrupt.
func (k *Kernel) Elide(at float64, events uint64) bool {
	if k.sink != nil || at > k.until || k.lhead < len(k.lane) {
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

// sched stamps an event of the given kind and payload with the next
// sequence number, files it to fire after delay (≥ 0) simulated
// seconds, and returns its sequence number. Events with equal times
// fire in scheduling order, which keeps runs deterministic. A zero
// delay goes to the fast lane: lane entries always fire before the
// clock can advance (nothing can be scheduled earlier than now), so
// their time needs no storage and no heap ordering. A positive delay
// goes to the main heap.
func (k *Kernel) sched(delay float64, kind uint8, arg int32) uint64 {
	seq := k.seq
	k.seq++
	karg := arg<<3 | int32(kind)
	if delay == 0 {
		k.lane = append(k.lane, laneItem{seq: seq, karg: karg})
	} else {
		k.heap = push(k.heap, heapItem{at: k.now + delay, seq: seq, karg: karg})
	}
	return seq
}

// checkDelay panics unless delay is a valid wait: non-negative, and
// not NaN. Only a bug can produce an invalid one.
func checkDelay(delay float64) {
	if !(delay >= 0) {
		panic(fmt.Sprintf("sim: delay %g is negative or NaN", delay))
	}
}

// schedTurn schedules a zero-delay turn for a process. The body is
// small enough to inline into deliverWake and Spawn.
func (k *Kernel) schedTurn(p *Proc) {
	seq := k.seq
	k.seq++
	k.lane = append(k.lane, laneItem{seq: seq, karg: p.tid<<3 | int32(evTurn)})
}

// AtInterrupt schedules p.Interrupt() after delay simulated seconds
// (firm-deadline aborts). Interrupting a finished process is a no-op,
// so the event may safely outlive its target. A positive delay files
// the event in the deadline heap, apart from the kernel's other timed
// events. A negative or NaN delay panics.
func (k *Kernel) AtInterrupt(delay float64, p *Proc) {
	checkDelay(delay)
	if delay == 0 {
		k.sched(0, evInterrupt, p.tid)
		return
	}
	k.dl = push(k.dl, heapItem{at: k.now + delay, seq: k.seq, karg: p.tid<<3 | int32(evInterrupt)})
	k.seq++
}

// AtComplete schedules a service completion: after delay, the completer
// registered under comp finishes its direct or queued service. A
// negative or NaN delay panics.
func (k *Kernel) AtComplete(delay float64, comp int32, direct bool) {
	checkDelay(delay)
	kind := evCompleteQ
	if direct {
		kind = evComplete
	}
	k.sched(delay, kind, comp)
}

// Ride is the handle of a caller parked on a direct service completion
// by AtCompleteRide: the process and the sequence number reserved for its
// wake. It holds no pointer. No hold's wake carries sequence number 0
// (the process's spawn turn took an earlier one), so the zero Ride
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
// queued: the ride reserves the sequence number that wake would have
// taken. The caller's wait is a hold like any other: an interrupt
// resumes it at once and reports the reserved sequence number to the
// sink as a cancel. entered is false when a pending interrupt consumed
// the wait; the completion is scheduled either way.
func (k *Kernel) AtCompleteRide(delay float64, comp int32, p *Proc) (r Ride, entered bool) {
	k.AtComplete(delay, comp, true)
	if p.takePendingInterrupt() {
		return Ride{}, false
	}
	p.holdSeq = k.seq
	k.seq++
	p.cancel = cancelHold
	return Ride{seq: p.holdSeq, tid: p.tid}, true
}

// DeliverRide delivers the wake of ride r if its hold is still armed,
// under the same test a timed wake passes (Proc.holding). The wake
// counts as a step and reaches the sink as the same evWake dispatch the
// timed wake event would have produced. A ride whose wait an interrupt
// ended delivers nothing. Completers call it after their own completion
// effects, where the wake event would have fired.
func (k *Kernel) DeliverRide(r Ride) {
	p := k.tasks[r.tid]
	if !p.holding(r.seq) {
		return
	}
	k.steps++
	if k.sink != nil {
		k.sink.Dispatch(k.now, r.seq, evWake, r.tid)
	}
	p.deliverWake(false)
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

// Step executes the next pending event — the event earliest in (time,
// seq) order — advancing the clock. It reports whether it consumed an
// event. That event may be the wake of a hold an interrupt already
// ended: Step then reports true, although nothing fired, no step was
// counted and the clock did not move.
func (k *Kernel) Step() bool { return k.step(inf) }

// inf is the until of a Step. Read from a variable, it keeps Step cheap
// enough for the compiler to inline, where math.Inf(1) would not.
var inf = math.Inf(1)

// step consumes the next pending event if its time is at most until,
// and reports whether it did. Selection and dispatch live in one
// function on purpose: Run and Step both loop on it, so each event is
// selected once, and splitting either half out would cost a call on
// the hottest loop in the simulator.
func (k *Kernel) step(until float64) bool {
	at := k.now
	var seq uint64
	var karg int32
	if k.lhead < len(k.lane) {
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
			seq, karg = it.seq, it.karg
		} else {
			k.lhead++
			if k.lhead == len(k.lane) {
				k.resetLane()
			}
			if uint8(l.karg&7) == evTurn {
				k.steps++
				if k.sink != nil {
					k.sink.Dispatch(k.now, l.seq, evTurn, l.karg>>3)
				}
				k.tasks[l.karg>>3].runTurn()
				return true
			}
			seq, karg = l.seq, l.karg
		}
	} else if it, h, ok := k.peek(); ok && it.at <= until {
		*h = popRoot(*h)
		at, seq, karg = it.at, it.seq, it.karg
	} else {
		return false
	}
	kind, arg := uint8(karg&7), karg>>3
	if kind == evWake && !k.tasks[arg].holding(seq) {
		return true // an interrupt ended this hold: drop its wake
	}
	k.now = at
	k.steps++
	if k.sink != nil {
		k.sink.Dispatch(at, seq, kind, arg)
	}
	switch kind {
	case evWake:
		k.tasks[arg].deliverWake(false)
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
