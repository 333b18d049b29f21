package sim

import (
	"fmt"
	"math"
	"math/bits"

	"pmm/internal/trace"
)

// The kernel's scheduling core is allocation-free in steady state:
//
//   - Event records live in a pooled slot arena. Scheduling reuses a
//     freed slot instead of heap-allocating (the free list is threaded
//     through the slots themselves), so after warmup At/Stop/Step never
//     allocate.
//   - Timed events sit in a hierarchical timing wheel (wheel.go):
//     power-of-two bucket widths, cascading overflow levels, and a
//     far-future heap for events beyond the outermost horizon. Buckets
//     are intrusive doubly-linked lists threaded through the event
//     slots, so insert and cancel are O(1) pointer splices and carry no
//     per-bucket storage; advancing drains whole buckets at a time.
//   - Cancellation unlinks wheel entries in place. Only entries that
//     already left the wheel for a drain batch (or sit in the zero-delay
//     lane or the far-future heap) cancel lazily, as stale tombstones
//     recognized by a sequence check and dropped in batched sweeps.
//   - Zero-delay events (process turns, wakes, gate grants — the
//     dominant event kind) bypass the wheel entirely through a FIFO fast
//     lane: they fire at the current time in scheduling order, so a
//     plain queue preserves the (time, seq) contract.
//
// Slot occupancy is keyed by the event's globally unique sequence
// number: a lane/batch/far entry or Timer whose seq no longer matches
// its slot is stale (fired, cancelled, or the slot was recycled) and is
// ignored.

// eventSlot is one pooled event record and, for an event parked in a
// wheel bucket, the intrusive list node of that bucket. karg packs the
// event kind (low 3 bits) with its payload (the rest) — a task or
// completer index into the kernel registries — so typed slots hold no
// pointers, scheduling them crosses no write barrier, and the slot
// stays at 40 bytes, the same footprint the untyped kernel had; fn is
// populated only for evClosure (the Kernel.At escape hatch). seq
// identifies the occupying event (noEvent when the slot is free); loc
// records where the queue entry lives (a wheel bucket index or a loc*
// sentinel) so Stop can unlink in O(1); next doubles as the free-list
// link of vacant slots.
type eventSlot struct {
	fn         func()
	at         float64
	seq        uint64
	next, prev int32
	loc        int32
	karg       int32
}

// Event kinds: every event the simulator schedules is one of these, and
// Step dispatches on the kind with a single switch instead of an
// indirect closure call. All payloads are registry indexes (see
// Kernel.tasks/comps), so the hot kinds capture nothing. Kinds must fit
// the low 3 bits of eventSlot.karg.
const (
	// evClosure runs a user-supplied func(): the Kernel.At escape hatch.
	evClosure uint8 = iota
	// evTurn runs one turn of the task in arg (zero-delay resume).
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

// heapItem is one pending timed event outside the wheel: an entry of
// the sorted drain batch or of the far-future heap. Plain data (no
// pointers), ordered by (at, seq).
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
// fired. A wheel entry is unlinked from its bucket in place; an entry
// in the lane, the drain batch, or the far-future heap becomes a stale
// tombstone swept in batch later (far tombstones count toward that
// heap's periodic compaction).
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
// the pointer-free hold-wake handle in taskCore.
func (k *Kernel) stopEvent(id int32, seq uint64) bool {
	s := &k.slots[id]
	if s.seq != seq {
		return false // already fired or cancelled
	}
	// Front registers are searched by sequence (unique per event), so
	// register entries need no location bookkeeping at all.
	if n := k.regN; n > 0 && k.reg[0].seq == seq {
		k.reg[0] = k.reg[1]
		k.regN = n - 1
	} else if n == 2 && k.reg[1].seq == seq {
		k.regN = 1
	} else {
		k.cancel(id, s)
	}
	k.freeSlot(id, s)
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
	curTick  uint64 // wheel position, ≤ every wheel/far event's tick
	freeHead int32  // vacant-slot list through slot.next (LIFO keeps hot slots cache-warm)
	occ      uint32 // summary bitmap of outer levels with occupied slots
	chead    int    // first unconsumed cur index
	lhead    int    // first unconsumed lane index

	// Front registers: the regN globally earliest timed events, kept
	// ahead of the wheel (reg[0] ≤ reg[1] ≤ every wheel/batch/far
	// entry). Sparse schedules — a handful of pending timers, the
	// common case between bursts — run entirely on these two fixed
	// slots: insert is a compare-and-shift, cancel removes by sequence
	// match, and firing never touches a bucket. Registers hold no
	// tombstones, so their entries are always live.
	reg  [2]heapItem
	regN int32

	slots []eventSlot // pooled event records
	lane  []laneItem  // FIFO of zero-delay events at the current time

	// Timed events: hierarchical timing wheel, current drain batch, and
	// far-future overflow heap. See wheel.go for the structure and the
	// ordering argument.
	cur   []heapItem          // current drain batch, sorted by (at, seq)
	masks [wheelLevels]uint64 // per-level slot-occupancy bitmaps
	bhead [wheelBuckets]int32 // per-bucket list heads (slot ids, -1 empty)
	far   []heapItem          // 4-ary min-heap of events beyond the horizon

	// Typed-event registries: tasks and completers are appended once (at
	// spawn / construction) and addressed by index from event slots, so
	// typed events store no pointers. Task ids are never recycled — late
	// events (deadline aborts) may outlive their process, and an id reuse
	// would mis-target them — but a kernel only ever registers as many
	// tasks as it spawns processes, so growth is bounded and tiny.
	tasks []*taskCore
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

	arena   *Arena // frame arena the kernel allocates processes from (may be nil)
	farDead int    // cancelled entries still inside far
	procs   int    // live processes, for leak detection in tests
}

// NewKernel returns a kernel with the clock at time zero.
func NewKernel() *Kernel {
	k := &Kernel{freeHead: -1, until: math.Inf(1)}
	for i := range k.bhead {
		k.bhead[i] = -1
	}
	return k
}

// NewKernelIn returns a kernel whose process and frame allocations come
// from arena a, and which adopts the slot pool, lane, batch and registry
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
	for i := range k.bhead {
		k.bhead[i] = -1
	}
	k.arena = a
	k.slots = a.slotBuf[:0]
	k.lane = a.laneBuf[:0]
	k.cur = a.curBuf[:0]
	k.far = a.farBuf[:0]
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
		for _, c := range k.tasks {
			s.TaskName(c.tid, c.name)
		}
	}
}

// Sink returns the attached trace sink, or nil.
func (k *Kernel) Sink() trace.Sink { return k.sink }

// registerTask assigns a task its kernel-local id, the payload typed
// events carry instead of a pointer.
func (k *Kernel) registerTask(c *taskCore) {
	c.tid = int32(len(k.tasks))
	k.tasks = append(k.tasks, c)
	if k.sink != nil {
		k.sink.TaskName(c.tid, c.name)
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
	if it, ok := k.nextTimed(); ok && it.at <= at {
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
// loc is left stale: every reader is guarded by a seq check, and the
// only path that occupies a slot without filing a location (the lane,
// in sched) resets it explicitly. fn is cleared only when set — typed
// events never store one, so their free crosses no write barrier.
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
		k.slots = append(k.slots, eventSlot{loc: locNone})
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
// which keeps runs deterministic.
//
// The timed-insert logic below is mirrored verbatim in At and schedWake.
// Keep all three copies in sync. The Go inliner cannot absorb a body
// this size, and the extra call measurably slows both entry points
// (go1.24, 2-vCPU x86 host, interleaved before/after test binaries):
// routing schedWake through sched cost TypedDispatch +10.7% and
// InlineHoldWake +5.7%, and routing At through it cost KernelChurn
// +3% to +26% and TimerChurn +5% to +8%.
func (k *Kernel) sched(delay float64, id int32, s *eventSlot, seq uint64) {
	if delay == 0 {
		// Same-timestamp fast lane. Lane entries always fire before the
		// clock can advance (nothing can be scheduled earlier than now),
		// so their time needs no storage and no wheel ordering. loc must
		// be reset here: the recycled slot may carry a stale bucket
		// index, and a lane timer's Stop must not unlink anything.
		s.loc = locNone
		k.lane = append(k.lane, laneItem{seq: seq, id: id, kind: uint8(s.karg & 7)})
		return
	}
	it := heapItem{at: k.now + delay, seq: seq, id: id}
	n := k.regN
	if n < 2 {
		if n > 0 && heapLess(it, k.reg[0]) {
			// The event beats the single front register: shift it in.
			k.reg[1] = k.reg[0]
			k.reg[0] = it
			k.regN = 2
			return
		}
		if k.timedEmpty() {
			// Nothing is pending behind the registers, so the new event
			// joins them as the current maximum.
			k.reg[n] = it
			k.regN = n + 1
			return
		}
	} else if heapLess(it, k.reg[1]) {
		// The event beats a full register bank: place it among the
		// registers and displace the current maximum to the wheel.
		// Registers stay ≤ everything behind them.
		r := k.reg[1]
		if heapLess(it, k.reg[0]) {
			k.reg[1] = k.reg[0]
			k.reg[0] = it
		} else {
			k.reg[1] = it
		}
		it = r
	}
	k.wheelSched(it.at, it.seq, it.id, &k.slots[it.id])
}

// At schedules fn to run after delay simulated seconds and returns a
// cancellable Timer. A negative delay panics: the past is immutable.
// At is the closure escape hatch for ad-hoc events; everything the
// simulator schedules on its hot paths uses the typed kinds instead.
// The queue insert mirrors sched (see the comment there).
func (k *Kernel) At(delay float64, fn func()) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", delay))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	id, s, seq := k.newSlot(evClosure, 0)
	s.fn = fn
	if delay == 0 {
		s.loc = locNone
		k.lane = append(k.lane, laneItem{seq: seq, id: id, kind: evClosure})
		return Timer{k: k, id: id, seq: seq}
	}
	it := heapItem{at: k.now + delay, seq: seq, id: id}
	n := k.regN
	if n < 2 {
		if n > 0 && heapLess(it, k.reg[0]) {
			k.reg[1] = k.reg[0]
			k.reg[0] = it
			k.regN = 2
			return Timer{k: k, id: id, seq: seq}
		}
		if k.timedEmpty() {
			k.reg[n] = it
			k.regN = n + 1
			return Timer{k: k, id: id, seq: seq}
		}
	} else if heapLess(it, k.reg[1]) {
		r := k.reg[1]
		if heapLess(it, k.reg[0]) {
			k.reg[1] = k.reg[0]
			k.reg[0] = it
		} else {
			k.reg[1] = it
		}
		it = r
	}
	k.wheelSched(it.at, it.seq, it.id, &k.slots[it.id])
	return Timer{k: k, id: id, seq: seq}
}

// schedTurn schedules a zero-delay turn for a task. Turns cannot be
// cancelled, so they are slot-free: the lane entry itself is the whole
// event record, and scheduling one touches no slot at all. The body is
// small enough to inline into deliverWake and the spawn paths.
func (k *Kernel) schedTurn(c *taskCore) {
	seq := k.seq
	k.seq++
	k.lane = append(k.lane, laneItem{seq: seq, id: c.tid, kind: evTurn})
}

// schedWake arms the timed wake of a hold: deliverWake(false) on the
// task after delay. It returns the (slot, seq) pair identifying the
// event — the hold's cancel handle, pointer-free so storing it in the
// task core crosses no write barrier. The queue insert mirrors sched
// (see the comment there).
func (k *Kernel) schedWake(delay float64, c *taskCore) (int32, uint64) {
	id, s, seq := k.newSlot(evWake, c.tid)
	if delay == 0 {
		s.loc = locNone
		k.lane = append(k.lane, laneItem{seq: seq, id: id, kind: evWake})
		return id, seq
	}
	it := heapItem{at: k.now + delay, seq: seq, id: id}
	n := k.regN
	if n < 2 {
		if n > 0 && heapLess(it, k.reg[0]) {
			k.reg[1] = k.reg[0]
			k.reg[0] = it
			k.regN = 2
			return id, seq
		}
		if k.timedEmpty() {
			k.reg[n] = it
			k.regN = n + 1
			return id, seq
		}
	} else if heapLess(it, k.reg[1]) {
		r := k.reg[1]
		if heapLess(it, k.reg[0]) {
			k.reg[1] = k.reg[0]
			k.reg[0] = it
		} else {
			k.reg[1] = it
		}
		it = r
	}
	k.wheelSched(it.at, it.seq, it.id, &k.slots[it.id])
	return id, seq
}

// AtWake schedules t.Wake() after delay simulated seconds: a timed
// nudge that resumes the task only if it still sits in a plain park
// (pacing urgency timers). A negative delay panics.
func (k *Kernel) AtWake(delay float64, t Task) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", delay))
	}
	id, s, seq := k.newSlot(evParkWake, t.core().tid)
	k.sched(delay, id, s, seq)
	return Timer{k: k, id: id, seq: seq}
}

// AtInterrupt schedules t.Interrupt() after delay simulated seconds
// (firm-deadline aborts). Interrupting a finished process is a no-op,
// so the timer may safely outlive its target. A negative delay panics.
func (k *Kernel) AtInterrupt(delay float64, t Task) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", delay))
	}
	id, s, seq := k.newSlot(evInterrupt, t.core().tid)
	k.sched(delay, id, s, seq)
	return Timer{k: k, id: id, seq: seq}
}

// AtComplete schedules a service completion: after delay, the completer
// registered under comp finishes its direct or queued service. Service
// sections are uncancellable, so no Timer is built.
func (k *Kernel) AtComplete(delay float64, comp int32, direct bool) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", delay))
	}
	kind := evCompleteQ
	if direct {
		kind = evComplete
	}
	id, s, seq := k.newSlot(kind, comp)
	k.sched(delay, id, s, seq)
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
// was executed. Selection and dispatch live in one function on purpose:
// every selection path converges on the single typed-dispatch tail at
// the fire label, and splitting either out costs a call on the hottest
// loop in the simulator.
func (k *Kernel) Step() bool {
	hasLane := k.skipStaleLane()
	var laneSeq uint64
	if hasLane {
		laneSeq = k.lane[k.lhead].seq
	}
	var id int32
	// Timed head: the front registers hold the earliest timed events;
	// behind them the batch is skipped of tombstones and reloaded from
	// the wheel as it drains. Lane entries fire at the current time, so
	// a timed event wins only when it carries an equal time and an
	// earlier sequence (e.g. a positive delay that underflowed to the
	// current instant).
	for {
		if k.regN > 0 {
			it := k.reg[0]
			if hasLane && !(it.at == k.now && it.seq < laneSeq) {
				break
			}
			if it.at < k.now {
				panic("sim: event scheduled in the past")
			}
			k.reg[0] = k.reg[1]
			k.regN--
			k.now = it.at
			id = it.id
			goto fire
		}
		if k.chead < len(k.cur) {
			it := k.cur[k.chead]
			if k.slots[it.id].seq != it.seq {
				k.chead++
				continue
			}
			if hasLane && !(it.at == k.now && it.seq < laneSeq) {
				break // the lane entry is earlier in (time, seq) order
			}
			if it.at < k.now {
				panic("sim: event scheduled in the past")
			}
			k.chead++
			k.now = it.at
			id = it.id
			goto fire
		}
		// Batch exhausted. With no outer-level or far-future events
		// pending, the earliest occupied level-0 bucket is the global
		// minimum; when it holds a single event — the common sparse
		// case — fire it directly, skipping the batch round-trip.
		if k.occ == 0 && len(k.far) == 0 {
			m := k.masks[0]
			if m == 0 {
				if hasLane {
					break
				}
				return false
			}
			c := int(k.curTick & slotMask)
			t0 := k.curTick + uint64(bits.TrailingZeros64(bits.RotateLeft64(m, -c)))
			idx := int(t0 & slotMask)
			bid := k.bhead[idx]
			if s := &k.slots[bid]; s.next < 0 {
				if hasLane && !(s.at == k.now && s.seq < laneSeq) {
					break
				}
				if s.at < k.now {
					panic("sim: event scheduled in the past")
				}
				k.curTick = t0
				k.bhead[idx] = -1
				k.masks[0] = m &^ (1 << uint(idx))
				k.now = s.at
				id = bid
				goto fire
			}
		}
		if !k.loadCur() {
			if hasLane {
				break
			}
			return false
		}
	}
	// Lane head wins: consume it. Turn entries carry their payload in
	// the lane item itself — no slot to read or vacate.
	{
		l := k.lane[k.lhead]
		k.lhead++
		if k.lhead == len(k.lane) {
			k.resetLane()
		}
		if l.kind == evTurn {
			k.steps++
			if k.sink != nil {
				k.sink.Dispatch(k.now, l.seq, evTurn, l.id)
			}
			c := k.tasks[l.id]
			if p := c.inline; p != nil {
				p.runTurn()
			} else {
				c.turnFn()
			}
			return true
		}
		id = l.id
	}
fire:
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
	case evTurn:
		c := k.tasks[arg]
		if p := c.inline; p != nil {
			p.runTurn()
		} else {
			c.turnFn()
		}
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
	for {
		if k.skipStaleLane() {
			if k.now > until {
				break
			}
		} else if k.regN > 0 {
			// Peek inline: the front register holds the earliest timed
			// event, so the boundary check needs no full reload.
			if k.reg[0].at > until {
				break
			}
		} else if timed, ok := k.nextTimed(); !ok || timed.at > until {
			break
		}
		k.Step()
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

// heapLess orders pending events by time, then scheduling sequence.
func heapLess(a, b heapItem) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}
