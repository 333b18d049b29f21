package sim

// Gate is a building block for custom schedulers: processes wait at the
// gate, and the gate's owner inspects the waiters and decides whom to
// release, in what order, and whether the release enters an uncancellable
// service section. The CPU (Server) and the disks are built on Gate.
//
// The wait queue is an intrusive doubly-linked list threaded through
// Waiting records embedded in each process (Proc.wait), kept in
// (Prio, arrival) order: an Earliest-Deadline owner finds its pick at
// the head. Queueing walks from the head past the waiters whose Prio is
// not higher. Under deadline priorities the process queueing is most
// often the most urgent one, back for its next request, so the walk is
// short. Releasing and interrupt removal are O(1), and nothing
// allocates. A process occupies at most one gate at a time; its record
// is recycled wait after wait, which means a *Waiting handle is only
// valid while the wait it was obtained for is still queued or in
// service — exactly the window in which owners act on handles.
//
// A waiter interrupted while queued is removed from the gate
// automatically and its Wait call returns false; the owner simply never
// sees it again when iterating the queue.
type Gate struct {
	k    *Kernel
	name string
	seq  uint64
	head *Waiting
	n    int
}

// Waiting is one process queued at a Gate.
type Waiting struct {
	task       *taskCore
	gate       *Gate
	next, prev *Waiting
	seq        uint64
	// Prio is the caller-supplied priority (lower is more urgent under
	// Earliest Deadline). The gate keeps its queue in (Prio, arrival)
	// order; owners decide whom to release.
	Prio float64
	// Val is a float payload the owner attached via WaitVal (service
	// times take this lane to avoid boxing them into Data).
	Val float64
	// Data is an arbitrary payload the owner attached via Wait.
	Data any

	removed   bool
	inService bool
}

// NewGate returns an empty gate on kernel k. The name appears in
// diagnostics only.
func NewGate(k *Kernel, name string) *Gate {
	return &Gate{k: k, name: name}
}

// Task returns the waiting process, whichever representation backs it.
func (w *Waiting) Task() Task { return w.task.self }

// Seq returns the arrival sequence number, unique and increasing per gate.
func (w *Waiting) Seq() uint64 { return w.seq }

// Next returns the waiter after w in (Prio, arrival) order, for
// in-place iteration: for w := g.First(); w != nil; w = w.Next() { ... }.
// The queue must not be mutated mid-iteration; owners scan, pick, then
// call Release or BeginService.
func (w *Waiting) Next() *Waiting { return w.next }

// Len returns the number of queued (not in-service) waiters.
func (g *Gate) Len() int { return g.n }

// First returns the head of the queue: the waiter with the lowest Prio,
// first arrival among ties, or nil for an empty gate.
func (g *Gate) First() *Waiting { return g.head }

// Waiters returns the queued processes in (Prio, arrival) order. The
// slice is a snapshot; entries released or interrupted after the call
// become stale and are ignored by Release/BeginService — but only until
// the entry's process queues again, because records are recycled (see
// the Gate doc). Owners must act on handles within the same simulation
// event that obtained them, before any waiter can unwind and re-queue;
// both in-tree owners (Server, Disk) do so. Hot paths should iterate
// via First/Next instead, which allocates nothing.
func (g *Gate) Waiters() []*Waiting {
	out := make([]*Waiting, 0, g.n)
	for w := g.head; w != nil; w = w.next {
		out = append(out, w)
	}
	return out
}

// MinWaiter returns the queued waiter with the lowest Prio, first
// arrival among ties, or nil for an empty gate: the Earliest-Deadline
// pick, which the queue's order puts at its head.
func (g *Gate) MinWaiter() *Waiting { return g.head }

// remove unlinks w from the queue, preserving order. Every dequeue —
// release, service entry, interrupt removal — funnels here, so it is
// also where a trace sink observes the wait ending.
func (g *Gate) remove(w *Waiting) {
	if w.removed {
		return
	}
	if s := g.k.sink; s != nil {
		s.WaitEnd(g.k.now, g.name, w.task.tid)
	}
	if w.prev != nil {
		w.prev.next = w.next
	} else {
		g.head = w.next
	}
	if w.next != nil {
		w.next.prev = w.prev
	}
	w.next, w.prev = nil, nil
	w.removed = true
	g.n--
}

// enqueue links a task's embedded wait record into the queue, after
// every waiter whose Prio is not higher, and marks its wait cancellable
// by unlinking. Both the blocking and the inline entry points funnel
// here, so the two representations queue identically. The record is
// reset field by field: assigning a whole Waiting literal compiles to a
// block copy, which showed in CPU profiles of overloaded runs.
func (g *Gate) enqueue(c *taskCore, prio float64, data any, val float64) {
	w := &c.wait
	w.task, w.gate = c, g
	w.seq = g.seq
	w.Prio, w.Val, w.Data = prio, val, data
	w.removed, w.inService = false, false
	g.seq++
	var prev *Waiting
	next := g.head
	for next != nil && next.Prio <= prio {
		prev, next = next, next.next
	}
	w.prev, w.next = prev, next
	if prev == nil {
		g.head = w
	} else {
		prev.next = w
	}
	if next != nil {
		next.prev = w
	}
	g.n++
	c.cancel = cancelGate
	if s := g.k.sink; s != nil {
		s.WaitBegin(g.k.now, g.name, c.tid, prio)
	}
}

// wait queues the calling process and parks until released.
func (g *Gate) wait(p *Proc, prio float64, data any, val float64) bool {
	if p.takePendingInterrupt() {
		return false
	}
	g.enqueue(&p.taskCore, prio, data, val)
	return p.Await()
}

// Enqueue is the inline-process counterpart of Wait/WaitVal: it queues t
// at the gate without blocking and reports whether the wait was entered
// (false means a pending interrupt consumed it and nothing was queued).
// On true the caller must park immediately — an inline frame by
// returning Park with its PC set to the resumption point — and is woken
// by the owner's Release/EndService or unwound by Interrupt, with the
// outcome delivered to the next Step exactly as Wait's return value.
func (g *Gate) Enqueue(t Task, prio float64, data any, val float64) bool {
	c := t.core()
	if c.takePendingInterrupt() {
		return false
	}
	g.enqueue(c, prio, data, val)
	return true
}

// Wait queues the calling process at the gate with the given priority and
// payload, then parks. It returns true when released by the owner and
// false when interrupted while queued (the entry is removed) or
// interrupted during a service section begun with BeginService (the
// service completes first).
func (g *Gate) Wait(p *Proc, prio float64, data any) bool {
	return g.wait(p, prio, data, 0)
}

// WaitVal is Wait with a float payload (read back via Waiting.Val); it
// exists so hot paths need not box numeric payloads into Data.
func (g *Gate) WaitVal(p *Proc, prio, val float64) bool {
	return g.wait(p, prio, nil, val)
}

// Release removes w from the queue and wakes its process. It reports
// false if w was already released or interrupted (a stale handle).
func (g *Gate) Release(w *Waiting) bool {
	if w.removed || w.gate != g {
		return false
	}
	g.remove(w)
	w.task.deliverWake(false)
	return true
}

// BeginService removes w from the queue but leaves its process parked in
// an uncancellable section; the owner must later call EndService. It
// reports false for stale handles.
func (g *Gate) BeginService(w *Waiting) bool {
	if w.removed || w.gate != g || w.inService {
		return false
	}
	g.remove(w)
	w.inService = true
	// The process keeps waiting but can no longer be torn out of the
	// queue: mark its wait uncancellable so interrupts defer to
	// EndService.
	w.task.cancel = cancelNone
	return true
}

// EndService wakes a process whose service section (started with
// BeginService) has completed. Deferred interrupts are reported by the
// waiter's Wait call.
func (g *Gate) EndService(w *Waiting) {
	if !w.inService {
		panic("sim: EndService without BeginService")
	}
	w.inService = false
	w.task.deliverWake(false)
}
