package sim

// Gate is a building block for custom schedulers: processes wait at the
// gate, and the gate's owner inspects the waiters and decides whom to
// release, in what order, and whether the release enters an uncancellable
// service section. The CPU (Server) and the disks are built on Gate.
//
// A process queues with Enqueue, which arms its wait without blocking;
// the process then parks, and the owner's Release or EndService (or an
// Interrupt) delivers the outcome to its next frame step.
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
// automatically and resumes with ok=false; the owner simply never sees
// it again when iterating the queue.
type Gate struct {
	k    *Kernel
	name string
	seq  uint64
	head *Waiting
	n    int
}

// Waiting is one process queued at a Gate.
type Waiting struct {
	proc       *Proc
	gate       *Gate
	next, prev *Waiting
	seq        uint64
	// Prio is the caller-supplied priority (lower is more urgent under
	// Earliest Deadline). The gate keeps its queue in (Prio, arrival)
	// order; owners decide whom to release.
	Prio float64
	// Val is a float payload attached at Enqueue (service times take
	// this lane to avoid boxing them into Data).
	Val float64
	// Data is an arbitrary payload attached at Enqueue.
	Data any

	removed   bool
	inService bool
}

// NewGate returns an empty gate on kernel k. The name appears in
// diagnostics only.
func NewGate(k *Kernel, name string) *Gate {
	return &Gate{k: k, name: name}
}

// Proc returns the waiting process.
func (w *Waiting) Proc() *Proc { return w.proc }

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
		s.WaitEnd(g.k.now, g.name, w.proc.tid)
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

// Enqueue queues p at the gate with the given priority and payloads
// without blocking, and reports whether the wait was entered (false
// means a pending interrupt consumed it and nothing was queued). On
// true the caller must park at once — a frame by returning Park with
// its PC set to the resumption point. The wait ends with ok=true when
// the owner releases p (Release, or EndService after BeginService), and
// with ok=false when p is interrupted while queued (the entry is
// removed) or during a service section (the service completes first).
func (g *Gate) Enqueue(p *Proc, prio float64, data any, val float64) bool {
	if p.takePendingInterrupt() {
		return false
	}
	g.enqueue(p, prio, data, val)
	return true
}

// enqueue links p's embedded wait record into the queue, after every
// waiter whose Prio is not higher, and marks its wait cancellable by
// unlinking. The record is reset field by field: assigning a whole
// Waiting literal compiles to a block copy, which showed in CPU
// profiles of overloaded runs.
func (g *Gate) enqueue(p *Proc, prio float64, data any, val float64) {
	w := &p.wait
	w.proc, w.gate = p, g
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
	p.cancel = cancelGate
	if s := g.k.sink; s != nil {
		s.WaitBegin(g.k.now, g.name, p.tid, prio)
	}
}

// Release removes w from the queue and wakes its process. It reports
// false if w was already released or interrupted (a stale handle).
func (g *Gate) Release(w *Waiting) bool {
	if w.removed || w.gate != g {
		return false
	}
	g.remove(w)
	w.proc.deliverWake(false)
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
	w.proc.cancel = cancelNone
	return true
}

// EndService wakes a process whose service section (started with
// BeginService) has completed. An interrupt deferred during the section
// is reported in the wait's outcome.
func (g *Gate) EndService(w *Waiting) {
	if !w.inService {
		panic("sim: EndService without BeginService")
	}
	w.inService = false
	w.proc.deliverWake(false)
}
