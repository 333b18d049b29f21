package sim

import "fmt"

// The kernel schedules two process representations behind one interface:
//
//   - Proc: a goroutine that runs in strict alternation with the kernel,
//     parking and resuming through channel handoffs. Convenient — bodies
//     are ordinary blocking Go code — but every park/resume cycle costs
//     two goroutine context switches (~1 µs), which dominates the kernel
//     hot path at sweep scale.
//   - InlineProc: a resumable state machine (explicit step function plus
//     continuation state) that the kernel executes directly on its own
//     goroutine. A turn is a function call; parking is returning. No
//     goroutine, no channels.
//
// Everything the scheduler primitives (Timer, Gate, Server, and the
// resource models built on them) need from a process lives in taskCore,
// which both representations embed, so those layers are
// representation-agnostic: they arm waits and deliver wakes through the
// core and never care how the process body is expressed.

// procState tracks where a process is in its lifecycle.
type procState int

const (
	procRunning     procState = iota // currently executing its turn
	procParked                       // blocked, waiting for a wake
	procWakePending                  // wake event scheduled but not yet run
	procDead                         // body returned
)

// cancelKind tags how a parked process's current wait can be undone. It
// replaces the closure-valued cancel hook of the original design so the
// blocking hot paths (Hold, Gate.Wait) stay allocation-free.
type cancelKind int8

const (
	// cancelNone marks an uncancellable section (e.g. a CPU burst or a
	// dispatched disk transfer); interrupts are deferred to its
	// completion.
	cancelNone cancelKind = iota
	// cancelTimer: the wait is a Hold; cancelling stops the hold timer,
	// leaving a tombstone the heap drops at its root or compacts away.
	cancelTimer
	// cancelGate: the wait is a Gate queue entry; cancelling unlinks
	// the embedded wait record from its gate.
	cancelGate
	// cancelPlain marks a wait entered via Park/StartPark, the only kind
	// of wait that Wake may resume; Wake must never tear a process out
	// of a timer or a scheduler queue.
	cancelPlain
	// cancelRide: the wait is a slot-free hold whose wake rides on a
	// resource's completion (Kernel.AtCompleteRide). holdSeq is the
	// wake's reserved sequence number; cancelling reports it to the sink
	// and leaves the completion to deliver nothing.
	cancelRide
)

// outcome is what a wake delivers to a parked process.
type outcome struct {
	interrupted bool
}

// Task is the representation-agnostic handle to a simulation process.
// Both *Proc (goroutine-backed) and *InlineProc (state-machine) satisfy
// it; scheduler owners (gates, servers, disks) and controllers hold
// Tasks so they work identically with either representation. The
// interface is closed: only this package's process types implement it.
//
// All methods must be called from simulation context (the kernel loop or
// a process turn); the package is not safe for arbitrary goroutines.
type Task interface {
	// Name returns the process name given at spawn.
	Name() string
	// Kernel returns the kernel this process belongs to.
	Kernel() *Kernel
	// Now returns the current simulation time.
	Now() float64
	// Wake resumes a process blocked in a plain park (Park/StartPark).
	// Waking a process in any other state is a no-op, so callers may
	// wake liberally. Waits owned by a Gate or Server can only be ended
	// by the owning primitive. For a timed wake, schedule Kernel.AtWake.
	Wake()
	// Interrupt aborts the process's current blocking operation. A
	// cancellable wait (hold, plain park, gate queue, or the wait on an
	// idle disk's direct transfer, which is a hold riding on the
	// transfer's completion) is torn down and resumes immediately with
	// an interrupted outcome; the direct transfer itself still completes
	// on the disk's timeline. An uncancellable section (a CPU burst, or
	// a disk transfer dispatched from the queue) completes first and
	// then reports the interruption. Interrupting a dead process is a
	// no-op.
	Interrupt()
	// Dead reports whether the process body has finished.
	Dead() bool
	// StartHold arms a cancellable timed wake after dt simulated
	// seconds and reports whether the wait was entered; false means a
	// pending interrupt consumed it instead (no timer armed). The
	// caller must park immediately on true: a Proc by blocking, an
	// InlineProc by returning Park from the current frame.
	StartHold(dt float64) bool
	// StartPark arms a plain cancellable wait (ended by Wake, Interrupt
	// or a scheduled AtWake) and reports whether it was entered; false
	// means a pending interrupt consumed it. The caller must park
	// immediately on true, exactly as for StartHold.
	StartPark() bool
	// PendingInterrupt reports whether an interrupt is deferred to the
	// process's next blocking point, which will consume and report it.
	PendingInterrupt() bool

	// core exposes the shared scheduling state; it also closes the
	// interface to this package's implementations.
	core() *taskCore
}

// taskCore is the scheduling state shared by both process
// representations. Spawn registers the core with the kernel, which
// assigns tid — the index typed events carry instead of a pointer or a
// closure; dispatch devirtualizes through the inline field (set only by
// SpawnInline) and falls back to turnFn for goroutine Procs.
type taskCore struct {
	k    *Kernel
	name string
	self Task // the concrete representation, for Waiting.Task

	tid    int32       // index in Kernel.tasks, the typed-event payload
	inline *InlineProc // non-nil for the inline representation: turns call runTurn directly
	state  procState
	// pendingInterrupt records an Interrupt that could not resume the
	// process immediately (it was running, mid-service, or already had a
	// wake in flight); the next blocking point reports it.
	pendingInterrupt bool
	// cancel describes how to undo the wait the process is parked in;
	// cancelNone means an uncancellable section.
	cancel cancelKind
	// holdID/holdSeq identify the pending wake event of the current hold
	// (cancelTimer): a pointer-free handle, so arming a hold stores no
	// pointer and crosses no write barrier. A ride (cancelRide) uses
	// holdSeq alone: its wake has a sequence number but no slot.
	holdID  int32
	holdSeq uint64
	// wait is the process's gate queue entry, embedded so queueing never
	// allocates; a process occupies at most one gate at a time, and the
	// entry is recycled wait after wait (see Gate).
	wait Waiting
	// turnFn runs one turn of a goroutine-backed Proc; inline processes
	// bypass it (Step calls runTurn through the inline field).
	turnFn func()
	// wakeOutcome is consumed by the pending wake event.
	wakeOutcome outcome
}

func (c *taskCore) core() *taskCore { return c }

// Name returns the process name given at spawn.
func (c *taskCore) Name() string { return c.name }

// Kernel returns the kernel this process belongs to.
func (c *taskCore) Kernel() *Kernel { return c.k }

// Now returns the current simulation time.
func (c *taskCore) Now() float64 { return c.k.now }

// Dead reports whether the process body has finished.
func (c *taskCore) Dead() bool { return c.state == procDead }

// PendingInterrupt reports a deferred interrupt; see Task.PendingInterrupt.
func (c *taskCore) PendingInterrupt() bool { return c.pendingInterrupt }

// takePendingInterrupt consumes a deferred interrupt, if any.
func (c *taskCore) takePendingInterrupt() bool {
	if c.pendingInterrupt {
		c.pendingInterrupt = false
		return true
	}
	return false
}

// deliverWake schedules the resumption of a parked process.
func (c *taskCore) deliverWake(interrupted bool) {
	switch c.state {
	case procParked:
		c.state = procWakePending
		c.wakeOutcome = outcome{interrupted: interrupted}
		c.k.schedTurn(c)
	case procWakePending:
		if interrupted {
			c.pendingInterrupt = true
		}
	case procDead:
		// Late wake for a finished process: drop it.
	case procRunning:
		panic("sim: wake delivered to a running process")
	}
}

// StartHold arms a cancellable timed wake; see Task.StartHold.
func (c *taskCore) StartHold(dt float64) bool {
	if !(dt >= 0) {
		panic(fmt.Sprintf("sim: negative or NaN hold %g", dt))
	}
	if c.takePendingInterrupt() {
		return false
	}
	c.holdID, c.holdSeq = c.k.schedWake(dt, c)
	c.cancel = cancelTimer
	return true
}

// startRide arms a ride: a hold with no timed wake event of its own,
// ended by the completion it rides on (Kernel.DeliverRide) or by an
// interrupt. It reserves the sequence number the wake event would have
// taken and reports whether the wait was entered, like StartHold.
func (c *taskCore) startRide() bool {
	if c.takePendingInterrupt() {
		return false
	}
	c.holdSeq = c.k.seq
	c.k.seq++
	c.cancel = cancelRide
	return true
}

// StartPark arms a plain cancellable wait; see Task.StartPark.
func (c *taskCore) StartPark() bool {
	if c.takePendingInterrupt() {
		return false
	}
	c.cancel = cancelPlain
	return true
}

// Wake resumes a process blocked in a plain park; see Task.Wake.
func (c *taskCore) Wake() {
	if c.state == procParked && c.cancel == cancelPlain {
		c.cancel = cancelNone
		c.deliverWake(false)
	}
}

// Interrupt aborts the current blocking operation; see Task.Interrupt.
func (c *taskCore) Interrupt() {
	switch c.state {
	case procParked:
		switch c.cancel {
		case cancelNone:
			c.pendingInterrupt = true
		case cancelTimer:
			c.cancel = cancelNone
			c.k.stopEvent(c.holdID, c.holdSeq)
			c.deliverWake(true)
		case cancelRide:
			c.cancel = cancelNone
			if s := c.k.sink; s != nil {
				s.Cancel(c.k.now, c.holdSeq)
			}
			c.deliverWake(true)
		case cancelGate:
			c.cancel = cancelNone
			c.wait.gate.remove(&c.wait)
			c.deliverWake(true)
		case cancelPlain:
			c.cancel = cancelNone
			c.deliverWake(true)
		}
	case procWakePending, procRunning:
		c.pendingInterrupt = true
	case procDead:
	}
}
