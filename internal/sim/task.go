package sim

// Proc is a simulation process: a stack of frames (inline.go) that the
// kernel steps on its own goroutine, plus the scheduling state every
// wait primitive arms and ends. Spawn registers the process with the
// kernel, which assigns tid — the index typed events carry instead of a
// pointer or a closure — and a turn is a direct call to runTurn.
//
// All methods must be called from simulation context (the kernel loop or
// a process turn); the package is not safe for arbitrary goroutines.
type Proc struct {
	k    *Kernel
	name string

	tid   int32 // index in Kernel.tasks, the typed-event payload
	state procState
	// pendingInterrupt records an Interrupt that could not resume the
	// process immediately (it was running, mid-service, or already had a
	// wake in flight); the next blocking point reports it.
	pendingInterrupt bool
	// cancel describes how to undo the wait the process is parked in;
	// cancelNone means an uncancellable section.
	cancel cancelKind
	// wakeInterrupted is the outcome the pending wake delivers: true
	// when it ends the wait by interrupt.
	wakeInterrupted bool
	started         bool // the first turn has run
	// holdSeq is the sequence number of the current hold's wake
	// (cancelHold), whether a timed wake event or a ride's reserved one.
	// A wake is live only while it matches (holding).
	holdSeq uint64
	// wait is the process's gate queue entry, embedded so queueing never
	// allocates; a process occupies at most one gate at a time, and the
	// entry is recycled wait after wait (see Gate).
	wait Waiting
	m    Machine
}

// procState tracks where a process is in its lifecycle.
type procState int8

const (
	procRunning     procState = iota // currently executing its turn
	procParked                       // blocked, waiting for a wake
	procWakePending                  // wake event scheduled but not yet run
	procDead                         // root frame returned
)

// cancelKind tags how a parked process's current wait can be undone. It
// is a tag rather than a closure-valued hook so arming a wait stays
// allocation-free.
type cancelKind int8

const (
	// cancelNone marks an uncancellable section (e.g. a CPU burst or a
	// dispatched disk transfer); interrupts are deferred to its
	// completion.
	cancelNone cancelKind = iota
	// cancelHold: the wait is a hold, timed (StartHold) or riding on a
	// resource's completion (Kernel.AtCompleteRide), whose wake carries
	// holdSeq. Cancelling reports holdSeq to the sink and leaves the wake
	// to find the hold gone and deliver nothing.
	cancelHold
	// cancelGate: the wait is a Gate queue entry; cancelling unlinks
	// the embedded wait record from its gate.
	cancelGate
	// cancelPlain marks a wait entered via StartPark, the only kind of
	// wait that Wake may resume; Wake must never tear a process out of
	// a hold or a scheduler queue.
	cancelPlain
)

// Name returns the process name given at spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulation time.
func (p *Proc) Now() float64 { return p.k.now }

// Dead reports whether the process has finished: its root frame
// returned.
func (p *Proc) Dead() bool { return p.state == procDead }

// PendingInterrupt reports whether an interrupt is deferred to the
// process's next blocking point, which will consume and report it.
func (p *Proc) PendingInterrupt() bool { return p.pendingInterrupt }

// takePendingInterrupt consumes a deferred interrupt, if any.
func (p *Proc) takePendingInterrupt() bool {
	if p.pendingInterrupt {
		p.pendingInterrupt = false
		return true
	}
	return false
}

// deliverWake schedules the resumption of a parked process.
func (p *Proc) deliverWake(interrupted bool) {
	switch p.state {
	case procParked:
		p.state = procWakePending
		p.wakeInterrupted = interrupted
		p.k.schedTurn(p)
	case procWakePending:
		if interrupted {
			p.pendingInterrupt = true
		}
	case procDead:
		// Late wake for a finished process: drop it.
	case procRunning:
		panic("sim: wake delivered to a running process")
	}
}

// StartHold arms a cancellable timed wake after dt simulated seconds
// and reports whether the wait was entered; false means a pending
// interrupt consumed it instead (no wake scheduled). On true the frame
// must return Park at once. A negative or NaN dt panics.
func (p *Proc) StartHold(dt float64) bool {
	checkDelay(dt)
	if p.takePendingInterrupt() {
		return false
	}
	p.holdSeq = p.k.sched(dt, evWake, p.tid)
	p.cancel = cancelHold
	return true
}

// holding reports whether the hold wake with sequence number seq is
// live: the process still waits in that very hold. An interrupt that
// ends a hold leaves its wake queued (timed) or its completion due
// (ride), and this test is how the wake learns to deliver nothing.
func (p *Proc) holding(seq uint64) bool {
	return p.state == procParked && p.cancel == cancelHold && p.holdSeq == seq
}

// StartPark arms a plain cancellable wait, ended by Wake or Interrupt,
// and reports whether it was entered; false means a pending interrupt
// consumed it. On true the frame must return Park at once, exactly as
// for StartHold.
func (p *Proc) StartPark() bool {
	if p.takePendingInterrupt() {
		return false
	}
	p.cancel = cancelPlain
	return true
}

// Wake resumes a process parked in a plain wait (StartPark). Waking a
// process in any other state is a no-op, so callers may wake liberally.
// Waits owned by a Gate or Server can only be ended by the owning
// primitive. For a timed wait, use StartHold.
func (p *Proc) Wake() {
	if p.state == procParked && p.cancel == cancelPlain {
		p.cancel = cancelNone
		p.deliverWake(false)
	}
}

// Interrupt aborts the process's current wait. A cancellable wait
// (hold, plain park, gate queue, or the wait on an idle disk's direct
// transfer, which is a hold riding on the transfer's completion) is
// torn down and resumes at once with an interrupted outcome; a hold's
// wake stays queued and delivers nothing when it comes up, and the
// direct transfer itself still completes on the disk's timeline. An
// uncancellable section (a CPU burst, or a disk transfer dispatched
// from the queue) completes first and then reports the interruption.
// An interrupt that finds the process running or already waking is
// deferred to its next blocking point. Interrupting a dead process is a
// no-op.
func (p *Proc) Interrupt() {
	switch p.state {
	case procParked:
		switch p.cancel {
		case cancelNone:
			p.pendingInterrupt = true
		case cancelHold:
			p.cancel = cancelNone
			if s := p.k.sink; s != nil {
				s.Cancel(p.k.now, p.holdSeq)
			}
			p.deliverWake(true)
		case cancelGate:
			p.cancel = cancelNone
			p.wait.gate.remove(&p.wait)
			p.deliverWake(true)
		case cancelPlain:
			p.cancel = cancelNone
			p.deliverWake(true)
		}
	case procWakePending, procRunning:
		p.pendingInterrupt = true
	case procDead:
	}
}
