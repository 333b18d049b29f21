package sim

import "fmt"

// Proc is the goroutine-backed process representation: a goroutine that
// runs in strict alternation with the kernel, so bodies are ordinary
// blocking Go code. It is the compatibility layer for tests and ad-hoc
// processes; hot production bodies use InlineProc, which eliminates the
// two channel handoffs each Proc turn costs. All Proc methods must be
// called from simulation context (the kernel loop or another process's
// turn); the package is not safe for use from arbitrary goroutines.
type Proc struct {
	taskCore
	resume   chan outcome
	yield    chan struct{}
	panicVal any
}

// Spawn starts body as a new goroutine-backed process. The body begins
// executing at the current simulation time, after already-scheduled
// events at this time.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{
		resume: make(chan outcome),
		yield:  make(chan struct{}),
	}
	p.k = k
	p.name = name
	p.self = p
	p.state = procWakePending
	p.turnFn = p.runTurn
	k.registerTask(&p.taskCore)
	k.procs++
	go func() {
		defer func() {
			if r := recover(); r != nil {
				p.panicVal = r
			}
			p.state = procDead
			p.k.procs--
			p.yield <- struct{}{}
		}()
		<-p.resume
		body(p)
	}()
	k.schedTurn(&p.taskCore)
	return p
}

// runTurn hands control to the process goroutine and waits for it to
// yield back. Any panic in the process body is re-raised in the kernel
// so tests fail loudly instead of deadlocking.
func (p *Proc) runTurn() {
	p.state = procRunning
	p.resume <- p.wakeOutcome
	<-p.yield
	if p.panicVal != nil {
		panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, p.panicVal))
	}
}

// park blocks the calling process until a wake is delivered. The caller
// must have arranged for a wake (timer, gate grant, Wake) and set
// p.cancel appropriately before parking.
func (p *Proc) park() outcome {
	p.state = procParked
	p.yield <- struct{}{}
	out := <-p.resume
	p.cancel = cancelNone
	if p.pendingInterrupt {
		out.interrupted = true
		p.pendingInterrupt = false
	}
	return out
}

// Await blocks the process in the wait that its last Start* call
// entered (StartHold, StartPark, Gate.Enqueue, Server.StartUse, or a
// resource access built on them) and returns false iff the wait was
// interrupted. It is the blocking half a Start* call leaves to its
// caller, so call it only after that call reported entered=true.
func (p *Proc) Await() (ok bool) {
	return !p.park().interrupted
}

// Hold suspends the process for dt simulated seconds. It returns false
// if the process was interrupted before the time elapsed.
func (p *Proc) Hold(dt float64) (ok bool) {
	if !p.StartHold(dt) {
		return false
	}
	return p.Await()
}

// Park blocks until another component calls Wake or Interrupt.
// It returns false if woken by Interrupt.
func (p *Proc) Park() (ok bool) {
	if !p.StartPark() {
		return false
	}
	return p.Await()
}
