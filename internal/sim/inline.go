package sim

// A process body is a stack of Frames — explicit activation records
// with a program counter (FrameState) and locals promoted to struct
// fields — that the kernel steps directly on its own goroutine. A turn
// is a function call into the top frame; parking is returning Park
// from it. There is no goroutine and no channel per process.
//
// A frame's Step runs from its program counter until it does one of
// three things:
//
//   - parks: it arms one wait (Proc.StartHold, Proc.StartPark,
//     Gate.Enqueue, Server.StartUse, or a resource Start* built on
//     them), records where to resume, and returns Park when the call
//     reports the wait entered; the next Step receives ok=false when
//     the wait was interrupted. A call that reports the wait not
//     entered finished within the call, and the frame goes on in the
//     same turn with the ok it reported;
//   - calls a child: it returns m.Call(child) and receives the child's
//     result in ok when the child returns;
//   - returns: it finishes with m.Return(ok).
//
// A frame enters a child only when it can block; the child's step 0 and
// its callers share one entry test (see Frames in the package doc).

// Status is what a frame's Step reports to the machine driver.
type Status int8

const (
	// Ret: the frame finished; the machine pops it and resumes the
	// parent with the result passed to Machine.Return.
	Ret Status = iota
	// Park: the process parked. The frame must have armed exactly one
	// wait (StartHold, StartPark, Gate.Enqueue, or a resource Start*)
	// immediately before returning Park, and must have set its PC to
	// the resumption point.
	Park
	// Call: the frame pushed a child with Machine.Call (which returns
	// this status) and resumes when the child returns.
	Call
)

// Frame is one resumable activation record of a process. Step runs the
// frame from its current program counter until it parks, calls a child
// frame, or returns. ok carries the result of whatever completed since
// the last Step: the child's return value after a Call, or the wake
// outcome (false = interrupted) after a Park; on first entry it is true
// and meaningless. Frames embed FrameState, which both stores the
// program counter and ties the interface to this package's driver.
type Frame interface {
	Step(m *Machine, ok bool) Status
	setPC(int32)
}

// FrameState is the continuation state every frame embeds: the frame's
// program counter. Frames dispatch on PC at the top of Step and assign
// it before parking or calling. Machine.Call resets it, so a parent may
// re-enter the same frame value repeatedly (frames are per-process
// singletons reused across calls — the hot path never allocates).
type FrameState struct{ PC int32 }

func (f *FrameState) setPC(pc int32) { f.PC = pc }

// Machine drives a process's frame stack.
type Machine struct {
	stack []Frame
	ret   bool
}

// Call pushes child and transfers control to it; the caller must return
// the Call status this yields, and is resumed with the child's result
// once it returns. The child's program counter is reset, so frame values
// are freely reusable across calls (but must not appear twice on the
// stack at once).
func (m *Machine) Call(child Frame) Status {
	child.setPC(0)
	m.stack = append(m.stack, child)
	return Call
}

// Return finishes the current frame with result ok; the caller must
// return the Ret status this yields.
func (m *Machine) Return(ok bool) Status {
	m.ret = ok
	return Ret
}

// Spawn starts a process whose body is the given root frame. The body
// begins executing at the current simulation time, after
// already-scheduled events at this time; the process is dead once the
// root frame returns. On an arena-backed kernel, the process record and
// its frame stack come from the arena, so replicates after the first
// spawn allocation-free.
func (k *Kernel) Spawn(name string, root Frame) *Proc {
	var p *Proc
	if a := k.arena; a != nil {
		p = SlabFor[Proc](a).Alloc()
		st := SlabFor[[8]Frame](a).Alloc()
		p.m.stack = append(st[:0], root)
	} else {
		p = &Proc{}
		p.m.stack = append(make([]Frame, 0, 8), root)
	}
	p.k = k
	p.name = name
	p.state = procWakePending
	root.setPC(0)
	k.registerTask(p)
	k.procs++
	k.schedTurn(p)
	return p
}

// runTurn executes one turn of the machine: it steps frames until one
// parks (the process waits for its wake) or the stack empties (the
// process is dead). A resumed turn first consumes the armed cancel
// state and folds a deferred interrupt into the wake's outcome; the
// very first turn is an entry, not the completion of a wait.
func (p *Proc) runTurn() {
	p.state = procRunning
	ok := true
	if p.started {
		p.cancel = cancelNone
		ok = !p.wakeInterrupted
		if p.pendingInterrupt {
			ok = false
			p.pendingInterrupt = false
		}
	} else {
		p.started = true
	}
	// The drive loop keeps the top frame and stack index in locals: each
	// iteration is one indirect call plus a switch, with no slice reload
	// and no write barrier. Popped slots are not nilled — frames are
	// per-process singletons the process already keeps alive, so leaving
	// a stale interface word below the stack pointer retains nothing
	// extra; Call overwrites it on the next push.
	m := &p.m
	sp := len(m.stack) - 1
	top := m.stack[sp]
	for {
		switch top.Step(m, ok) {
		case Park:
			p.state = procParked
			return
		case Call:
			ok = true
			sp = len(m.stack) - 1
			top = m.stack[sp]
		case Ret:
			m.stack = m.stack[:sp]
			ok = m.ret
			if sp == 0 {
				p.state = procDead
				p.k.procs--
				return
			}
			sp--
			top = m.stack[sp]
		default:
			panic("sim: frame returned an invalid status")
		}
	}
}

// Script is a ready-made Frame for ad-hoc processes (tests, tools): a
// fixed sequence of stages run in order. Each stage must end its turn
// the way any frame step does — park after arming a wait, call a child
// frame with m.Call, or finish with m.Return — and the next stage
// receives the outcome in ok. A script that runs past its last stage
// returns the last outcome.
type Script struct {
	FrameState
	Stages []func(m *Machine, ok bool) Status
}

// Step runs the next stage.
func (f *Script) Step(m *Machine, ok bool) Status {
	if int(f.PC) >= len(f.Stages) {
		return m.Return(ok)
	}
	i := f.PC
	f.PC++
	return f.Stages[i](m, ok)
}
