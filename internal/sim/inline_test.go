package sim

import "testing"

// step is one step of a test process written in straight-line form
// (stepFrame). It runs plain code and may arm one wait, returning what
// the Start* call reported: entered=true parks the process until the
// wait ends; entered=false hands res to the next step at once, as the
// outcome of a wait that finished within the call.
type step func(p *Proc, ok bool) (entered, res bool)

// stepFrame runs steps in order: the frame form of a body of blocking
// calls. Each step receives the outcome of the wait before it (true for
// the first), and the frame returns the last outcome.
type stepFrame struct {
	FrameState
	p     *Proc
	steps []step
}

func (f *stepFrame) Step(m *Machine, ok bool) Status {
	for int(f.PC) < len(f.steps) {
		s := f.steps[f.PC]
		f.PC++
		var entered bool
		if entered, ok = s(f.p, ok); entered {
			return Park
		}
	}
	return m.Return(ok)
}

// spawnSteps spawns a process that runs steps in order.
func spawnSteps(k *Kernel, name string, steps ...step) *Proc {
	f := &stepFrame{steps: steps}
	f.p = k.Spawn(name, f)
	return f.p
}

// hold, park, use and enqueue are steps that arm one wait each.
func hold(dt float64) step {
	return func(p *Proc, _ bool) (bool, bool) { return p.StartHold(dt), false }
}

func park() step {
	return func(p *Proc, _ bool) (bool, bool) { return p.StartPark(), false }
}

func use(s *Server, prio, service float64) step {
	return func(p *Proc, _ bool) (bool, bool) { return s.StartUse(p, prio, service) }
}

func enqueue(g *Gate, prio float64, data any, val float64) step {
	return func(p *Proc, _ bool) (bool, bool) { return g.Enqueue(p, prio, data, val), false }
}

// then is a step that runs fn with the outcome of the wait before it
// and passes that outcome on.
func then(fn func(p *Proc, ok bool)) step {
	return func(p *Proc, ok bool) (bool, bool) {
		fn(p, ok)
		return false, ok
	}
}

// holdWakeFrame alternates a 1-second hold and a plain park until a
// wait is interrupted.
type holdWakeFrame struct {
	FrameState
	p      *Proc
	cycles int
}

func (f *holdWakeFrame) Step(m *Machine, ok bool) Status {
	for {
		switch f.PC {
		case 0:
			f.PC = 1
			if f.p.StartHold(1) {
				return Park
			}
			ok = false
		case 1:
			if !ok {
				return m.Return(false)
			}
			f.PC = 2
			if f.p.StartPark() {
				return Park
			}
			ok = false
		case 2:
			if !ok {
				return m.Return(false)
			}
			f.cycles++
			f.PC = 0
		}
	}
}

// TestInlinePendingInterrupt verifies the deferred-interrupt window: an
// Interrupt delivered while the machine is running (wake pending) must
// surface at the next blocking point, which is consumed without parking.
func TestInlinePendingInterrupt(t *testing.T) {
	k := NewKernel()
	f := &holdWakeFrame{}
	p := k.Spawn("victim", f)
	f.p = p
	k.Step() // spawn turn: parks in its 1-second hold
	p.Interrupt()
	if p.Dead() {
		t.Fatal("interrupt resumed the process synchronously")
	}
	k.Drain()
	if !p.Dead() {
		t.Fatal("interrupted hold did not finish the process")
	}
	if f.cycles != 0 {
		t.Fatalf("cycles = %d, want 0", f.cycles)
	}
	if got := k.Now(); got != 0 {
		t.Fatalf("clock advanced to %g; interrupted hold should fire at 0", got)
	}
}

// gateWaitFrame queues at a gate once and records the outcome.
type gateWaitFrame struct {
	FrameState
	p    *Proc
	g    *Gate
	prio float64
	got  bool
}

func (f *gateWaitFrame) Step(m *Machine, ok bool) Status {
	switch f.PC {
	case 0:
		f.PC = 1
		if f.g.Enqueue(f.p, f.prio, nil, 0) {
			return Park
		}
		ok = false
		fallthrough
	default:
		f.got = ok
		return m.Return(ok)
	}
}

// TestInlineGateEnqueue drives gate release and gate interrupt against
// waiters of two frame kinds on one gate: hand-written frames (a, c)
// and a step list (b).
func TestInlineGateEnqueue(t *testing.T) {
	k := NewKernel()
	g := NewGate(k, "mixed")
	fa := &gateWaitFrame{g: g, prio: 2}
	pa := k.Spawn("a", fa)
	fa.p = pa
	gotB := false
	spawnSteps(k, "b", enqueue(g, 1, nil, 0), then(func(_ *Proc, ok bool) { gotB = ok }))
	fc := &gateWaitFrame{g: g, prio: 3}
	pc := k.Spawn("c", fc)
	fc.p = pc
	for i := 0; i < 3; i++ {
		k.Step() // spawn turns: all three queue
	}
	if g.Len() != 3 {
		t.Fatalf("gate len = %d, want 3", g.Len())
	}
	// Owner picks the lowest Prio (b), releases it.
	var best *Waiting
	for w := g.First(); w != nil; w = w.Next() {
		if best == nil || w.Prio < best.Prio {
			best = w
		}
	}
	if best.Proc().Name() != "b" {
		t.Fatalf("best waiter = %q, want b", best.Proc().Name())
	}
	g.Release(best)
	// Interrupt one frame waiter while queued: removed, outcome false.
	pc.Interrupt()
	k.Drain()
	if !gotB {
		t.Fatal("released step-list waiter did not observe success")
	}
	if fc.got {
		t.Fatal("interrupted frame waiter observed success")
	}
	if g.Len() != 1 || g.First().Proc().Name() != "a" {
		t.Fatalf("gate should still hold only a; len=%d", g.Len())
	}
	if pa.Dead() {
		t.Fatal("waiter a should still be parked")
	}
	g.Release(g.First())
	k.Drain()
	if !fa.got || !pa.Dead() {
		t.Fatal("waiter a did not complete after release")
	}
}

// serverUseFrame runs one StartUse request and records the outcome.
type serverUseFrame struct {
	FrameState
	p       *Proc
	s       *Server
	prio    float64
	service float64
	got     bool
}

func (f *serverUseFrame) Step(m *Machine, ok bool) Status {
	switch f.PC {
	case 0:
		f.PC = 1
		var entered bool
		if entered, ok = f.s.StartUse(f.p, f.prio, f.service); entered {
			return Park
		}
		fallthrough
	default:
		f.got = ok
		return m.Return(ok)
	}
}

// TestInlineServerStartUse exercises the direct and queued service paths
// and checks busy-time accounting: 3 s served directly, then 2 s from
// the queue.
func TestInlineServerStartUse(t *testing.T) {
	k := NewKernel()
	s := NewServer(k, "srv")
	fa := &serverUseFrame{s: s, prio: 2, service: 3}
	pa := k.Spawn("a", fa)
	fa.p = pa
	fb := &serverUseFrame{s: s, prio: 1, service: 2}
	pb := k.Spawn("b", fb)
	fb.p = pb
	k.Drain()
	if !fa.got || !fb.got {
		t.Fatalf("service outcomes = %v, %v; want true, true", fa.got, fb.got)
	}
	if got := k.Now(); got != 5 {
		t.Fatalf("clock = %g, want 5 (3s direct + 2s queued)", got)
	}
	if got := s.Meter().BusyTime(); got != 5 {
		t.Fatalf("busy time = %g, want 5", got)
	}
}

// callFrames: parent calls a child frame twice and sums results the
// child computes across a park, verifying Call/Return plumbing and frame
// reuse (the child's PC is reset by each Call).
type childFrame struct {
	FrameState
	p *Proc
	n int
}

func (f *childFrame) Step(m *Machine, ok bool) Status {
	switch f.PC {
	case 0:
		f.PC = 1
		if f.p.StartHold(1) {
			return Park
		}
		ok = false
		fallthrough
	default:
		f.n++
		return m.Return(ok)
	}
}

type parentFrame struct {
	FrameState
	child *childFrame
	runs  int
	final bool
}

func (f *parentFrame) Step(m *Machine, ok bool) Status {
	for {
		switch f.PC {
		case 0: // entry: first call
			f.PC = 1
			return m.Call(f.child)
		case 1: // first result: call again (reuses the child frame)
			if ok {
				f.runs++
			}
			f.PC = 2
			return m.Call(f.child)
		default: // second result
			if ok {
				f.runs++
			}
			f.final = ok
			return m.Return(ok)
		}
	}
}

func TestInlineCallStack(t *testing.T) {
	k := NewKernel()
	child := &childFrame{}
	parent := &parentFrame{child: child}
	p := k.Spawn("nested", parent)
	child.p = p
	k.Drain()
	if !p.Dead() {
		t.Fatal("process did not finish")
	}
	if child.n != 2 || parent.runs != 2 || !parent.final {
		t.Fatalf("child ran %d times (want 2), parent observed %d (want 2), final %v",
			child.n, parent.runs, parent.final)
	}
	if got := k.Now(); got != 2 {
		t.Fatalf("clock = %g, want 2", got)
	}
}
