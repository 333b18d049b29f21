package sim

import "testing"

// holdWakeFrame is the inline counterpart of the BenchmarkHoldWake body:
// an endless Hold(1) / Park alternation that exits on interrupt.
type holdWakeFrame struct {
	FrameState
	t      Task
	cycles int
}

func (f *holdWakeFrame) Step(m *Machine, ok bool) Status {
	for {
		switch f.PC {
		case 0:
			f.PC = 1
			if f.t.StartHold(1) {
				return Park
			}
			ok = false
		case 1:
			if !ok {
				return m.Return(false)
			}
			f.PC = 2
			if f.t.StartPark() {
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

// TestInlineMirrorsProc locks the two process representations together:
// the same hold/park/wake/interrupt scenario, driven step by step on two
// kernels, must produce identical clocks, step counts and lifecycles.
func TestInlineMirrorsProc(t *testing.T) {
	kg := NewKernel()
	pg := kg.Spawn("gproc", func(p *Proc) {
		for {
			if !p.Hold(1) {
				return
			}
			if !p.Park() {
				return
			}
		}
	})
	ki := NewKernel()
	f := &holdWakeFrame{}
	pi := ki.SpawnInline("iproc", f)
	f.t = pi

	step := func() {
		gb, ib := kg.Step(), ki.Step()
		if gb != ib {
			t.Fatalf("step availability diverged: proc %v, inline %v", gb, ib)
		}
		if kg.Now() != ki.Now() || kg.Steps() != ki.Steps() {
			t.Fatalf("kernels diverged: proc (t=%g, steps=%d), inline (t=%g, steps=%d)",
				kg.Now(), kg.Steps(), ki.Now(), ki.Steps())
		}
	}

	step() // spawn turn: both park in Hold
	for i := 0; i < 5; i++ {
		step() // hold timer fires, wake scheduled
		step() // resumes, parks in Park
		pg.Wake()
		pi.Wake()
		step() // resumes, parks in Hold again
	}
	if f.cycles != 5 {
		t.Fatalf("inline machine completed %d cycles, want 5", f.cycles)
	}
	pg.Interrupt()
	pi.Interrupt()
	kg.Drain()
	ki.Drain()
	if kg.Steps() != ki.Steps() {
		t.Fatalf("final steps diverged: proc %d, inline %d", kg.Steps(), ki.Steps())
	}
	if !pg.Dead() || !pi.Dead() {
		t.Fatalf("processes not dead: proc %v, inline %v", pg.Dead(), pi.Dead())
	}
	if kg.LiveProcs() != 0 || ki.LiveProcs() != 0 {
		t.Fatalf("live procs leaked: proc kernel %d, inline kernel %d", kg.LiveProcs(), ki.LiveProcs())
	}
}

// TestInlinePendingInterrupt verifies the deferred-interrupt window: an
// Interrupt delivered while the machine is running (wake pending) must
// surface at the next blocking point, which is consumed without parking.
func TestInlinePendingInterrupt(t *testing.T) {
	k := NewKernel()
	f := &holdWakeFrame{}
	p := k.SpawnInline("victim", f)
	f.t = p
	k.Step() // spawn turn: parks in Hold(1)
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
	t    Task
	g    *Gate
	prio float64
	got  bool
}

func (f *gateWaitFrame) Step(m *Machine, ok bool) Status {
	switch f.PC {
	case 0:
		f.PC = 1
		if f.g.Enqueue(f.t, f.prio, nil, 0) {
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
// inline waiters mixed with a goroutine waiter on the same gate.
func TestInlineGateEnqueue(t *testing.T) {
	k := NewKernel()
	g := NewGate(k, "mixed")
	fa := &gateWaitFrame{g: g, prio: 2}
	pa := k.SpawnInline("a", fa)
	fa.t = pa
	gotB := false
	k.Spawn("b", func(p *Proc) { gotB = g.Wait(p, 1, nil) })
	fc := &gateWaitFrame{g: g, prio: 3}
	pc := k.SpawnInline("c", fc)
	fc.t = pc
	for i := 0; i < 3; i++ {
		k.Step() // spawn turns: all three queue
	}
	if g.Len() != 3 {
		t.Fatalf("gate len = %d, want 3", g.Len())
	}
	// Owner picks the lowest Prio (the goroutine proc), releases it.
	var best *Waiting
	for w := g.First(); w != nil; w = w.Next() {
		if best == nil || w.Prio < best.Prio {
			best = w
		}
	}
	if best.Task().Name() != "b" {
		t.Fatalf("best waiter = %q, want b", best.Task().Name())
	}
	g.Release(best)
	// Interrupt one inline waiter while queued: removed, Wait outcome false.
	pc.Interrupt()
	k.Drain()
	if !gotB {
		t.Fatal("released goroutine waiter did not observe success")
	}
	if fc.got {
		t.Fatal("interrupted inline waiter observed success")
	}
	if g.Len() != 1 || g.First().Task().Name() != "a" {
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
	t       Task
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
		if entered, ok = f.s.StartUse(f.t, f.prio, f.service); entered {
			return Park
		}
		fallthrough
	default:
		f.got = ok
		return m.Return(ok)
	}
}

// TestInlineServerStartUse exercises the direct and queued service paths
// with inline requesters and checks busy-time accounting matches the
// blocking path's semantics.
func TestInlineServerStartUse(t *testing.T) {
	k := NewKernel()
	s := NewServer(k, "srv")
	fa := &serverUseFrame{s: s, prio: 2, service: 3}
	pa := k.SpawnInline("a", fa)
	fa.t = pa
	fb := &serverUseFrame{s: s, prio: 1, service: 2}
	pb := k.SpawnInline("b", fb)
	fb.t = pb
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
	t Task
	n int
}

func (f *childFrame) Step(m *Machine, ok bool) Status {
	switch f.PC {
	case 0:
		f.PC = 1
		if f.t.StartHold(1) {
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
	p := k.SpawnInline("nested", parent)
	child.t = p
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
