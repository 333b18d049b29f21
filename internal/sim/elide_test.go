package sim

import (
	"math"
	"testing"
)

// burstFrame runs one StartUse burst on its own server and records how
// it ended. inTurn, when set, runs in the same turn just before the
// burst starts.
type burstFrame struct {
	FrameState
	p       *Proc
	s       *Server
	service float64
	inTurn  func()

	done, ok, elided bool
	doneAt           float64
}

func (f *burstFrame) Step(m *Machine, ok bool) Status {
	switch f.PC {
	case 0:
		if f.inTurn != nil {
			f.inTurn()
		}
		f.PC = 1
		var entered bool
		if entered, ok = f.s.StartUse(f.p, 0, f.service); entered {
			return Park
		}
		f.elided = ok
		fallthrough
	default:
		f.done, f.ok, f.doneAt = true, ok, f.p.Now()
		return m.Return(ok)
	}
}

// spawnBurst spawns a process that starts a 2-second burst at time 0.
func spawnBurst(k *Kernel, inTurn func()) *burstFrame {
	f := &burstFrame{s: NewServer(k, "cpu"), service: 2, inTurn: inTurn}
	f.p = k.Spawn("burst", f)
	return f
}

// checkBurst asserts the burst finished at time 2 with the wanted
// elision outcome, and that Steps counts the spawn turn plus the
// completion and resumed turn whichever path ran.
func checkBurst(t *testing.T, k *Kernel, f *burstFrame, wantElided bool) {
	t.Helper()
	if !f.done || !f.ok || f.doneAt != 2 {
		t.Fatalf("burst done=%v ok=%v at %g, want ok at 2", f.done, f.ok, f.doneAt)
	}
	if f.elided != wantElided {
		t.Fatalf("elided = %v, want %v", f.elided, wantElided)
	}
	want := uint64(0)
	if wantElided {
		want = 1
	}
	if got := k.Elided(); got != want {
		t.Fatalf("Elided() = %d, want %d", got, want)
	}
	if f.s.Meter().BusyTime() != 2 || f.s.busy {
		t.Fatalf("server busy=%v for %g s, want idle after 2 s", f.s.busy, f.s.Meter().BusyTime())
	}
}

// TestElisionAtRunUntilElided: a completion exactly at Run's until is
// inside the bound, so it is elided and the process finishes in its
// spawn turn.
func TestElisionAtRunUntilElided(t *testing.T) {
	k := NewKernel()
	f := spawnBurst(k, nil)
	k.Run(2)
	checkBurst(t, k, f, true)
	if k.Steps() != 3 {
		t.Fatalf("steps = %d, want 3 (spawn turn + elided completion and turn)", k.Steps())
	}
}

// TestElisionPastRunUntilNotElided: a completion one ulp past until
// stays queued; the clock clamps to until and the completion fires on
// the next Run.
func TestElisionPastRunUntilNotElided(t *testing.T) {
	k := NewKernel()
	f := spawnBurst(k, nil)
	until := math.Nextafter(2, 0)
	k.Run(until)
	if f.done || k.Now() != until {
		t.Fatalf("done=%v at clock %g, want parked at clock %g", f.done, k.Now(), until)
	}
	k.Run(10)
	checkBurst(t, k, f, false)
	if k.Steps() != 3 {
		t.Fatalf("steps = %d, want 3", k.Steps())
	}
}

// TestElisionTimedTieNotElided: a timed event at the completion's
// instant carries a lower sequence number and must fire first, so the
// completion is not elided.
func TestElisionTimedTieNotElided(t *testing.T) {
	k := NewKernel()
	var f *burstFrame
	tieFirst := false
	at(k, 2, func() { tieFirst = !f.done })
	f = spawnBurst(k, nil)
	k.Run(10)
	checkBurst(t, k, f, false)
	if !tieFirst {
		t.Fatal("the burst finished before the earlier-scheduled event at its instant")
	}
}

// TestElisionPendingLaneNotElided: a pending zero-delay event must fire
// before the completion, so the completion is not elided.
func TestElisionPendingLaneNotElided(t *testing.T) {
	k := NewKernel()
	f := spawnBurst(k, nil)
	firedAt := -1.0
	at(k, 0, func() { firedAt = k.Now() })
	k.Run(10)
	checkBurst(t, k, f, false)
	if firedAt != 0 {
		t.Fatalf("lane event fired at %g, want 0", firedAt)
	}
}

// TestElisionPendingInterruptNotElided: a caller with a pending
// interrupt takes the normal path, and the interrupt is reported.
func TestElisionPendingInterruptNotElided(t *testing.T) {
	k := NewKernel()
	var f *burstFrame
	f = spawnBurst(k, func() { f.p.Interrupt() })
	k.Run(10)
	if !f.done || f.ok || f.elided || f.doneAt != 0 {
		t.Fatalf("burst done=%v ok=%v elided=%v at %g, want interrupted at 0",
			f.done, f.ok, f.elided, f.doneAt)
	}
	if k.Elided() != 0 || f.s.busy {
		t.Fatalf("Elided() = %d, server busy = %v; want 0, idle", k.Elided(), f.s.busy)
	}
}
