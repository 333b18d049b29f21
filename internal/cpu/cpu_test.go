package cpu

import (
	"math"
	"testing"

	"pmm/internal/sim"
)

// burstFrame runs one burst on a CPU, then calls done (if non-nil) with
// the burst's outcome.
type burstFrame struct {
	sim.FrameState
	p                  *sim.Proc
	c                  *CPU
	prio, instructions float64
	done               func(p *sim.Proc, ok bool)
}

func (f *burstFrame) Step(m *sim.Machine, ok bool) sim.Status {
	if f.PC == 0 {
		f.PC = 1
		var entered bool
		if entered, ok = f.c.StartRun(f.p, f.prio, f.instructions); entered {
			return sim.Park
		}
	}
	if f.done != nil {
		f.done(f.p, ok)
	}
	return m.Return(ok)
}

// spawnRun spawns a process that runs one burst on c; see burstFrame.
func spawnRun(k *sim.Kernel, name string, c *CPU, prio, instructions float64, done func(p *sim.Proc, ok bool)) *sim.Proc {
	f := &burstFrame{c: c, prio: prio, instructions: instructions, done: done}
	f.p = k.Spawn(name, f)
	return f.p
}

func TestSecondsConversion(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, 40)
	if got := c.Seconds(40e6); math.Abs(got-1) > 1e-12 {
		t.Fatalf("40M instructions at 40 MIPS = %g s, want 1", got)
	}
	if c.MIPS() != 40 {
		t.Fatalf("MIPS = %g", c.MIPS())
	}
}

func TestRunConsumesTime(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, 40)
	var done float64
	spawnRun(k, "worker", c, 1, 80e6, func(p *sim.Proc, ok bool) {
		if !ok {
			t.Error("unexpected interrupt")
		}
		done = p.Now()
	})
	k.Drain()
	if math.Abs(done-2) > 1e-9 {
		t.Fatalf("80M instructions finished at %g, want 2", done)
	}
	if got := c.Meter().BusyTime(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("busy time %g", got)
	}
}

func TestZeroInstructionsFree(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, 40)
	spawnRun(k, "worker", c, 1, 0, func(p *sim.Proc, ok bool) {
		if !ok {
			t.Error("zero-cost run failed")
		}
		if p.Now() != 0 {
			t.Errorf("zero instructions took %g s", p.Now())
		}
	})
	k.Drain()
}

func TestEDOrderOnCPU(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, 1)
	var order []string
	spawnRun(k, "first", c, 0, 5e6, nil)
	k.At(1, func() {
		spawnRun(k, "late-deadline", c, 100, 1e6, func(*sim.Proc, bool) {
			order = append(order, "late")
		})
		spawnRun(k, "early-deadline", c, 10, 1e6, func(*sim.Proc, bool) {
			order = append(order, "early")
		})
	})
	k.Drain()
	if len(order) != 2 || order[0] != "early" {
		t.Fatalf("ED order violated: %v", order)
	}
}

func TestNegativeInstructionsPanics(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, 40)
	spawnRun(k, "worker", c, 1, -5, nil)
	// StartRun panics in the worker's turn, which Drain runs.
	defer func() {
		if recover() == nil {
			t.Error("negative instruction count did not panic")
		}
	}()
	k.Drain()
}

func TestCostTableValues(t *testing.T) {
	// The Table 4 constants are load-bearing for calibration; pin them.
	if CostStartIO != 1000 || CostInitQuery != 40000 || CostTermQuery != 10000 {
		t.Fatal("common operation costs drifted from Table 4")
	}
	if CostHashBuild != 100 || CostHashProbe != 200 || CostHashCopy != 100 {
		t.Fatal("hash join costs drifted from Table 4")
	}
	if CostSortCopy != 64 || CostCompare != 50 {
		t.Fatal("sort costs drifted from Table 4")
	}
}
