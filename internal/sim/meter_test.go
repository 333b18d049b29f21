package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBusyMeterBasics(t *testing.T) {
	k := NewKernel()
	m := NewBusyMeter(k)
	at(k, 1, func() { m.SetBusy(true) })
	at(k, 4, func() { m.SetBusy(false) })
	k.Run(10)
	if got := m.BusyTime(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("busy time %g, want 3", got)
	}
	if got := m.Utilization(0, 0); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("utilization %g, want 0.3", got)
	}
}

func TestBusyMeterRedundantTransitions(t *testing.T) {
	k := NewKernel()
	m := NewBusyMeter(k)
	at(k, 1, func() { m.SetBusy(true) })
	at(k, 2, func() { m.SetBusy(true) }) // no-op
	at(k, 3, func() { m.SetBusy(false) })
	at(k, 4, func() { m.SetBusy(false) }) // no-op
	k.Run(5)
	if got := m.BusyTime(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("busy time %g, want 2", got)
	}
}

func TestBusyMeterOpenInterval(t *testing.T) {
	k := NewKernel()
	m := NewBusyMeter(k)
	at(k, 2, func() { m.SetBusy(true) })
	k.Run(10)
	if !m.Busy() {
		t.Fatal("should still be busy")
	}
	if got := m.BusyTime(); math.Abs(got-8) > 1e-12 {
		t.Fatalf("open-interval busy time %g, want 8", got)
	}
}

func TestTimeWeightedAverage(t *testing.T) {
	k := NewKernel()
	tw := NewTimeWeighted(k)
	at(k, 0, func() { tw.Set(2) })
	at(k, 5, func() { tw.Set(4) })
	k.Run(10)
	// 2 for 5s, 4 for 5s: average 3.
	if got := tw.Average(0, 0); math.Abs(got-3) > 1e-12 {
		t.Fatalf("average %g, want 3", got)
	}
	if tw.Level() != 4 {
		t.Fatalf("level %g", tw.Level())
	}
}

func TestTimeWeightedWindow(t *testing.T) {
	k := NewKernel()
	tw := NewTimeWeighted(k)
	at(k, 0, func() { tw.Set(10) })
	k.Run(5)
	start, area0 := k.Now(), tw.Area()
	at(k, 0, func() { tw.Set(20) })
	k.Run(10)
	if got := tw.Average(start, area0); math.Abs(got-20) > 1e-12 {
		t.Fatalf("window average %g, want 20", got)
	}
}

func TestTimeWeightedAddDelta(t *testing.T) {
	k := NewKernel()
	tw := NewTimeWeighted(k)
	tw.Add(3)
	tw.Add(-1)
	if tw.Level() != 2 {
		t.Fatalf("level %g", tw.Level())
	}
}

// Property: for any sequence of level changes at increasing times, the
// time-weighted average lies within [min level, max level].
func TestTimeWeightedBoundsProperty(t *testing.T) {
	f := func(levels []uint8) bool {
		if len(levels) == 0 {
			return true
		}
		k := NewKernel()
		tw := NewTimeWeighted(k)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, l := range levels {
			lvl := float64(l % 50)
			if lvl < lo {
				lo = lvl
			}
			if lvl > hi {
				hi = lvl
			}
			at(k, float64(i+1), func() { tw.Set(lvl) })
		}
		k.Run(float64(len(levels) + 5))
		avg := tw.Average(1, 0) // from the first change
		// The level before the first change is 0; include it in bounds.
		if 0 < lo {
			lo = 0
		}
		return avg >= lo-1e-9 && avg <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
