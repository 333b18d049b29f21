package core

import (
	"testing"

	"pmm/internal/query"
)

// fakeProbe is a scriptable Probe.
type fakeProbe struct {
	now    float64
	util   float64
	mpl    float64
	resets int
}

func (f *fakeProbe) Now() float64             { return f.now }
func (f *fakeProbe) MaxResourceUtil() float64 { return f.util }
func (f *fakeProbe) AvgMPL() float64          { return f.mpl }
func (f *fakeProbe) ResetWindow()             { f.resets++ }

// feed pushes one batch of terminations with the given miss count and
// per-query characteristics.
func feed(p *PMM, n, missed int, maxMem, readIOs int, constraint, wait, exec float64) {
	for i := 0; i < n; i++ {
		q := &query.Query{
			Arrival:    0,
			Deadline:   constraint,
			StandAlone: constraint / 5,
			MaxMem:     maxMem,
			ReadIOs:    readIOs,
			Admitted:   true,
			AdmitTime:  wait,
			FinishTime: wait + exec,
		}
		completed := i >= missed
		p.OnTermination(q, completed)
	}
}

func newPMM(probe Probe) *PMM {
	cfg := DefaultConfig()
	cfg.SampleSize = 30
	return New(cfg, probe)
}

func TestInitialModeIsMax(t *testing.T) {
	p := newPMM(&fakeProbe{})
	if p.Mode() != ModeMax || p.Target() != 0 {
		t.Fatalf("fresh PMM mode=%v target=%d", p.Mode(), p.Target())
	}
}

func TestSwitchToMinMaxWhenAllConditionsHold(t *testing.T) {
	probe := &fakeProbe{util: 0.20, mpl: 1.8}
	p := newPMM(probe)
	// Misses, low utilization, positive waits, positive slack.
	feed(p, 30, 5, 1300, 1200, 160, 12, 40)
	if p.Mode() != ModeMinMax {
		t.Fatalf("mode = %v, want MinMax", p.Mode())
	}
	if p.Target() < 2 {
		t.Fatalf("RU target %d, want several (util 0.2 at MPL ~2)", p.Target())
	}
	if probe.resets != 1 {
		t.Fatalf("window resets = %d", probe.resets)
	}
}

func TestNoSwitchWithoutMisses(t *testing.T) {
	probe := &fakeProbe{util: 0.2, mpl: 1.8}
	p := newPMM(probe)
	feed(p, 30, 0, 1300, 1200, 160, 12, 40)
	if p.Mode() != ModeMax {
		t.Fatal("switched to MinMax despite zero misses")
	}
}

func TestNoSwitchWhenResourcesBusy(t *testing.T) {
	probe := &fakeProbe{util: 0.9, mpl: 1.8} // above UtilHigh: bottleneck
	p := newPMM(probe)
	feed(p, 30, 5, 1300, 1200, 160, 12, 40)
	if p.Mode() != ModeMax {
		t.Fatal("switched to MinMax despite saturated resources")
	}
}

func TestNoSwitchWithoutWaiting(t *testing.T) {
	probe := &fakeProbe{util: 0.2, mpl: 1.8}
	p := newPMM(probe)
	feed(p, 30, 5, 1300, 1200, 160, 0, 40) // zero admission waits
	if p.Mode() != ModeMax {
		t.Fatal("switched to MinMax despite no memory contention")
	}
}

func TestNoSwitchWithoutSlack(t *testing.T) {
	probe := &fakeProbe{util: 0.2, mpl: 1.8}
	p := newPMM(probe)
	feed(p, 30, 5, 1300, 1200, 160, 12, 170) // exec beyond constraint
	if p.Mode() != ModeMax {
		t.Fatal("switched to MinMax despite exhausted time constraints")
	}
}

func TestProjectionSteersTargetToBowlMinimum(t *testing.T) {
	probe := &fakeProbe{util: 0.2, mpl: 2}
	p := newPMM(probe)
	feed(p, 30, 5, 1300, 1200, 160, 12, 40) // switch to MinMax
	if p.Mode() != ModeMinMax {
		t.Fatal("precondition failed")
	}
	// Feed batches tracing a bowl with minimum near MPL 10: miss ratios
	// high at 4, low at 10, high at 16.
	script := []struct {
		mpl  float64
		miss int
	}{{4, 12}, {10, 2}, {16, 14}, {10, 2}, {9, 3}, {11, 3}}
	for _, s := range script {
		probe.mpl = s.mpl
		probe.util = 0.5
		feed(p, 30, s.miss, 1300, 1200, 160, 1, 60)
	}
	if p.Mode() != ModeMinMax {
		t.Fatalf("mode = %v", p.Mode())
	}
	if p.Target() < 7 || p.Target() > 13 {
		t.Fatalf("projection target %d, want near the bowl minimum 10", p.Target())
	}
	// Trace should include bowl decisions.
	sawBowl := false
	for _, pt := range p.Trace() {
		if pt.Curve == "bowl" {
			sawBowl = true
		}
	}
	if !sawBowl {
		t.Fatal("no bowl classification in trace")
	}
}

func TestRevertToMaxWhenTargetDropsBelowMaxModeMPL(t *testing.T) {
	probe := &fakeProbe{util: 0.10, mpl: 5}
	p := newPMM(probe)
	// Two Max-mode batches with realized MPL 5 (no switch conditions).
	feed(p, 30, 0, 1300, 1200, 160, 0, 40)
	feed(p, 30, 0, 1300, 1200, 160, 0, 40)
	// Now conditions hold; switch to MinMax.
	probe.util = 0.2
	feed(p, 30, 5, 1300, 1200, 160, 12, 40)
	if p.Mode() != ModeMinMax {
		t.Fatal("precondition: should be MinMax")
	}
	// Feed batches where misses grow with MPL: projection pushes the
	// target down to 1–4, at or below the Max-mode realized MPL of 5.
	for _, s := range []struct {
		mpl  float64
		miss int
	}{{8, 10}, {12, 20}, {16, 28}} {
		probe.mpl = s.mpl
		feed(p, 30, s.miss, 1300, 1200, 160, 1, 60)
		if p.Mode() == ModeMax {
			return // reverted as expected
		}
	}
	t.Fatalf("never reverted to Max; target %d, maxModeMPL %.1f", p.Target(), p.maxModeMPL.Mean())
}

func TestWorkloadChangeResets(t *testing.T) {
	probe := &fakeProbe{util: 0.2, mpl: 2}
	p := newPMM(probe)
	feed(p, 30, 5, 1300, 1200, 160, 12, 40)
	if p.Mode() != ModeMinMax {
		t.Fatal("precondition: MinMax")
	}
	feed(p, 30, 5, 1300, 1200, 160, 12, 40)
	// Now the workload changes drastically: tiny memory demands.
	feed(p, 30, 2, 110, 70, 30, 1, 5)
	if p.Restarts() != 1 {
		t.Fatalf("restarts = %d, want 1", p.Restarts())
	}
	if p.Mode() != ModeMax {
		t.Fatalf("mode after restart = %v, want Max", p.Mode())
	}
	last := p.Trace()[len(p.Trace())-1]
	if !last.Restart {
		t.Fatal("trace point not flagged as restart")
	}
	// Stable continuation of the new workload must not re-trigger.
	feed(p, 30, 2, 110, 70, 30, 1, 5)
	if p.Restarts() != 1 {
		t.Fatalf("false re-trigger: restarts = %d", p.Restarts())
	}
}

func TestStableWorkloadNoFalseRestart(t *testing.T) {
	probe := &fakeProbe{util: 0.3, mpl: 3}
	p := newPMM(probe)
	for i := 0; i < 10; i++ {
		feed(p, 30, 1, 1300, 1200, 160, 2, 40)
	}
	if p.Restarts() != 0 {
		t.Fatalf("identical batches caused %d restarts", p.Restarts())
	}
}

func TestAllocateDispatchesByMode(t *testing.T) {
	probe := &fakeProbe{util: 0.2, mpl: 1.5}
	p := newPMM(probe)
	present := []*query.Query{
		{ID: 1, Deadline: 10, MinMem: 40, MaxMem: 1200},
		{ID: 2, Deadline: 20, MinMem: 40, MaxMem: 1200},
		{ID: 3, Deadline: 30, MinMem: 40, MaxMem: 1200},
	}
	grants := make([]int, len(present))
	p.Allocate(present, 2560, grants)
	// Max mode: all-or-nothing.
	if grants[0] != 1200 || grants[1] != 1200 || grants[2] != 0 {
		t.Fatalf("Max-mode grants %v", grants)
	}
	feed(p, 30, 5, 1300, 1200, 160, 12, 40) // switch to MinMax
	if p.Mode() != ModeMinMax {
		t.Fatal("precondition")
	}
	p.Allocate(present, 2560, grants)
	if grants[2] == 0 && p.Target() >= 3 {
		t.Fatalf("MinMax-mode should admit query 3 at min: %v (target %d)", grants, p.Target())
	}
}

func TestRUTargetUsesUtilizationLine(t *testing.T) {
	probe := &fakeProbe{util: 0.775 / 4, mpl: 2} // (UtilLow+UtilHigh)/2 / 4
	p := newPMM(probe)
	// RU: (0.70+0.85)/(2·0.19375)·2 = 8.
	if got := p.ruTarget(2); got != 8 {
		t.Fatalf("ruTarget = %d, want 8", got)
	}
}

func TestRUTargetClamped(t *testing.T) {
	probe := &fakeProbe{util: 1e-9, mpl: 50}
	cfg := DefaultConfig()
	cfg.MaxTarget = 100
	p := New(cfg, probe)
	if got := p.ruTarget(50); got != 100 {
		t.Fatalf("target %d not clamped to 100", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	p := New(Config{}, &fakeProbe{})
	if p.cfg.SampleSize != 30 || p.cfg.UtilLow != 0.70 || p.cfg.UtilHigh != 0.85 ||
		p.cfg.AdaptConf != 0.95 || p.cfg.ChangeConf != 0.99 {
		t.Fatalf("defaults not applied: %+v", p.cfg)
	}
}

func TestModeString(t *testing.T) {
	if ModeMax.String() != "Max" || ModeMinMax.String() != "MinMax" {
		t.Fatal("mode names wrong")
	}
}
