package core

import (
	"math"
	"testing"

	"pmm/internal/query"
)

func newFair(probe Probe, weights []float64, n int) *FairPMM {
	return NewFair(DefaultConfig(), FairnessConfig{Weights: weights}, n, probe)
}

// term feeds one termination of a class.
func term(f *FairPMM, class int, missed bool) {
	q := &query.Query{
		Class: class, Arrival: 0, Deadline: 100, StandAlone: 20,
		MaxMem: 500, ReadIOs: 100, Admitted: true, AdmitTime: 1, FinishTime: 50,
	}
	f.OnTermination(q, !missed)
}

func TestDeficitFavorsLaggingClass(t *testing.T) {
	f := newFair(&fakeProbe{}, nil, 2)
	// Class 0 misses a lot, class 1 rarely.
	for i := 0; i < 20; i++ {
		term(f, 0, i%2 == 0) // 50% missed
		term(f, 1, false)    // 0% missed
	}
	if d0, d1 := f.deficit(0), f.deficit(1); d0 <= 0 || d1 >= 0 {
		t.Fatalf("deficits d0=%.2f d1=%.2f; class 0 should be boosted", d0, d1)
	}
}

func TestWeightsShiftTheFairPoint(t *testing.T) {
	// Administrator tolerates class 1 missing 3× as often: with class 1
	// missing at 30% and class 0 at 10%, normalized ratios are equal and
	// no deficit should register.
	f := newFair(&fakeProbe{}, []float64{1, 3}, 2)
	for i := 0; i < 40; i++ {
		term(f, 0, i%10 == 0) // 10%
		term(f, 1, i%10 < 3)  // 30%
	}
	if d := math.Abs(f.deficit(0)); d > 0.08 {
		t.Fatalf("weighted classes should be near parity; deficit %.3f", d)
	}
}

func TestFairAllocateBoostsPriority(t *testing.T) {
	f := newFair(&fakeProbe{}, nil, 2)
	// Class 1 is being starved. Stay under SampleSize terminations so
	// the base PMM remains in its initial Max mode (all-or-nothing
	// grants make the priority flip visible).
	for i := 0; i < 14; i++ {
		term(f, 0, false)
		term(f, 1, true)
	}
	// Two queries, identical needs; class 0's deadline slightly earlier.
	q0 := &query.Query{ID: 1, Class: 0, Arrival: 0, Deadline: 100, MinMem: 40, MaxMem: 900}
	q1 := &query.Query{ID: 2, Class: 1, Arrival: 0, Deadline: 110, MinMem: 40, MaxMem: 900}
	grants := make([]int, 2)
	f.Allocate([]*query.Query{q0, q1}, 1000, grants)
	// Max mode, only one fits: the boosted class-1 query should win
	// despite its later deadline.
	if grants[1] == 0 {
		t.Fatalf("lagging class not boosted: grants %v", grants)
	}
	if grants[0] != 0 {
		t.Fatalf("memory for one: grants %v", grants)
	}
}

func TestFairAllocateNeutralWithoutDeficit(t *testing.T) {
	f := newFair(&fakeProbe{}, nil, 2)
	for i := 0; i < 20; i++ {
		term(f, 0, i%5 == 0)
		term(f, 1, i%5 == 0)
	}
	q0 := &query.Query{ID: 1, Class: 0, Arrival: 0, Deadline: 100, MinMem: 40, MaxMem: 900}
	q1 := &query.Query{ID: 2, Class: 1, Arrival: 0, Deadline: 110, MinMem: 40, MaxMem: 900}
	grants := make([]int, 2)
	f.Allocate([]*query.Query{q0, q1}, 1000, grants)
	if grants[0] == 0 {
		t.Fatalf("balanced classes must keep plain ED order: %v", grants)
	}
}

func TestFairAllocateEmptyAndGrantsAlign(t *testing.T) {
	f := newFair(&fakeProbe{}, nil, 1)
	f.Allocate(nil, 100, nil) // empty present: nothing to grant, no panic
	qs := []*query.Query{
		{ID: 1, Class: 0, Deadline: 10, MinMem: 10, MaxMem: 50},
		{ID: 2, Class: 0, Deadline: 20, MinMem: 10, MaxMem: 50},
		{ID: 3, Class: 0, Deadline: 30, MinMem: 10, MaxMem: 50},
	}
	grants := []int{-1, -1, -1} // Allocate must overwrite every entry
	f.Allocate(qs, 100, grants)
	sum := 0
	for i, g := range grants {
		if g != 0 && (g < qs[i].MinMem || g > qs[i].MaxMem) {
			t.Fatalf("grant %d out of range", g)
		}
		sum += g
	}
	if sum > 100 {
		t.Fatalf("over-committed: %v", grants)
	}
}

func TestFairnessIndex(t *testing.T) {
	if got := FairnessIndex([]float64{0.2, 0.2}, nil); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal ratios index %g", got)
	}
	unfair := FairnessIndex([]float64{0.5, 0.05}, nil)
	if unfair >= 0.9 {
		t.Fatalf("skewed ratios index %g, want well below 1", unfair)
	}
	// Weights normalize away an intended skew.
	if got := FairnessIndex([]float64{0.1, 0.3}, []float64{1, 3}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("weighted index %g", got)
	}
	if got := FairnessIndex([]float64{0.5}, nil); got != 1 {
		t.Fatalf("single class index %g", got)
	}
}

func TestFairPMMName(t *testing.T) {
	f := newFair(&fakeProbe{}, nil, 2)
	if f.Name() != "FairPMM" {
		t.Fatalf("name %q", f.Name())
	}
	if len(f.ClassMissRatios()) != 2 {
		t.Fatal("class ratios length")
	}
}
