package rtdbs

import (
	"math"
	"testing"

	"pmm/internal/catalog"
	"pmm/internal/query"
	"pmm/internal/workload"
)

// TestFirmDeadlineInvariant: in a firm RTDBS no query survives its
// deadline — every termination event happens at or before it, and the
// ledger balances (terminated = completed + missed ≤ arrived).
func TestFirmDeadlineInvariant(t *testing.T) {
	for _, pol := range []PolicyConfig{
		{Kind: PolicyMax}, {Kind: PolicyMinMax},
		{Kind: PolicyProportional}, {Kind: PolicyPMM},
	} {
		sys, err := New(baselineConfig(pol, 0.06, 2500))
		if err != nil {
			t.Fatal(err)
		}
		r := sys.Run()
		if r.Terminated != r.Completed+r.Missed {
			t.Fatalf("%s: ledger broken: %d ≠ %d+%d", r.Policy, r.Terminated, r.Completed, r.Missed)
		}
		if r.Terminated > r.Arrived {
			t.Fatalf("%s: more terminations than arrivals", r.Policy)
		}
		if r.AvgWait < 0 || r.AvgExec < 0 {
			t.Fatalf("%s: negative timings", r.Policy)
		}
		// Response never exceeds the largest possible time constraint:
		// slack 7.5 × the largest stand-alone time in the workload.
		gen := sys.Generator()
		maxConstraint := 7.5 * gen.JoinStandAlone(1800, 9000)
		if r.AvgResponse > maxConstraint {
			t.Fatalf("%s: avg response %.1f beyond any feasible constraint %.1f",
				r.Policy, r.AvgResponse, maxConstraint)
		}
		for _, ev := range r.Events {
			if ev.Time > r.Duration+1e-9 {
				t.Fatalf("%s: event after the horizon", r.Policy)
			}
		}
	}
}

// TestMemoryNeverOvercommitted exercises the buffer pool's panic guard
// end to end: if any policy over-committed, the run would crash.
func TestMemoryNeverOvercommitted(t *testing.T) {
	cfg := baselineConfig(PolicyConfig{Kind: PolicyMinMax}, 0.08, 2000)
	cfg.MemoryPages = 1400 // tight: a single large query barely fits
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := sys.Run()
	if r.Terminated == 0 {
		t.Fatal("nothing ran")
	}
}

// TestTinyMemoryStillServesSmallQueries: queries whose minimum exceeds M
// can never be admitted and must miss; smaller ones still complete.
func TestTinyMemoryStillServesSmallQueries(t *testing.T) {
	cfg := baselineConfig(PolicyConfig{Kind: PolicyMinMax}, 0.02, 4000)
	cfg.MemoryPages = 64 // joins need min ≈21–46 pages; all fit
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := sys.Run()
	if r.Completed == 0 {
		t.Fatal("64 pages should still complete some small joins")
	}
}

func TestPhasedWorkloadActivatesClasses(t *testing.T) {
	cfg := Config{
		Seed:     5,
		Duration: 4000,
		Groups: []catalog.GroupSpec{
			{RelPerDisk: 2, SizeRange: [2]int{100, 200}},
		},
		Classes: []workload.ClassSpec{
			{Name: "A", Kind: query.ExternalSort, RelGroups: []int{0},
				ArrivalRate: 0.5, SlackRange: [2]float64{2.5, 7.5}},
			{Name: "B", Kind: query.ExternalSort, RelGroups: []int{0},
				ArrivalRate: 0.5, SlackRange: [2]float64{2.5, 7.5}},
		},
		Phases: []Phase{
			{Duration: 2000, Rates: []float64{0.5, 0}},
			{Duration: 2000, Rates: []float64{0, 0.5}},
		},
		Policy: PolicyConfig{Kind: PolicyMinMax},
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := sys.Run()
	// Class A terminations must cluster in [0, 2000+grace), B after 2000.
	for _, ev := range r.Events {
		if ev.Class == 1 && ev.Time < 2000 {
			t.Fatalf("class B terminated at %.0f during phase 1", ev.Time)
		}
	}
	aRatio, aN := r.MissRatioBetween(0, 2300, 0)
	if aN == 0 {
		t.Fatal("class A never terminated in its phase")
	}
	_ = aRatio
	bN := 0
	for _, ev := range r.Events {
		if ev.Class == 1 {
			bN++
		}
	}
	if bN == 0 {
		t.Fatal("class B never ran in phase 2")
	}
}

func TestPhasesCycle(t *testing.T) {
	cfg := Config{
		Seed:     5,
		Duration: 9000, // 2¼ cycles of the 4000-second phase pair
		Groups: []catalog.GroupSpec{
			{RelPerDisk: 2, SizeRange: [2]int{100, 200}},
		},
		Classes: []workload.ClassSpec{
			{Name: "A", Kind: query.ExternalSort, RelGroups: []int{0},
				ArrivalRate: 0.5, SlackRange: [2]float64{2.5, 7.5}},
		},
		Phases: []Phase{
			{Duration: 2000, Rates: []float64{0.5}},
			{Duration: 2000, Rates: []float64{0}},
		},
		Policy: PolicyConfig{Kind: PolicyMinMax},
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := sys.Run()
	// Arrivals resume in the second cycle: some terminations in [4000,6300).
	if _, n := r.MissRatioBetween(4100, 6300, 0); n == 0 {
		t.Fatal("phases did not cycle")
	}
	// And none originate from the silent window (arrivals in [2000,4000)
	// would terminate by ≈4000+constraint; check the silent tail).
	if _, n := r.MissRatioBetween(3500, 4000, 0); n > 3 {
		t.Fatalf("unexpected activity in the silent phase")
	}
}

func TestMulticlassPerClassAccounting(t *testing.T) {
	cfg := Config{
		Seed:     6,
		Duration: 3000,
		Groups: []catalog.GroupSpec{
			{RelPerDisk: 3, SizeRange: [2]int{600, 1800}},
			{RelPerDisk: 3, SizeRange: [2]int{3000, 9000}},
			{RelPerDisk: 3, SizeRange: [2]int{50, 150}},
			{RelPerDisk: 3, SizeRange: [2]int{250, 750}},
		},
		Classes: []workload.ClassSpec{
			{Name: "Medium", Kind: query.HashJoin, RelGroups: []int{0, 1},
				ArrivalRate: 0.04, SlackRange: [2]float64{2.5, 7.5}},
			{Name: "Small", Kind: query.HashJoin, RelGroups: []int{2, 3},
				ArrivalRate: 0.5, SlackRange: [2]float64{2.5, 7.5}},
		},
		Policy: PolicyConfig{Kind: PolicyPMM},
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := sys.Run()
	if len(r.PerClass) != 2 {
		t.Fatalf("PerClass = %v", r.PerClass)
	}
	sum := 0
	for _, c := range r.PerClass {
		sum += c.Terminated
	}
	if sum != r.Terminated {
		t.Fatalf("per-class terminations %d ≠ %d", sum, r.Terminated)
	}
	if r.ClassMissRatio("Small") < 0 || r.ClassMissRatio("Medium") < 0 {
		t.Fatal("class lookup failed")
	}
	if r.ClassMissRatio("NoSuchClass") != -1 {
		t.Fatal("missing class should return -1")
	}
}

func TestMissRatioBetweenWindows(t *testing.T) {
	r := &Results{Events: []TermEvent{
		{Time: 10, Class: 0, Missed: true},
		{Time: 20, Class: 0, Missed: false},
		{Time: 30, Class: 1, Missed: true},
	}}
	if ratio, n := r.MissRatioBetween(0, 25, -1); n != 2 || math.Abs(ratio-0.5) > 1e-12 {
		t.Fatalf("window [0,25): ratio=%g n=%d", ratio, n)
	}
	if ratio, n := r.MissRatioBetween(0, 100, 1); n != 1 || ratio != 1 {
		t.Fatalf("class filter: ratio=%g n=%d", ratio, n)
	}
	if _, n := r.MissRatioBetween(50, 60, -1); n != 0 {
		t.Fatal("empty window")
	}
}

func TestProportionalRunsEndToEnd(t *testing.T) {
	sys, err := New(baselineConfig(PolicyConfig{Kind: PolicyProportional, MPLLimit: 5}, 0.05, 2000))
	if err != nil {
		t.Fatal(err)
	}
	r := sys.Run()
	if r.Policy != "Proportional-5" {
		t.Fatalf("policy %q", r.Policy)
	}
	if r.Terminated == 0 {
		t.Fatal("nothing terminated")
	}
	// Proportional exposes queries to the most allocation churn (Fig 7).
	if r.AvgFluctuations <= 0 {
		t.Fatal("proportional should fluctuate allocations")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := baselineConfig(PolicyConfig{Kind: PolicyMinMax}, 0.05, 100)
	bad.Phases = []Phase{{Duration: 100, Rates: []float64{1, 2, 3}}}
	if _, err := New(bad); err == nil {
		t.Fatal("phase arity mismatch accepted")
	}
	bad2 := baselineConfig(PolicyConfig{Kind: PolicyMinMax}, 0.05, 100)
	bad2.Groups = nil
	if _, err := New(bad2); err == nil {
		t.Fatal("empty database accepted")
	}
	bad3 := baselineConfig(PolicyConfig{MPLLimit: -1}, 0.05, 100)
	if _, err := New(bad3); err == nil {
		t.Fatal("negative MPL limit accepted")
	}
}

func TestSortWorkloadWithMaxPolicy(t *testing.T) {
	sys, err := New(sortConfig(PolicyConfig{Kind: PolicyMax}, 0.05, 2500))
	if err != nil {
		t.Fatal(err)
	}
	r := sys.Run()
	if r.Completed == 0 {
		t.Fatal("no sorts completed under Max")
	}
	// Max never fluctuates a running sort's allocation (all-or-nothing),
	// apart from suspension/resume pairs.
	if r.AvgIOAmplification > 1.5 {
		t.Fatalf("Max sorts amplified I/O by %.2f", r.AvgIOAmplification)
	}
}

func TestFairPMMReducesClassBias(t *testing.T) {
	run := func(kind PolicyKind) *Results {
		cfg := Config{
			Seed:     3,
			Duration: 6000,
			Groups: []catalog.GroupSpec{
				{RelPerDisk: 3, SizeRange: [2]int{600, 1800}},
				{RelPerDisk: 3, SizeRange: [2]int{3000, 9000}},
				{RelPerDisk: 3, SizeRange: [2]int{50, 150}},
				{RelPerDisk: 3, SizeRange: [2]int{250, 750}},
			},
			Classes: []workload.ClassSpec{
				{Name: "Medium", Kind: query.HashJoin, RelGroups: []int{0, 1},
					ArrivalRate: 0.065, SlackRange: [2]float64{2.5, 7.5}},
				{Name: "Small", Kind: query.HashJoin, RelGroups: []int{2, 3},
					ArrivalRate: 0.8, SlackRange: [2]float64{2.5, 7.5}},
			},
			Policy: PolicyConfig{Kind: kind},
		}
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run()
	}
	plain := run(PolicyPMM)
	fair := run(PolicyFairPMM)
	if fair.Policy != "FairPMM" {
		t.Fatalf("policy %q", fair.Policy)
	}
	gapPlain := plain.ClassMissRatio("Medium") - plain.ClassMissRatio("Small")
	gapFair := fair.ClassMissRatio("Medium") - fair.ClassMissRatio("Small")
	t.Logf("class gap: plain=%.3f (med %.2f small %.2f) fair=%.3f (med %.2f small %.2f)",
		gapPlain, plain.ClassMissRatio("Medium"), plain.ClassMissRatio("Small"),
		gapFair, fair.ClassMissRatio("Medium"), fair.ClassMissRatio("Small"))
	if fair.Terminated == 0 {
		t.Fatal("FairPMM ran nothing")
	}
	// The fairness mechanism must not leave the lagging class worse off
	// than plain PMM left it.
	if fair.ClassMissRatio("Medium") > plain.ClassMissRatio("Medium")+0.10 {
		t.Fatalf("FairPMM made the lagging class worse: %.2f vs %.2f",
			fair.ClassMissRatio("Medium"), plain.ClassMissRatio("Medium"))
	}
}
