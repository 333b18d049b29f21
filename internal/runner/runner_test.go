package runner

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"pmm/internal/catalog"
	"pmm/internal/query"
	"pmm/internal/rtdbs"
	"pmm/internal/sim"
	"pmm/internal/stats"
	"pmm/internal/workload"
)

// tinyConfig is a fast baseline-shaped configuration for engine tests.
func tinyConfig() rtdbs.Config {
	return rtdbs.Config{
		Seed:     1,
		Duration: 300,
		Groups: []catalog.GroupSpec{
			{RelPerDisk: 5, SizeRange: [2]int{600, 1800}},
			{RelPerDisk: 5, SizeRange: [2]int{3000, 9000}},
		},
		Classes: []workload.ClassSpec{{
			Name:        "Medium",
			Kind:        query.HashJoin,
			RelGroups:   []int{0, 1},
			ArrivalRate: 0.06,
			SlackRange:  [2]float64{2.5, 7.5},
		}},
	}
}

// tinyAxes is a 2×2 grid over arrival rate and policy.
func tinyAxes() []Axis {
	rates := AxisOf("rate", []float64{0.05, 0.08},
		func(r float64) string { return fmt.Sprintf("%g", r) },
		func(c *rtdbs.Config, r float64) { c.Classes[0].ArrivalRate = r })
	pols := AxisOf("policy", []rtdbs.PolicyConfig{{Kind: rtdbs.PolicyMax}, {Kind: rtdbs.PolicyMinMax}},
		func(p rtdbs.PolicyConfig) string { return (rtdbs.Config{Policy: p}).PolicyName() },
		func(c *rtdbs.Config, p rtdbs.PolicyConfig) { c.Policy = p })
	return []Axis{rates, pols}
}

func TestExpandCrossProduct(t *testing.T) {
	s := Spec{Base: tinyConfig(), Axes: tinyAxes()}
	points := s.expand()
	if len(points) != 4 {
		t.Fatalf("expanded %d points, want 4", len(points))
	}
	wantKeys := []string{"0.05/Max", "0.05/MinMax", "0.08/Max", "0.08/MinMax"}
	for i, pt := range points {
		if pt.Key != wantKeys[i] {
			t.Errorf("point %d key %q, want %q", i, pt.Key, wantKeys[i])
		}
		if pt.Index != i {
			t.Errorf("point %d has index %d", i, pt.Index)
		}
	}
	// Mutations must not alias across points: each point carries its
	// own rate/policy combination.
	if points[0].Config.Classes[0].ArrivalRate != 0.05 || points[2].Config.Classes[0].ArrivalRate != 0.08 {
		t.Fatalf("rates aliased: %g, %g",
			points[0].Config.Classes[0].ArrivalRate, points[2].Config.Classes[0].ArrivalRate)
	}
	if points[1].Config.Policy.Kind != rtdbs.PolicyMinMax || points[0].Config.Policy.Kind != rtdbs.PolicyMax {
		t.Fatal("policies aliased across points")
	}
}

func TestCloneConfigIsolatesSlices(t *testing.T) {
	base := tinyConfig()
	base.Phases = []rtdbs.Phase{{Duration: 100, Rates: []float64{0.05}}}
	cl := cloneConfig(base)
	cl.Classes[0].ArrivalRate = 99
	cl.Classes[0].RelGroups[0] = 7
	cl.Groups[0].RelPerDisk = 42
	cl.Phases[0].Rates[0] = 3.14
	if base.Classes[0].ArrivalRate == 99 || base.Classes[0].RelGroups[0] == 7 {
		t.Fatal("class slice aliased")
	}
	if base.Groups[0].RelPerDisk == 42 {
		t.Fatal("group slice aliased")
	}
	if base.Phases[0].Rates[0] == 3.14 {
		t.Fatal("phase rates aliased")
	}
}

func TestReplicateSeeds(t *testing.T) {
	if got := ReplicateSeed(42, 0); got != 42 {
		t.Fatalf("replicate 0 seed = %d, want the base seed", got)
	}
	seen := map[int64]int{42: 0}
	for r := 1; r < 100; r++ {
		s := ReplicateSeed(42, r)
		if prev, dup := seen[s]; dup {
			t.Fatalf("replicates %d and %d share seed %d", prev, r, s)
		}
		seen[s] = r
	}
	// Derivation is a pure function of (base, rep).
	if ReplicateSeed(42, 3) != ReplicateSeed(42, 3) {
		t.Fatal("seed derivation is not deterministic")
	}
	if ReplicateSeed(42, 3) == ReplicateSeed(43, 3) {
		t.Fatal("different base seeds collide")
	}
}

func TestRunSingleReplicateMatchesPlainRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	cfg := tinyConfig()
	sys, err := rtdbs.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct := sys.Run()
	points, err := Run(Spec{Base: cfg})
	if err != nil {
		t.Fatal(err)
	}
	got := points[0].First()
	if got.Terminated != direct.Terminated || got.Missed != direct.Missed ||
		got.MissRatio != direct.MissRatio || got.AvgMPL != direct.AvgMPL {
		t.Fatalf("1-replicate sweep diverged from plain run: %+v vs %+v",
			got.Terminated, direct.Terminated)
	}
	if points[0].Agg.MissRatio.Mean != direct.MissRatio {
		t.Fatalf("aggregate mean %g != run value %g", points[0].Agg.MissRatio.Mean, direct.MissRatio)
	}
	if points[0].Agg.MissRatio.HalfWidth != 0 {
		t.Fatal("single replicate must have zero half-width")
	}
}

// TestDeterministicAcrossWorkers is the engine's core guarantee: the
// aggregated results of a replicated sweep are byte-identical whether it
// runs on one worker or many.
func TestDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	run := func(workers int) []PointResult {
		points, err := Run(Spec{Base: tinyConfig(), Axes: tinyAxes(), Reps: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	serial := run(1)
	parallel := run(runtime.NumCPU())
	if len(serial) != len(parallel) {
		t.Fatalf("point counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i].Agg, parallel[i].Agg) {
			t.Fatalf("point %s aggregates differ across worker counts:\n%+v\nvs\n%+v",
				serial[i].Point.Key, serial[i].Agg, parallel[i].Agg)
		}
		a := fmt.Sprintf("%+v", serial[i].Agg)
		b := fmt.Sprintf("%+v", parallel[i].Agg)
		if a != b {
			t.Fatalf("point %s renders differ:\n%s\nvs\n%s", serial[i].Point.Key, a, b)
		}
		for r := range serial[i].Reps {
			if serial[i].Reps[r].Terminated != parallel[i].Reps[r].Terminated ||
				serial[i].Reps[r].MissRatio != parallel[i].Reps[r].MissRatio {
				t.Fatalf("point %s rep %d raw results differ", serial[i].Point.Key, r)
			}
		}
	}
}

// TestSweepDividesPsAmongShards: simulations running side by side share
// GOMAXPROCS, so each job's Shards is capped at GOMAXPROCS over the
// jobs in flight, and a job that runs alone may use every P.
func TestSweepDividesPsAmongShards(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct{ workers, reps, shards, want int }{
		{2, 4, 8, 2}, // two jobs in flight share four Ps
		{4, 2, 8, 2}, // only two jobs, however many workers
		{4, 4, 3, 1},
		{1, 3, 8, 4}, // one at a time: every P
		{4, 1, 8, 4},
		{2, 4, 1, 1}, // never raised
		{2, 4, 0, 0},
	} {
		var mu sync.Mutex
		seen := map[int]int{}
		base := synthBase()
		base.Shards = tc.shards
		flat := synthSim(func(rtdbs.PolicyKind) float64 { return 0.3 }, 0, nil)
		_, err := Run(Spec{Base: base, Reps: tc.reps, Workers: tc.workers,
			simulate: func(cfg rtdbs.Config, a *sim.Arena) (*rtdbs.Results, error) {
				mu.Lock()
				seen[cfg.Shards]++
				mu.Unlock()
				return flat(cfg, a)
			}})
		if err != nil {
			t.Fatal(err)
		}
		if want := map[int]int{tc.want: tc.reps}; !reflect.DeepEqual(seen, want) {
			t.Errorf("workers %d, reps %d, Shards %d: jobs ran with Shards %v, want %v",
				tc.workers, tc.reps, tc.shards, seen, want)
		}
	}
}

func TestRunManyOrdersReplicates(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	runs, err := RunMany(tinyConfig(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("got %d runs", len(runs))
	}
	// Replicates use different seeds, so at least the event counts of
	// replicate 0 must reproduce a direct run at the base seed.
	sys, err := rtdbs.New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if direct := sys.Run(); direct.Terminated != runs[0].Terminated {
		t.Fatalf("replicate 0 diverged: %d vs %d", runs[0].Terminated, direct.Terminated)
	}
}

// TestSeedAxisIsHonored pins that replicate seeds derive from each
// point's own config seed, so an axis may sweep Seed itself.
func TestSeedAxisIsHonored(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	seedAxis := AxisOf("seed", []int64{11, 12},
		func(s int64) string { return fmt.Sprintf("%d", s) },
		func(c *rtdbs.Config, s int64) { c.Seed = s })
	points, err := Run(Spec{Base: tinyConfig(), Axes: []Axis{seedAxis}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.Seed = 11
	sys, err := rtdbs.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct := sys.Run()
	p := Find(points, "seed", "11")
	if p.First().Terminated != direct.Terminated || p.First().MissRatio != direct.MissRatio {
		t.Fatalf("seed-axis point diverged from direct run at that seed")
	}
	q := Find(points, "seed", "12")
	if p.First().Arrived == q.First().Arrived && p.First().Terminated == q.First().Terminated &&
		p.First().MissRatio == q.First().MissRatio {
		t.Fatal("different seed-axis points produced identical results — axis seed was ignored")
	}
}

func TestRunPropagatesAssemblyErrors(t *testing.T) {
	bad := tinyConfig()
	bad.Classes = nil
	if _, err := Run(Spec{Base: bad}); err == nil {
		t.Fatal("expected assembly error")
	}
}

// TestRunRejectsMalformedConfidence: a confidence level outside (0, 1)
// or NaN is an error naming it, rather than silently becoming 95%; 0
// still selects the 95% default.
func TestRunRejectsMalformedConfidence(t *testing.T) {
	simulate := synthSim(func(rtdbs.PolicyKind) float64 { return 0.3 }, 0.05, nil)
	for _, c := range []float64{math.NaN(), 1.5, 1, -1, math.Inf(1)} {
		_, err := Run(Spec{Base: synthBase(), Reps: 2, Confidence: c, simulate: simulate})
		if err == nil || !strings.Contains(err.Error(), "Confidence") {
			t.Errorf("Confidence %g: err = %v, want an error naming Confidence", c, err)
		}
	}
	points, err := Run(Spec{Base: synthBase(), Reps: 2, simulate: simulate})
	if err != nil {
		t.Fatal(err)
	}
	if got := points[0].Agg.Confidence; got != 0.95 {
		t.Errorf("Confidence 0 aggregated at %g, want the 0.95 default", got)
	}
}

func TestSummarizeMath(t *testing.T) {
	runs := []*rtdbs.Results{
		{MissRatio: 0.10, AvgMPL: 2, Terminated: 100},
		{MissRatio: 0.20, AvgMPL: 4, Terminated: 110},
		{MissRatio: 0.30, AvgMPL: 6, Terminated: 120},
	}
	sum := Summarize(runs, 0.95)
	if sum.Reps != 3 {
		t.Fatalf("reps %d", sum.Reps)
	}
	if math.Abs(sum.MissRatio.Mean-0.20) > 1e-12 {
		t.Fatalf("mean %g", sum.MissRatio.Mean)
	}
	// SD of {0.1, 0.2, 0.3} is 0.1; CI half-width = z * 0.1/sqrt(3).
	wantHW := stats.NormalQuantile(0.975) * 0.1 / math.Sqrt(3)
	if math.Abs(sum.MissRatio.SD-0.1) > 1e-12 {
		t.Fatalf("sd %g", sum.MissRatio.SD)
	}
	if math.Abs(sum.MissRatio.HalfWidth-wantHW) > 1e-12 {
		t.Fatalf("half-width %g, want %g", sum.MissRatio.HalfWidth, wantHW)
	}
	if sum.Terminated.Mean != 110 {
		t.Fatalf("terminated mean %g", sum.Terminated.Mean)
	}
	// Zero-variance metrics report zero half-width.
	if sum.AvgWait.HalfWidth != 0 {
		t.Fatalf("zero-variance half-width %g", sum.AvgWait.HalfWidth)
	}
}

func TestFind(t *testing.T) {
	points := []PointResult{
		{Point: Point{Labels: map[string]string{"rate": "0.05", "policy": "Max"}}},
		{Point: Point{Labels: map[string]string{"rate": "0.05", "policy": "MinMax"}}},
	}
	if p := Find(points, "rate", "0.05", "policy", "MinMax"); p != &points[1] {
		t.Fatal("Find missed the matching point")
	}
	if p := Find(points, "policy", "PMM"); p != nil {
		t.Fatal("Find fabricated a point")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("odd pair count must panic")
		}
	}()
	Find(points, "rate")
}
