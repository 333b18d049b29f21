package join

import (
	"testing"

	"pmm/internal/buffer"
	"pmm/internal/catalog"
	"pmm/internal/cpu"
	"pmm/internal/disk"
	"pmm/internal/query"
	"pmm/internal/sim"
	"pmm/internal/sim/simtest"
)

const (
	testF   = 1.1
	testTPP = 40
	testBS  = 6
)

// harness wires a minimal system around one join query.
type harness struct {
	k   *sim.Kernel
	env *query.Env
	q   *query.Query
	m   *disk.Manager
}

func newHarness(t *testing.T, rPages, sPages int) *harness {
	t.Helper()
	k := sim.NewKernel()
	dp := disk.DefaultParams()
	dp.NumDisks = 2
	groups := []catalog.GroupSpec{
		{RelPerDisk: 1, SizeRange: [2]int{rPages, rPages}},
		{RelPerDisk: 1, SizeRange: [2]int{sPages, sPages}},
	}
	m, err := disk.NewManager(k, dp, catalog.CylindersNeeded(groups, dp.CylinderSize), 3)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Build(m, groups, testTPP, 3)
	if err != nil {
		t.Fatal(err)
	}
	env := &query.Env{K: k, CPU: cpu.New(k, 40), Disks: m, Pool: buffer.NewPool(100000)}
	min, max := MemoryNeeds(rPages, testF)
	q := &query.Query{
		ID: 1, Kind: query.HashJoin,
		R: cat.Group(0)[0], S: cat.Group(1)[0],
		Deadline: 1e9, StandAlone: 30,
		MinMem: min, MaxMem: max,
		ReadIOs: (rPages+testBS-1)/testBS + (sPages+testBS-1)/testBS,
	}
	return &harness{k: k, env: env, q: q, m: m}
}

// run executes the join with the given initial allocation and returns
// whether it completed.
func (h *harness) run(alloc int) bool {
	h.q.Alloc = alloc
	var ok bool
	h.launch(&ok, nil)
	h.k.Drain()
	return ok
}

// launch starts the join on an inline process, recording its result in
// ok and, when finished is non-nil, the completion time.
func (h *harness) launch(ok *bool, finished *float64) {
	e := &query.Exec{Env: h.env, Q: h.q}
	query.Launch(h.k, "join", e, New(testF, testTPP, testBS), func(r bool) {
		*ok = r
		if finished != nil {
			*finished = h.k.Now()
		}
	})
}

func (h *harness) tempFree() int {
	total := 0
	for i := 0; i < h.m.NumDisks(); i++ {
		total += h.m.Disk(i).TempFreeCylinders()
	}
	return total
}

func TestMemoryNeedsMatchPaper(t *testing.T) {
	// §5.1: for ‖R‖ = 1200 the average max demand is ≈1321 pages and the
	// min ≈37.
	min, max := MemoryNeeds(1200, 1.1)
	if max != 1321 {
		t.Fatalf("max = %d, want 1321", max)
	}
	if min < 36 || min > 40 {
		t.Fatalf("min = %d, want ≈37", min)
	}
	b := NumPartitions(1200, 1.1)
	if float64(b)*float64(b-1) < 1.1*1200 {
		t.Fatalf("B(B−1) = %d < F·R", b*(b-1))
	}
}

func TestOnePassAtMaxMemory(t *testing.T) {
	h := newHarness(t, 300, 1500)
	free0 := h.tempFree()
	if !h.run(h.q.MaxMem) {
		t.Fatal("join aborted")
	}
	want := 300/testBS + 1500/testBS
	if h.q.IOCount != want {
		t.Fatalf("IOCount = %d, want exactly %d (one pass, no spool)", h.q.IOCount, want)
	}
	if h.env.IOBreakdown.SpoolWrite != 0 {
		t.Fatalf("spooled %d pages at max memory", h.env.IOBreakdown.SpoolWrite)
	}
	if h.tempFree() != free0 {
		t.Fatal("temp cylinders leaked")
	}
}

func TestTwoPassAtMinMemory(t *testing.T) {
	h := newHarness(t, 300, 1500)
	free0 := h.tempFree()
	if !h.run(h.q.MinMem) {
		t.Fatal("join aborted")
	}
	base := 300/testBS + 1500/testBS
	// Full two-pass: read + write + re-read ⇒ ≈3× the one-pass I/Os.
	if h.q.IOCount < 2*base || h.q.IOCount > 7*base/2 {
		t.Fatalf("IOCount = %d, want ≈3×%d", h.q.IOCount, base)
	}
	if h.tempFree() != free0 {
		t.Fatal("temp cylinders leaked")
	}
}

func TestIntermediateAllocationIntermediateCost(t *testing.T) {
	h := newHarness(t, 300, 1500)
	mid := (h.q.MinMem + h.q.MaxMem) / 2
	if !h.run(mid) {
		t.Fatal("join aborted")
	}
	base := 300/testBS + 1500/testBS
	if h.q.IOCount <= base {
		t.Fatalf("IOCount = %d, expected spooling above %d", h.q.IOCount, base)
	}
	if h.q.IOCount >= 3*base {
		t.Fatalf("IOCount = %d, expected below full two-pass", h.q.IOCount)
	}
}

func TestContractionMidBuild(t *testing.T) {
	h := newHarness(t, 300, 1500)
	h.q.Alloc = h.q.MaxMem
	// Drop to min after some build progress.
	simtest.At(h.k, 0.5, func() { h.q.Alloc = h.q.MinMem })
	var ok bool
	h.launch(&ok, nil)
	h.k.Drain()
	if !ok {
		t.Fatal("join aborted")
	}
	base := 300/testBS + 1500/testBS
	if h.q.IOCount <= base {
		t.Fatal("contraction should force spooling")
	}
}

func TestSuspensionAndResume(t *testing.T) {
	h := newHarness(t, 300, 1500)
	h.q.Alloc = h.q.MaxMem
	simtest.At(h.k, 0.5, func() { h.q.Alloc = 0 })
	simtest.At(h.k, 5.0, func() {
		h.q.Alloc = h.q.MaxMem
		if h.q.WantMem > 0 {
			h.q.Proc.Wake()
		}
	})
	var ok bool
	var finished float64
	h.launch(&ok, &finished)
	h.k.Drain()
	if !ok {
		t.Fatal("join aborted")
	}
	if finished < 5 {
		t.Fatalf("finished at %g, before the suspension ended", finished)
	}
}

func TestAbortReleasesTemps(t *testing.T) {
	h := newHarness(t, 300, 1500)
	free0 := h.tempFree()
	h.q.Alloc = h.q.MinMem // force spooling so temps exist
	var ok bool
	h.launch(&ok, nil)
	simtest.At(h.k, 2, func() { h.q.Proc.Interrupt() })
	h.k.Drain()
	if ok {
		t.Fatal("interrupted join reported success")
	}
	if h.tempFree() != free0 {
		t.Fatal("aborted join leaked temp extents")
	}
}

func TestExpansionRecoversAfterEarlyContraction(t *testing.T) {
	h := newHarness(t, 300, 1500)
	// Start at min (build fully contracted), then grant max just before
	// the probe phase: late expansion should read partitions back and the
	// total cost must stay below the full two-pass.
	h.q.Alloc = h.q.MinMem
	simtest.At(h.k, 3, func() {
		h.q.Alloc = h.q.MaxMem
		if h.q.WantMem > 0 {
			h.q.Proc.Wake()
		}
	})
	var ok bool
	h.launch(&ok, nil)
	h.k.Drain()
	if !ok {
		t.Fatal("join aborted")
	}
	base := 300/testBS + 1500/testBS
	full := 3 * base
	if h.q.IOCount >= full {
		t.Fatalf("IOCount = %d; expansion should beat the full two-pass %d", h.q.IOCount, full)
	}
}

func TestDeterministicExecution(t *testing.T) {
	run := func() int {
		h := newHarness(t, 300, 1500)
		h.run(h.q.MinMem)
		return h.q.IOCount
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic IO counts: %d vs %d", a, b)
	}
}

func TestTinyRelation(t *testing.T) {
	h := newHarness(t, 5, 10)
	if !h.run(h.q.MaxMem) {
		t.Fatal("tiny join aborted")
	}
	if h.q.IOCount < 2 {
		t.Fatalf("IOCount = %d", h.q.IOCount)
	}
}
