package extsort

import (
	"math"
	"testing"

	"pmm/internal/buffer"
	"pmm/internal/catalog"
	"pmm/internal/cpu"
	"pmm/internal/disk"
	"pmm/internal/query"
	"pmm/internal/sim"
)

const (
	testTPP = 40
	testBS  = 6
)

type harness struct {
	k   *sim.Kernel
	env *query.Env
	q   *query.Query
	m   *disk.Manager
}

func newHarness(t *testing.T, rPages int) *harness {
	t.Helper()
	k := sim.NewKernel()
	dp := disk.DefaultParams()
	dp.NumDisks = 2
	groups := []catalog.GroupSpec{{RelPerDisk: 1, SizeRange: [2]int{rPages, rPages}}}
	m, err := disk.NewManager(k, dp, catalog.CylindersNeeded(groups, dp.CylinderSize), 3)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Build(m, groups, testTPP, 3)
	if err != nil {
		t.Fatal(err)
	}
	env := &query.Env{K: k, CPU: cpu.New(k, 40), Disks: m, Pool: buffer.NewPool(100000)}
	min, max := MemoryNeeds(rPages)
	q := &query.Query{
		ID: 1, Kind: query.ExternalSort,
		R:        cat.Group(0)[0],
		Deadline: 1e9, StandAlone: 6,
		MinMem: min, MaxMem: max,
		ReadIOs: (rPages + testBS - 1) / testBS,
	}
	return &harness{k: k, env: env, q: q, m: m}
}

func (h *harness) run(alloc int) bool {
	h.q.Alloc = alloc
	var ok bool
	h.launch(&ok, nil)
	h.k.Drain()
	return ok
}

// launch starts the sort on a process, recording its result in
// ok and, when finished is non-nil, the completion time.
func (h *harness) launch(ok *bool, finished *float64) {
	e := &query.Exec{Env: h.env, Q: h.q}
	query.Launch(h.k, "sort", e, New(testTPP, testBS), func(r bool) {
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

func TestMemoryNeeds(t *testing.T) {
	min, max := MemoryNeeds(1200)
	if min != 3 {
		t.Fatalf("min = %d, want 3 (paper §3.2)", min)
	}
	if max != 1200 {
		t.Fatalf("max = %d, want the relation size", max)
	}
	// Degenerate: a relation smaller than the minimum.
	min, max = MemoryNeeds(1)
	if max < min {
		t.Fatalf("max %d < min %d", max, min)
	}
}

func TestInMemorySortAtMaxMemory(t *testing.T) {
	h := newHarness(t, 600)
	free0 := h.tempFree()
	if !h.run(h.q.MaxMem) {
		t.Fatal("sort aborted")
	}
	if h.q.IOCount != 100 {
		t.Fatalf("IOCount = %d, want exactly 100 (read-only, one pass)", h.q.IOCount)
	}
	if h.env.IOBreakdown.SpoolWrite != 0 {
		t.Fatalf("in-memory sort wrote %d pages", h.env.IOBreakdown.SpoolWrite)
	}
	if h.tempFree() != free0 {
		t.Fatal("temp cylinders leaked")
	}
}

func TestExternalSortAtModerateMemory(t *testing.T) {
	h := newHarness(t, 600)
	// 62 pages: run formation produces ~5 runs of ~120 pages; a single
	// merge pass suffices (fan-in 61 ≥ 5).
	if !h.run(62) {
		t.Fatal("sort aborted")
	}
	// Formation: read 600, write 600; final merge: read 600, no write.
	base := 100
	if h.q.IOCount < 2*base {
		t.Fatalf("IOCount = %d, expected at least formation+merge reads", h.q.IOCount)
	}
	readPages := h.env.IOBreakdown.SpoolRead
	if readPages < 590 || readPages > 660 {
		t.Fatalf("merge read %d spool pages, want ≈600", readPages)
	}
}

func TestMinimumMemoryManyPasses(t *testing.T) {
	h := newHarness(t, 120)
	free0 := h.tempFree()
	if !h.run(3) {
		t.Fatal("sort aborted")
	}
	// Heap of 1 page ⇒ runs of ~2 pages ⇒ ~60 runs, fan-in 2 ⇒ ~6 merge
	// passes over 120 pages each.
	if h.env.IOBreakdown.SpoolRead < 400 {
		t.Fatalf("spool reads = %d, expected many merge passes", h.env.IOBreakdown.SpoolRead)
	}
	if h.tempFree() != free0 {
		t.Fatal("temp cylinders leaked after merging")
	}
}

func TestMoreMemoryNeverSlower(t *testing.T) {
	costs := map[int]int{}
	for _, alloc := range []int{3, 10, 40, 150, 600} {
		h := newHarness(t, 600)
		if !h.run(alloc) {
			t.Fatalf("sort at %d pages aborted", alloc)
		}
		costs[alloc] = h.q.IOCount
	}
	if !(costs[600] <= costs[150] && costs[150] <= costs[40] &&
		costs[40] <= costs[10] && costs[10] <= costs[3]) {
		t.Fatalf("I/O not monotone in memory: %v", costs)
	}
}

func TestMergeSplitOnMemoryLoss(t *testing.T) {
	h := newHarness(t, 600)
	h.q.Alloc = 62
	// Shrink to the minimum mid-merge: the step must split, finish as
	// sub-steps, and still complete.
	h.k.At(12, func() { h.q.Alloc = 3 })
	var ok bool
	h.launch(&ok, nil)
	h.k.Drain()
	if !ok {
		t.Fatal("sort aborted after merge split")
	}
}

func TestSuspensionAndResume(t *testing.T) {
	h := newHarness(t, 600)
	h.q.Alloc = 62
	h.k.At(3, func() { h.q.Alloc = 0 })
	h.k.At(8, func() {
		h.q.Alloc = 600
		if h.q.WantMem > 0 {
			h.q.Proc.Wake()
		}
	})
	var ok bool
	var finished float64
	h.launch(&ok, &finished)
	h.k.Drain()
	if !ok {
		t.Fatal("sort aborted")
	}
	if finished < 8 {
		t.Fatalf("finished at %g during suspension", finished)
	}
}

func TestAbortReleasesTemps(t *testing.T) {
	h := newHarness(t, 600)
	free0 := h.tempFree()
	h.q.Alloc = 10
	var ok bool
	h.launch(&ok, nil)
	h.k.At(4, func() { h.q.Proc.Interrupt() })
	h.k.Drain()
	if ok {
		t.Fatal("interrupted sort reported success")
	}
	if h.tempFree() != free0 {
		t.Fatal("aborted sort leaked temp extents")
	}
}

func TestMergeUsesPageGranularityReads(t *testing.T) {
	h := newHarness(t, 240)
	if !h.run(10) {
		t.Fatal("sort aborted")
	}
	// Merge reads are single-page (the paper exempts merging from
	// prefetch); with ~15 runs and fan-in 9 the merge issues hundreds of
	// one-page reads, so IOCount far exceeds the page volume / blocksize.
	if int64(h.q.IOCount) < h.env.IOBreakdown.SpoolRead/2 {
		t.Fatalf("IOCount %d vs spool reads %d: merge reads look block-sized",
			h.q.IOCount, h.env.IOBreakdown.SpoolRead)
	}
}

func TestDeterministic(t *testing.T) {
	run := func() int {
		h := newHarness(t, 600)
		h.run(25)
		return h.q.IOCount
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

// TestCeilLog2MatchesFloat: the integer ceilLog2 charges exactly what
// the float expression it replaced did, over every n up to 2^20 and
// around every power of two up to 2^30.
func TestCeilLog2MatchesFloat(t *testing.T) {
	want := func(n int) int {
		return int(math.Ceil(math.Log2(float64(max(n, 2)))))
	}
	check := func(n int) {
		if got := ceilLog2(n); got != want(n) {
			t.Fatalf("ceilLog2(%d) = %d, want %d", n, got, want(n))
		}
	}
	for n := 0; n <= 1<<20; n++ {
		check(n)
	}
	for k := 1; k <= 30; k++ {
		check(1<<k - 1)
		check(1 << k)
		check(1<<k + 1)
	}
}
