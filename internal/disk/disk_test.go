package disk

import (
	"math"
	"testing"
	"testing/quick"

	"pmm/internal/sim"
	"pmm/internal/sim/simtest"
)

// step is one step of a test process written in straight-line form
// (stepFrame). It runs plain code and may arm one wait, returning what
// the Start* call reported: entered=true parks the process until the
// wait ends; entered=false hands res to the next step at once, as the
// outcome of a wait that finished within the call.
type step func(p *sim.Proc, ok bool) (entered, res bool)

// stepFrame runs steps in order: the frame form of a body of blocking
// calls. Each step receives the outcome of the wait before it (true for
// the first), and the frame returns the last outcome.
type stepFrame struct {
	sim.FrameState
	p     *sim.Proc
	steps []step
}

func (f *stepFrame) Step(m *sim.Machine, ok bool) sim.Status {
	for int(f.PC) < len(f.steps) {
		s := f.steps[f.PC]
		f.PC++
		var entered bool
		if entered, ok = s(f.p, ok); entered {
			return sim.Park
		}
	}
	return m.Return(ok)
}

// spawnSteps spawns a process that runs steps in order.
func spawnSteps(k *sim.Kernel, name string, steps ...step) *sim.Proc {
	f := &stepFrame{steps: steps}
	f.p = k.Spawn(name, f)
	return f.p
}

// access and accessSeq are steps that make one disk access each, with
// a scratch request of their own.
func access(d *Disk, prio float64, cylinder, pages int) step {
	var req Request
	return func(p *sim.Proc, _ bool) (bool, bool) {
		return d.StartAccess(p, prio, cylinder, pages, &req)
	}
}

func accessSeq(d *Disk, prio float64, cylinder, pages int, file int64, fromPage int) step {
	var req Request
	return func(p *sim.Proc, _ bool) (bool, bool) {
		return d.StartAccessSeq(p, prio, cylinder, pages, file, fromPage, &req)
	}
}

// then is a step that runs fn with the outcome of the wait before it
// and passes that outcome on.
func then(fn func(p *sim.Proc, ok bool)) step {
	return func(p *sim.Proc, ok bool) (bool, bool) {
		fn(p, ok)
		return false, ok
	}
}

func newTestManager(t *testing.T, numDisks, relCyl int) (*sim.Kernel, *Manager) {
	t.Helper()
	k := sim.NewKernel()
	p := DefaultParams()
	p.NumDisks = numDisks
	m, err := NewManager(k, p, relCyl, 42)
	if err != nil {
		t.Fatal(err)
	}
	return k, m
}

func TestSeekTimeCurve(t *testing.T) {
	p := DefaultParams()
	if p.SeekTime(0) != 0 {
		t.Fatal("zero-distance seek must be free")
	}
	if got := p.SeekTime(100); math.Abs(got-0.617e-3*10) > 1e-12 {
		t.Fatalf("seek(100) = %g, want %g", got, 0.617e-3*10)
	}
	// Monotone in distance.
	if p.SeekTime(400) <= p.SeekTime(100) {
		t.Fatal("seek time not monotone")
	}
}

func TestTransferRate(t *testing.T) {
	p := DefaultParams()
	perPage := p.RotationTime / float64(p.PagesPerTrack)
	if got := p.TransferTime(6); math.Abs(got-6*perPage) > 1e-12 {
		t.Fatalf("transfer(6) = %g, want %g", got, 6*perPage)
	}
}

func TestAccessTakesTime(t *testing.T) {
	k, m := newTestManager(t, 1, 100)
	d := m.Disk(0)
	var done float64
	spawnSteps(k, "reader", access(d, 1, 700, 6), then(func(p *sim.Proc, ok bool) {
		if !ok {
			t.Error("access interrupted unexpectedly")
		}
		done = p.Now()
	}))
	k.Drain()
	min := DefaultParams().TransferTime(6)
	if done < min {
		t.Fatalf("access completed in %g s, below pure transfer %g", done, min)
	}
	if d.Meter().BusyTime() <= 0 {
		t.Fatal("disk busy time not accounted")
	}
	if d.Served() != 1 {
		t.Fatalf("served = %d", d.Served())
	}
}

// TestElisionDiskAccess: an access to an idle disk with nothing else
// pending is elided — it completes within StartAccess, counting the
// completion, hold wake and resumed turn as steps — while a caller with
// a pending interrupt takes the normal path: the interrupt is reported
// at once and the transfer still completes on the disk's timeline.
func TestElisionDiskAccess(t *testing.T) {
	for _, interrupt := range []bool{false, true} {
		k, m := newTestManager(t, 1, 100)
		d := m.Disk(0)
		var req Request
		var p *sim.Proc
		var entered, ok bool
		var at float64
		p = k.Spawn("reader", &sim.Script{Stages: []func(*sim.Machine, bool) sim.Status{
			func(m *sim.Machine, _ bool) sim.Status {
				if interrupt {
					p.Interrupt()
				}
				entered, ok = d.StartAccess(p, 1, 700, 6, &req)
				at = p.Now()
				return m.Return(ok)
			},
		}})
		k.Drain()
		if entered || ok == interrupt || d.Served() != 1 || d.busy {
			t.Fatalf("interrupt=%v: entered=%v ok=%v served=%d busy=%v",
				interrupt, entered, ok, d.Served(), d.busy)
		}
		wantAt, wantElided, wantSteps := k.Now(), uint64(1), uint64(4)
		if interrupt {
			wantAt, wantElided, wantSteps = 0, 0, 2 // spawn turn + completion
		}
		if at != wantAt || k.Elided() != wantElided || k.Steps() != wantSteps {
			t.Fatalf("interrupt=%v: resumed at %g, elided %d, steps %d; want %g, %d, %d",
				interrupt, at, k.Elided(), k.Steps(), wantAt, wantElided, wantSteps)
		}
	}
}

// TestInterruptDuringDirectTransfer: an interrupt that lands while an
// idle disk serves its caller directly resumes the caller at once with
// ok=false, because the caller's wait is a cancellable hold, not an
// uncancellable section. The transfer still completes on the disk's
// timeline, and the caller's next hold runs from the interrupt, not
// from the transfer's end. An event pending at t=100 keeps the access
// from being elided.
func TestInterruptDuringDirectTransfer(t *testing.T) {
	k, m := newTestManager(t, 1, 100)
	d := m.Disk(0)
	simtest.At(k, 100, func() {})
	var req Request
	var p *sim.Proc
	entered, ok := false, true
	var resumed, held float64
	p = k.Spawn("reader", &sim.Script{Stages: []func(*sim.Machine, bool) sim.Status{
		func(m *sim.Machine, _ bool) sim.Status {
			entered, _ = d.StartAccess(p, 1, 700, 6, &req)
			return sim.Park
		},
		func(m *sim.Machine, got bool) sim.Status {
			ok, resumed = got, p.Now()
			if !p.StartHold(1) {
				return m.Return(false)
			}
			return sim.Park
		},
		func(m *sim.Machine, _ bool) sim.Status {
			held = p.Now()
			return m.Return(true)
		},
	}})
	k.AtInterrupt(0.001, p)
	k.Drain()
	if !entered || ok || resumed != 0.001 || held != 0.001+1 {
		t.Fatalf("entered=%v ok=%v resumed at %g, hold ended at %g; want true, false, 0.001, 1.001",
			entered, ok, resumed, held)
	}
	if d.Served() != 1 || d.busy || k.Elided() != 0 || k.Steps() != 7 {
		t.Fatalf("served=%d busy=%v elided=%d steps=%d; want 1, false, 0, 7",
			d.Served(), d.busy, k.Elided(), k.Steps())
	}
}

func TestEDPriorityOrder(t *testing.T) {
	k, m := newTestManager(t, 1, 100)
	d := m.Disk(0)
	var order []string
	record := func(name string) step {
		return then(func(*sim.Proc, bool) { order = append(order, name) })
	}
	// Occupy the disk, then queue low before high; high must win.
	spawnSteps(k, "first", access(d, 0, 750, 6), record("first"))
	simtest.At(k, 0.001, func() {
		spawnSteps(k, "low", access(d, 9, 700, 6), record("low"))
		spawnSteps(k, "high", access(d, 1, 800, 6), record("high"))
	})
	k.Drain()
	if len(order) != 3 || order[1] != "high" || order[2] != "low" {
		t.Fatalf("ED order violated: %v", order)
	}
}

func TestElevatorTieBreak(t *testing.T) {
	k, m := newTestManager(t, 1, 100)
	d := m.Disk(0)
	var order []int
	// Head starts at 750 ascending. Queue equal-priority requests at
	// cylinders 760, 740, 790 while the disk is busy; the elevator should
	// serve 760, then 790 (continuing up), then 740.
	spawnSteps(k, "first", access(d, 0, 755, 6))
	simtest.At(k, 0.0001, func() {
		for _, cyl := range []int{790, 740, 760} {
			cyl := cyl
			spawnSteps(k, "tie", access(d, 5, cyl, 6), then(func(*sim.Proc, bool) { order = append(order, cyl) }))
		}
	})
	k.Drain()
	want := []int{760, 790, 740}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("elevator order %v, want %v", order, want)
		}
	}
}

func TestSequentialStreamFasterThanRandom(t *testing.T) {
	k, m := newTestManager(t, 1, 100)
	d := m.Disk(0)
	var streamTime, randomTime float64
	var start float64
	steps := []step{then(func(p *sim.Proc, _ bool) { start = p.Now() })}
	for i := 0; i < 50; i++ {
		steps = append(steps, accessSeq(d, 1, 700, 6, 7, i*6))
	}
	steps = append(steps, then(func(p *sim.Proc, _ bool) {
		streamTime = p.Now() - start
		start = p.Now()
	}))
	for i := 0; i < 50; i++ {
		steps = append(steps, access(d, 1, 700+i%3, 6))
	}
	steps = append(steps, then(func(p *sim.Proc, _ bool) { randomTime = p.Now() - start }))
	spawnSteps(k, "stream", steps...)
	k.Drain()
	// After the first block, every streamed access costs pure transfer.
	wantStream := 49*DefaultParams().TransferTime(6) + DefaultParams().MeanAccessTime(0, 6) + DefaultParams().RotationTime/2
	if streamTime > wantStream {
		t.Fatalf("streaming took %.3fs, analytic bound %.3fs", streamTime, wantStream)
	}
	if streamTime >= randomTime {
		t.Fatalf("streaming (%.3fs) should beat random (%.3fs)", streamTime, randomTime)
	}
	if d.SeqHits() < 45 {
		t.Fatalf("expected ≥45 stream hits, got %d", d.SeqHits())
	}
}

func TestStreamThrashWithManyStreams(t *testing.T) {
	k, m := newTestManager(t, 1, 100)
	d := m.Disk(0)
	// Three interleaved streams exceed the cache's two slots: hits drop.
	var steps []step
	for i := 0; i < 30; i++ {
		for f := int64(1); f <= 3; f++ {
			steps = append(steps, accessSeq(d, 1, 700, 6, f, i*6))
		}
	}
	spawnSteps(k, "thrash", steps...)
	k.Drain()
	if d.SeqHits() > 10 {
		t.Fatalf("three-way interleave should thrash the cache; hits = %d", d.SeqHits())
	}
}

func TestTwoStreamsBothHit(t *testing.T) {
	k, m := newTestManager(t, 1, 100)
	d := m.Disk(0)
	var steps []step
	for i := 0; i < 30; i++ {
		for f := int64(1); f <= 2; f++ {
			steps = append(steps, accessSeq(d, 1, 700, 6, f, i*6))
		}
	}
	spawnSteps(k, "dual", steps...)
	k.Drain()
	if d.SeqHits() < 50 {
		t.Fatalf("two interleaved streams should both hit; hits = %d", d.SeqHits())
	}
}

func TestInterruptWhileQueued(t *testing.T) {
	k, m := newTestManager(t, 1, 100)
	d := m.Disk(0)
	spawnSteps(k, "occupier", access(d, 0, 700, 90))
	var got *bool
	victim := spawnSteps(k, "victim", access(d, 1, 710, 6), then(func(_ *sim.Proc, ok bool) { got = &ok }))
	simtest.At(k, 0.001, func() { victim.Interrupt() })
	k.Drain()
	if got == nil || *got {
		t.Fatal("queued access should report interruption")
	}
}

func TestUtilizationWindows(t *testing.T) {
	k, m := newTestManager(t, 2, 100)
	spawnSteps(k, "user", access(m.Disk(0), 1, 700, 6))
	k.Run(10)
	zero := []float64{0, 0}
	if m.MaxUtilization(0, zero) <= 0 {
		t.Fatal("max utilization should be positive")
	}
	if m.AvgUtilization(0, zero) >= m.MaxUtilization(0, zero) {
		t.Fatal("avg across an idle disk must be below max")
	}
	snap := m.BusySnapshot()
	if len(snap) != 2 || snap[0] <= 0 || snap[1] != 0 {
		t.Fatalf("busy snapshot %v", snap)
	}
}

func TestRelationPlacementWithinBand(t *testing.T) {
	_, m := newTestManager(t, 1, 200)
	d := m.Disk(0)
	e1, err := d.PlaceRelation(900) // 10 cylinders
	if err != nil {
		t.Fatal(err)
	}
	lo := (DefaultParams().NumCylinders - 200) / 2
	if e1.StartCylinder() < lo || e1.StartCylinder() >= lo+200 {
		t.Fatalf("relation placed at %d, outside middle band", e1.StartCylinder())
	}
	if e1.Region() != RegionRelation {
		t.Fatal("wrong region")
	}
	// Fill the band; then placement must fail.
	if _, err := d.PlaceRelation(200*90 - 900); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PlaceRelation(90); err == nil {
		t.Fatal("placement into a full band should fail")
	}
}

func TestTempAllocPreferredDisk(t *testing.T) {
	_, m := newTestManager(t, 4, 100)
	e := m.AllocTemp(500, 2)
	if e.Disk().ID() != 2 {
		t.Fatalf("temp landed on disk %d, want 2", e.Disk().ID())
	}
	if r := e.Region(); r != RegionTempInner && r != RegionTempOuter {
		t.Fatalf("temp in region %v", r)
	}
	e.Free()
}

func TestTempAllocFreeReuse(t *testing.T) {
	_, m := newTestManager(t, 1, 1400) // tiny temp bands: 100 cylinders total
	d := m.Disk(0)
	free0 := d.tempInner.freeCylinders() + d.tempOuter.freeCylinders()
	var extents []Extent
	for i := 0; i < 5; i++ {
		extents = append(extents, m.AllocTemp(800, 0))
	}
	for i := range extents {
		extents[i].Free()
	}
	if got := d.tempInner.freeCylinders() + d.tempOuter.freeCylinders(); got != free0 {
		t.Fatalf("temp cylinders leaked: %d, want %d", got, free0)
	}
}

func TestTempOvercommitDoesNotFail(t *testing.T) {
	_, m := newTestManager(t, 1, 1400)
	var extents []Extent
	// Demand far more temp space than exists.
	for i := 0; i < 50; i++ {
		e := m.AllocTemp(900, 0)
		if e.Disk() == nil || e.Pages() != 900 {
			t.Fatalf("AllocTemp returned %+v", e)
		}
		extents = append(extents, e)
	}
	for i := range extents {
		extents[i].Free() // must not panic even for overcommitted extents
	}
}

func TestExtentCylinderOf(t *testing.T) {
	_, m := newTestManager(t, 1, 200)
	e, err := m.Disk(0).PlaceRelation(250)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.CylinderOf(0); got != e.StartCylinder() {
		t.Fatalf("page 0 at cylinder %d", got)
	}
	if got := e.CylinderOf(249); got != e.StartCylinder()+2 {
		t.Fatalf("page 249 at cylinder %d, want %d", got, e.StartCylinder()+2)
	}
	// Out-of-range pages clamp rather than escape the extent.
	if got := e.CylinderOf(10_000); got != e.StartCylinder()+2 {
		t.Fatalf("clamped page at cylinder %d", got)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	_, m := newTestManager(t, 1, 100)
	e := m.AllocTemp(90, 0)
	e.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	e.Free()
}

func TestRegionAllocProperty(t *testing.T) {
	// Property: any interleaving of allocs and frees conserves cylinders
	// and never hands out overlapping spans.
	f := func(ops []uint8) bool {
		ra := newRegionAlloc(0, 500)
		type held struct{ start, cyls int }
		var live []held
		total := 500
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				cyls := int(op%37) + 1
				if start, ok := ra.alloc(cyls); ok {
					for _, h := range live {
						if start < h.start+h.cyls && h.start < start+cyls {
							return false // overlap
						}
					}
					live = append(live, held{start, cyls})
				}
			} else {
				i := int(op) % len(live)
				ra.release(live[i].start, live[i].cyls)
				live = append(live[:i], live[i+1:]...)
			}
		}
		used := 0
		for _, h := range live {
			used += h.cyls
		}
		return ra.freeCylinders()+used == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// accessLoopFrame makes left back-to-back accesses to one disk,
// alternating between two cylinders, parking whenever an access is not
// elided.
type accessLoopFrame struct {
	sim.FrameState
	p    *sim.Proc
	d    *Disk
	req  Request
	left int
}

func (f *accessLoopFrame) Step(m *sim.Machine, ok bool) sim.Status {
	for {
		switch f.PC {
		case 0:
			if f.left == 0 {
				return m.Return(true)
			}
			f.left--
			f.PC = 1
			var entered bool
			if entered, ok = f.d.StartAccess(f.p, 1, 600+200*(f.left&1), 6, &f.req); entered {
				return sim.Park
			}
		case 1:
			if !ok {
				return m.Return(false)
			}
			f.PC = 0
		}
	}
}

// tickEvery is ticker's period.
const tickEvery = 0.005

// ticker is a completer that re-arms itself every tickEvery seconds
// while its reader has accesses left, so an earlier event is always
// pending.
type ticker struct {
	k  *sim.Kernel
	f  *accessLoopFrame
	id int32
}

func (tk *ticker) Complete(bool) {
	if tk.f.left > 0 {
		tk.k.AtComplete(tickEvery, tk.id, true)
	}
}

// BenchmarkDiskDirectAccess measures the idle disk's direct path when
// it cannot be elided: a lone reader makes back-to-back accesses while
// a 5 ms ticker keeps an earlier event pending, so every access queues
// its completion and parks its caller on it. Steady state must be 0
// allocs/op.
func BenchmarkDiskDirectAccess(b *testing.B) {
	k := sim.NewKernel()
	p := DefaultParams()
	p.NumDisks = 1
	m, err := NewManager(k, p, 100, 42)
	if err != nil {
		b.Fatal(err)
	}
	const warm = 16
	f := &accessLoopFrame{d: m.Disk(0), left: b.N + warm}
	f.p = k.Spawn("reader", f)
	tk := &ticker{k: k, f: f}
	tk.id = k.RegisterCompleter(tk)
	k.AtComplete(tickEvery, tk.id, true)
	for f.left > b.N {
		k.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Drain()
	b.StopTimer()
	if k.Elided() != 0 || m.Disk(0).Served() != uint64(b.N+warm) {
		b.Fatalf("elided %d, served %d of %d accesses", k.Elided(), m.Disk(0).Served(), b.N+warm)
	}
}
