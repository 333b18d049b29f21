package disk

import (
	"math"
	"testing"
	"testing/quick"

	"pmm/internal/sim"
)

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
	k.Spawn("reader", func(p *sim.Proc) {
		if !d.Access(p, 1, 700, 6) {
			t.Error("access interrupted unexpectedly")
		}
		done = p.Now()
	})
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
		var p *sim.InlineProc
		var entered, ok bool
		var at float64
		p = k.SpawnInline("reader", &sim.Script{Stages: []func(*sim.Machine, bool) sim.Status{
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
// from the transfer's end. A timer pending at t=100 keeps the access
// from being elided.
func TestInterruptDuringDirectTransfer(t *testing.T) {
	k, m := newTestManager(t, 1, 100)
	d := m.Disk(0)
	k.At(100, func() {})
	var req Request
	var p *sim.InlineProc
	entered, ok := false, true
	var resumed, held float64
	p = k.SpawnInline("reader", &sim.Script{Stages: []func(*sim.Machine, bool) sim.Status{
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
	// Occupy the disk, then queue low before high; high must win.
	k.Spawn("first", func(p *sim.Proc) {
		d.Access(p, 0, 750, 6)
		order = append(order, "first")
	})
	k.At(0.001, func() {
		k.Spawn("low", func(p *sim.Proc) {
			d.Access(p, 9, 700, 6)
			order = append(order, "low")
		})
		k.Spawn("high", func(p *sim.Proc) {
			d.Access(p, 1, 800, 6)
			order = append(order, "high")
		})
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
	k.Spawn("first", func(p *sim.Proc) { d.Access(p, 0, 755, 6) })
	k.At(0.0001, func() {
		for _, cyl := range []int{790, 740, 760} {
			cyl := cyl
			k.Spawn("tie", func(p *sim.Proc) {
				d.Access(p, 5, cyl, 6)
				order = append(order, cyl)
			})
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
	k.Spawn("stream", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < 50; i++ {
			d.AccessSeq(p, 1, 700, 6, 7, i*6)
		}
		streamTime = p.Now() - start
		start = p.Now()
		for i := 0; i < 50; i++ {
			d.Access(p, 1, 700+i%3, 6)
		}
		randomTime = p.Now() - start
	})
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
	k.Spawn("thrash", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			for f := int64(1); f <= 3; f++ {
				d.AccessSeq(p, 1, 700, 6, f, i*6)
			}
		}
	})
	k.Drain()
	if d.SeqHits() > 10 {
		t.Fatalf("three-way interleave should thrash the cache; hits = %d", d.SeqHits())
	}
}

func TestTwoStreamsBothHit(t *testing.T) {
	k, m := newTestManager(t, 1, 100)
	d := m.Disk(0)
	k.Spawn("dual", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			for f := int64(1); f <= 2; f++ {
				d.AccessSeq(p, 1, 700, 6, f, i*6)
			}
		}
	})
	k.Drain()
	if d.SeqHits() < 50 {
		t.Fatalf("two interleaved streams should both hit; hits = %d", d.SeqHits())
	}
}

func TestInterruptWhileQueued(t *testing.T) {
	k, m := newTestManager(t, 1, 100)
	d := m.Disk(0)
	k.Spawn("occupier", func(p *sim.Proc) { d.Access(p, 0, 700, 90) })
	var got *bool
	victim := k.Spawn("victim", func(p *sim.Proc) {
		ok := d.Access(p, 1, 710, 6)
		got = &ok
	})
	k.At(0.001, func() { victim.Interrupt() })
	k.Drain()
	if got == nil || *got {
		t.Fatal("queued access should report interruption")
	}
}

func TestUtilizationWindows(t *testing.T) {
	k, m := newTestManager(t, 2, 100)
	k.Spawn("user", func(p *sim.Proc) {
		m.Disk(0).Access(p, 1, 700, 6)
	})
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
	var extents []*Extent
	for i := 0; i < 5; i++ {
		extents = append(extents, m.AllocTemp(800, 0))
	}
	for _, e := range extents {
		e.Free()
	}
	if got := d.tempInner.freeCylinders() + d.tempOuter.freeCylinders(); got != free0 {
		t.Fatalf("temp cylinders leaked: %d, want %d", got, free0)
	}
}

func TestTempOvercommitDoesNotFail(t *testing.T) {
	_, m := newTestManager(t, 1, 1400)
	var extents []*Extent
	// Demand far more temp space than exists.
	for i := 0; i < 50; i++ {
		e := m.AllocTemp(900, 0)
		if e == nil {
			t.Fatal("AllocTemp returned nil")
		}
		extents = append(extents, e)
	}
	for _, e := range extents {
		e.Free() // must not panic even for overcommitted extents
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
	t    sim.Task
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
			if entered, ok = f.d.StartAccess(f.t, 1, 600+200*(f.left&1), 6, &f.req); entered {
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
	f.t = k.SpawnInline("reader", f)
	var tick func()
	tick = func() {
		if f.left > 0 {
			k.At(0.005, tick)
		}
	}
	k.At(0.005, tick)
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
