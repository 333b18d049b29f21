package query

import (
	"testing"

	"pmm/internal/sim"
	"pmm/internal/trace"
)

// returnsAtOnce runs child's step 0 alone on a fresh process
// bound to e, on an idle kernel k. It reports whether that step returned
// true while leaving the kernel untouched: no sequence number taken, no
// step counted and the clock unmoved. A sink is attached to read the
// sequence numbers, so no service is elided: any CPU or disk work takes
// a number.
func returnsAtOnce(t *testing.T, k *sim.Kernel, e *Exec, child sim.Frame) bool {
	t.Helper()
	c := trace.NewCollector()
	k.SetSink(c)
	var first sim.Status
	var got bool
	step0 := &sim.Script{Stages: []func(*sim.Machine, bool) sim.Status{
		func(m *sim.Machine, _ bool) sim.Status {
			first = child.Step(m, true)
			return first
		},
	}}
	script(k, e,
		func(m *sim.Machine, _ bool) sim.Status { return m.Call(step0) },
		func(m *sim.Machine, ok bool) sim.Status { got = ok; return m.Return(ok) },
	)
	now, steps := k.Now(), k.Steps()
	if !k.Step() { // the process's first turn, which runs step 0
		t.Fatal("spawned process did not run")
	}
	after := k.Steps()
	// A marker event follows. The turn left the kernel untouched when
	// the marker is the next event dispatched and took the next
	// sequence number.
	fired := false
	k.At(0, func() { fired = true })
	for !fired && k.Step() {
	}
	ev := c.Kernel()
	untouched := after == steps+1 && k.Now() == now && len(ev) == 2 && ev[1].Seq == ev[0].Seq+1
	return untouched && first == sim.Ret && got
}

// TestEntryTestsMatchWaits holds PaceIdle and WaitMemoryIdle to the
// step 0 of the pacing and memory waits, in both directions: when the
// test says idle, the wait returns true at step 0 with the kernel's
// sequence number, step count and clock and the query's memory fields
// unchanged; when it says not idle, step 0 does something else. The
// grid spans allocations 0, minimum, between and maximum, a query with
// and without a maximum above its minimum, and pacing off, before, at
// and after the urgency time (deadline − 3·StandAlone, at t=0).
func TestEntryTestsMatchWaits(t *testing.T) {
	// frame configures a wait's frame the way its Call method does, by
	// entering it on a machine that is then dropped.
	cases := []struct {
		name  string
		idle  func(e *Exec) bool
		frame func(e *Exec) sim.Frame
	}{
		{"pace", (*Exec).PaceIdle, func(e *Exec) sim.Frame { var m sim.Machine; e.CallPace(&m); return &e.frPace }},
		{"waitMemory", (*Exec).WaitMemoryIdle, func(e *Exec) sim.Frame { var m sim.Machine; e.CallWaitMemory(&m); return &e.frWaitMem }},
	}
	for _, c := range cases {
		var idle, busy int
		for _, alloc := range []string{"0", "min", "mid", "max"} {
			for _, maxMem := range []int{5, 100} {
				for _, pd := range [][2]float64{{0, 1e9}, {1, 1e9}, {1, 30}, {1, 20}} {
					k, env, rel := newEnv(t)
					env.PaceFactor = pd[0]
					q := newQuery(rel)
					q.StandAlone, q.Deadline, q.MaxMem = 10, pd[1], maxMem
					q.Alloc = map[string]int{"0": 0, "min": q.MinMem, "mid": (q.MinMem + maxMem) / 2, "max": maxMem}[alloc]
					e := &Exec{Env: env, Q: q}
					want := c.idle(e)
					before := *q
					atOnce := returnsAtOnce(t, k, e, c.frame(e))
					atOnce = atOnce && q.Alloc == before.Alloc && q.WantMem == before.WantMem && q.IOCount == before.IOCount
					if atOnce != want {
						t.Errorf("%s at alloc=%s maxMem=%d pace=%g deadline=%g: entry test says idle=%v, step 0 returned true at once untouched=%v",
							c.name, alloc, maxMem, pd[0], pd[1], want, atOnce)
					}
					if want {
						idle++
					} else {
						busy++
					}
				}
			}
		}
		if idle == 0 || busy == 0 {
			t.Errorf("%s: grid reached %d idle and %d busy states; want both", c.name, idle, busy)
		}
	}
}
