package query

import (
	"testing"

	"pmm/internal/sim"
	"pmm/internal/sim/simtest"
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
	simtest.At(k, 0, func() { fired = true })
	for !fired && k.Step() {
	}
	ev := c.Kernel()
	untouched := after == steps+1 && k.Now() == now && len(ev) == 2 && ev[1].Seq == ev[0].Seq+1
	return untouched && first == sim.Ret && got
}

// TestEntryTestsMatchWaits holds WaitMemoryIdle to the step 0 of the
// memory wait, in both directions: when the test says idle, the wait
// returns true at step 0 with the kernel's sequence number, step count
// and clock and the query's memory fields unchanged; when it says not
// idle, step 0 does something else. The grid spans allocations 0,
// minimum, between and maximum, for a query with and without a maximum
// above its minimum.
func TestEntryTestsMatchWaits(t *testing.T) {
	var idle, busy int
	for _, alloc := range []string{"0", "min", "mid", "max"} {
		for _, maxMem := range []int{5, 100} {
			k, env, rel := newEnv(t)
			q := newQuery(rel)
			q.MaxMem = maxMem
			q.Alloc = map[string]int{"0": 0, "min": q.MinMem, "mid": (q.MinMem + maxMem) / 2, "max": maxMem}[alloc]
			e := &Exec{Env: env, Q: q}
			want := e.WaitMemoryIdle()
			before := *q
			// Configure the frame the way CallWaitMemory does, by entering
			// it on a machine that is then dropped.
			var m sim.Machine
			e.CallWaitMemory(&m)
			atOnce := returnsAtOnce(t, k, e, &e.frWaitMem)
			atOnce = atOnce && q.Alloc == before.Alloc && q.WantMem == before.WantMem && q.IOCount == before.IOCount
			if atOnce != want {
				t.Errorf("alloc=%s maxMem=%d: entry test says idle=%v, step 0 returned true at once untouched=%v",
					alloc, maxMem, want, atOnce)
			}
			if want {
				idle++
			} else {
				busy++
			}
		}
	}
	if idle == 0 || busy == 0 {
		t.Errorf("grid reached %d idle and %d busy states; want both", idle, busy)
	}
}
