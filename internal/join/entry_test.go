package join

import (
	"testing"

	"pmm/internal/query"
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
func returnsAtOnce(t *testing.T, k *sim.Kernel, e *query.Exec, child sim.Frame) bool {
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
	p := k.Spawn("entry", &sim.Script{Stages: []func(*sim.Machine, bool) sim.Status{
		func(m *sim.Machine, _ bool) sim.Status { return m.Call(step0) },
		func(m *sim.Machine, ok bool) sim.Status { got = ok; return m.Return(ok) },
	}})
	e.P, e.Q.Proc = p, p
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

// jfields is the data of a join's state and query that an entry must
// leave alone.
type jfields struct {
	expanded, expandedOnDisk, rReadCur         int
	perPartRaw, rBuf, sBuf, rSpooled, sPending float64
	rSpool, sSpool                             query.TempFile
	alloc, wantMem, ioCount                    int
	relRead, spoolWrite, spoolRead             int64
}

func snapJoin(s *jstate) jfields {
	q, io := s.e.Q, s.e.IOBreakdown
	return jfields{
		s.expanded, s.expandedOnDisk, s.rReadCur,
		s.perPartRaw, s.rBuf, s.sBuf, s.rSpooled, s.sPending,
		s.rSpool, s.sSpool,
		q.Alloc, q.WantMem, q.IOCount,
		io.RelRead, io.SpoolWrite, io.SpoolRead,
	}
}

// joinState is one grid point of a join's per-block state.
type joinState struct {
	alloc      string // "0", "min", "mid" or "max"
	expanded   int
	perPartRaw float64
	rBuf, sBuf float64
	sPending   float64
	sRemaining int // S pages left to probe, for late expansion
}

// build returns a fresh harness and join state at grid point g, the
// join set up but not started.
func (g joinState) build(t *testing.T) (*harness, *jstate) {
	h := newHarness(t, 300, 1500)
	q := h.q
	switch g.alloc {
	case "0":
		q.Alloc = 0
	case "min":
		q.Alloc = q.MinMem
	case "mid":
		q.Alloc = (q.MinMem + q.MaxMem) / 2
	case "max":
		q.Alloc = q.MaxMem
	}
	e := &query.Exec{Env: h.env, Q: q}
	s := New(testF, testTPP, testBS).Start(e).(*runFrame).s
	s.expanded = g.expanded
	s.perPartRaw = g.perPartRaw
	s.rBuf, s.sBuf = g.rBuf, g.sBuf
	s.rSpooled = float64(s.b-s.expanded) * s.perPartRaw
	s.sPending = g.sPending
	s.fExpand.sRemaining = g.sRemaining
	return h, s
}

// entryCase names a child, its entry test and how to configure the
// frame for entry; a Call* helper configures its frame by entering it
// on a machine that is then dropped.
type entryCase struct {
	name  string
	idle  func(s *jstate) bool
	frame func(s *jstate) sim.Frame
}

// TestEntryTestsMatchFrames holds each join child's entry test to its
// frame's step 0 over a grid of per-block states, in both directions:
// when the test says idle, entering the child returns true at step 0
// with the kernel's sequence number, step count and clock and the
// join's data unchanged; when it says not idle, step 0 does something
// else. The grid spans allocations from suspended to maximum,
// partitions from all contracted to all expanded, spool buffers around
// one block, and spooled S pages.
func TestEntryTestsMatchFrames(t *testing.T) {
	b := NumPartitions(300, testF)
	allocs := []string{"0", "min", "mid", "max"}
	expanded := []int{0, b / 2, b - 1, b}
	perPart := []float64{0, 1.5, 300.0 / float64(b)}
	adapt := entryCase{"adapt", (*jstate).adaptIdle, func(s *jstate) sim.Frame { return &s.fAdapt }}
	flushR := entryCase{"flushR", func(s *jstate) bool { return s.flushIdle(s.rBuf) },
		func(s *jstate) sim.Frame { var m sim.Machine; s.callFlushR(&m, false); return &s.fFlush }}
	flushS := entryCase{"flushS", func(s *jstate) bool { return s.flushIdle(s.sBuf) },
		func(s *jstate) sim.Frame { var m sim.Machine; s.callFlushS(&m, false); return &s.fFlush }}
	expand := entryCase{"expand", func(s *jstate) bool { return s.expandIdle(s.fExpand.sRemaining) },
		func(s *jstate) sim.Frame { return &s.fExpand }}

	counts := map[string][2]int{} // per child: idle and busy states reached
	check := func(c entryCase, g joinState) {
		t.Helper()
		h, s := g.build(t)
		before := snapJoin(s)
		idle := c.idle(s)
		atOnce := returnsAtOnce(t, h.k, s.e, c.frame(s)) && snapJoin(s) == before
		if atOnce != idle {
			t.Errorf("%s at %+v: entry test says idle=%v, step 0 returned true at once untouched=%v", c.name, g, idle, atOnce)
		}
		n := counts[c.name]
		if idle {
			n[0]++
		} else {
			n[1]++
		}
		counts[c.name] = n
	}
	for _, alloc := range allocs {
		for _, exp := range expanded {
			for _, ppr := range perPart {
				check(adapt, joinState{alloc: alloc, expanded: exp, perPartRaw: ppr})
				for _, sp := range []float64{0, 40} {
					for _, rem := range []int{0, 100, 1500} {
						check(expand, joinState{alloc: alloc, expanded: exp, perPartRaw: ppr, sPending: sp, sRemaining: rem})
					}
				}
			}
		}
	}
	for _, buf := range []float64{0, 0.4, testBS - 0.5, testBS, testBS + 0.5, 2*testBS + 1} {
		g := joinState{alloc: "min", expanded: b / 2, perPartRaw: 1.5, rBuf: buf, sBuf: buf}
		check(flushR, g)
		check(flushS, g)
	}
	for name, n := range counts {
		if n[0] == 0 || n[1] == 0 {
			t.Errorf("%s: grid reached %d idle and %d busy states; want both", name, n[0], n[1])
		}
	}
}
