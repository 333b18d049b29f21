package sim

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// tickPart is a toy partition: a kernel running a self-rescheduling
// event that logs (time, id, counter) tuples, with an epoch-boundary
// horizon like the production cells use.
type tickPart struct {
	k        *Kernel
	id       int
	interval float64
	epochs   int
	log      []float64
	count    int64
}

func (p *tickPart) Kernel() *Kernel  { return p.k }
func (p *tickPart) Horizon() float64 { return p.interval * float64(p.epochs+1) }
func (p *tickPart) bump(now float64) { p.count++; p.log = append(p.log, now) }

func newTickPart(id int, period, interval float64) *tickPart {
	p := &tickPart{k: NewKernel(), id: id, interval: interval}
	var tick func()
	tick = func() {
		p.bump(p.k.Now())
		at(p.k, period, tick)
	}
	at(p.k, period, tick)
	return p
}

// TestCoordinatorDeterministicAcrossWorkers drives the same partition
// set with every worker count and checks bit-identical outcomes: same
// per-partition logs, same exchange trace, same final clocks.
// NewCoordinator clamps workers to GOMAXPROCS, so the test raises it to
// reach 3 and 4 participants on a host with fewer CPUs.
func TestCoordinatorDeterministicAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	type outcome struct {
		logs    [][]float64
		trace   []Message
		steps   []uint64
		nows    []float64
		coordAt float64
	}
	run := func(workers int) outcome {
		parts := []*tickPart{
			newTickPart(0, 0.7, 5),
			newTickPart(1, 1.3, 5),
			newTickPart(2, 0.31, 5),
			newTickPart(3, 2.9, 5),
		}
		ps := make([]Partition, len(parts))
		for i, p := range parts {
			ps[i] = p
		}
		var trace []Message
		exchange := func(now float64) {
			// Collect one report per partition, merge them in the
			// canonical order, and append to the trace — then open the
			// next window.
			var ms []Message
			for _, p := range parts {
				ms = append(ms, Message{
					At: now, Seq: uint64(p.epochs), Shard: int32(p.id), A: p.count,
				})
				p.epochs++
			}
			SortMessages(ms)
			trace = append(trace, ms...)
		}
		c := NewCoordinator(ps, workers, exchange)
		defer c.Close()
		c.Run(42)
		out := outcome{coordAt: c.Now()}
		for _, p := range parts {
			out.logs = append(out.logs, p.log)
			out.steps = append(out.steps, p.k.Steps())
			out.nows = append(out.nows, p.k.Now())
		}
		out.trace = trace
		return out
	}
	base := run(1)
	if base.coordAt != 42 {
		t.Fatalf("coordinator stopped at %g, want 42", base.coordAt)
	}
	for _, p := range base.nows {
		if p != 42 {
			t.Fatalf("partition clocks %v, want all 42", base.nows)
		}
	}
	if len(base.trace) == 0 {
		t.Fatal("no exchanges ran")
	}
	for workers := 2; workers <= 6; workers++ {
		got := run(workers)
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d: outcome differs from sequential run", workers)
		}
	}
}

// TestCoordinatorBarrierOrdering checks the conservative-lookahead
// contract: the exchange at barrier time T observes every partition
// advanced to exactly T, and no partition has run past T.
func TestCoordinatorBarrierOrdering(t *testing.T) {
	parts := []*tickPart{newTickPart(0, 0.5, 3), newTickPart(1, 0.9, 3)}
	ps := []Partition{parts[0], parts[1]}
	var barriers []float64
	exchange := func(now float64) {
		for _, p := range parts {
			if p.k.Now() != now {
				t.Fatalf("barrier at %g: partition %d clock at %g", now, p.id, p.k.Now())
			}
			for _, ts := range p.log {
				if ts > now {
					t.Fatalf("partition %d ran event at %g past barrier %g", p.id, ts, now)
				}
			}
			p.epochs++
		}
		barriers = append(barriers, now)
	}
	c := NewCoordinator(ps, 2, exchange)
	defer c.Close()
	c.Run(10)
	want := []float64{3, 6, 9}
	if !reflect.DeepEqual(barriers, want) {
		t.Fatalf("barriers %v, want %v", barriers, want)
	}
}

// TestSortMessagesTotalOrder fuzzes the merge comparator: shuffled
// inputs always sort to one canonical sequence ordered by
// (At, Seq, Shard).
func TestSortMessagesTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var canon []Message
	for i := 0; i < 200; i++ {
		canon = append(canon, Message{
			At:    float64(rng.Intn(5)),
			Seq:   uint64(rng.Intn(4)),
			Shard: int32(rng.Intn(6)),
			Kind:  int32(i), // payload marker, not an order key
			A:     int64(i),
		})
	}
	SortMessages(canon)
	for i := 1; i < len(canon); i++ {
		a, b := canon[i-1], canon[i]
		if a.At > b.At ||
			(a.At == b.At && a.Seq > b.Seq) ||
			(a.At == b.At && a.Seq == b.Seq && a.Shard > b.Shard) {
			t.Fatalf("not ordered at %d: %+v before %+v", i, a, b)
		}
	}
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]Message(nil), canon...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		SortMessages(shuffled)
		// Key order must match exactly; payloads of key-tied messages
		// may permute (production senders never emit key ties).
		for i := range shuffled {
			if shuffled[i].At != canon[i].At || shuffled[i].Seq != canon[i].Seq ||
				shuffled[i].Shard != canon[i].Shard {
				t.Fatalf("trial %d: key order diverged at %d", trial, i)
			}
		}
	}
}

// TestSortMessagesAllocFree: the barrier sorts its messages once per
// window, so the sort must not allocate.
func TestSortMessagesAllocFree(t *testing.T) {
	ms := make([]Message, 4)
	allocs := testing.AllocsPerRun(100, func() {
		for i := range ms {
			ms[i] = Message{At: 1, Seq: uint64(i % 2), Shard: int32(len(ms) - i)}
		}
		SortMessages(ms)
	})
	if allocs != 0 {
		t.Fatalf("SortMessages allocates %v times per call", allocs)
	}
}

// TestPoolCloseReleasesWorkers: Close returns only once every worker
// goroutine has exited — workers that never saw a window, workers that
// parked after their spin budget ran out, and workers still spinning
// right after a window. The test runs on one P, which makes the count
// exact: a worker that wakes Close's caller finishes exiting before the
// caller can run, and a worker Close did not wait for cannot have run.
func TestPoolCloseReleasesWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	parts := []Partition{newTickPart(0, 0.7, 5), newTickPart(1, 1.3, 5), newTickPart(2, 0.3, 5)}
	before := runtime.NumGoroutine()
	for i, state := range []string{"fresh", "parked", "spinning"} {
		p := NewPool(3)
		switch state {
		case "parked":
			p.Advance(parts, float64(i))
			for !p.parked() {
				time.Sleep(spinBudget)
			}
		case "spinning":
			p.Advance(parts, float64(i))
		}
		p.Close()
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("%s workers: %d goroutines after Close, %d before NewPool", state, n, before)
		}
	}
}

// parked reports whether every worker has parked.
func (p *Pool) parked() bool {
	for i := range p.workers {
		if !p.workers[i].parked.Load() {
			return false
		}
	}
	return true
}

// stressPart is a partition whose horizon TestCoordinatorStressWindows
// moves at every barrier. An event the test files at each window's
// bound logs the window, and the kernel flags any second participant
// that enters it before that event.
type stressPart struct {
	k       *Kernel
	horizon float64
	inside  atomic.Int32
	overlap atomic.Bool
	ran     []stressRun
}

type stressRun struct {
	window int
	at     float64
}

func (p *stressPart) Kernel() *Kernel {
	if p.inside.Add(1) != 1 {
		p.overlap.Store(true)
	}
	return p.k
}

func (p *stressPart) Horizon() float64 { return p.horizon }

// TestCoordinatorStressWindows runs thousands of short windows with
// random partition counts, worker counts and bounds, and checks the
// barrier contract: every partition runs exactly once per window, to
// that window's bound, and never on two participants at once. Run it
// with -race -count=10. GOMAXPROCS is raised to 4 for the test, since
// NewCoordinator would otherwise clamp the 3- and 4-worker trials to
// the host's CPU count.
func TestCoordinatorStressWindows(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(3))
	windows := 0
	for trial := 0; trial < 200; trial++ {
		parts := make([]*stressPart, 1+rng.Intn(8))
		ps := make([]Partition, len(parts))
		for i := range parts {
			parts[i] = &stressPart{k: NewKernel(), horizon: float64(1 + rng.Intn(4))}
			ps[i] = parts[i]
		}
		workers := 1 + rng.Intn(4)
		until := float64(5 + rng.Intn(40))
		window := 0
		// open files window w's logging event at its bound on every
		// partition, plus a random amount of filler work before it.
		// Times are whole numbers, so the bound is hit exactly.
		open := func(now float64) {
			bound := until
			for _, p := range parts {
				bound = min(bound, p.horizon)
			}
			w := window
			for _, p := range parts {
				for n := rng.Intn(100); n > 0; n-- {
					at(p.k, rng.Float64()*(bound-now), func() {})
				}
				at(p.k, bound-now, func() {
					p.ran = append(p.ran, stressRun{w, p.k.Now()})
					p.inside.Add(-1)
				})
			}
		}
		check := func(now float64) {
			for i, p := range parts {
				if p.overlap.Load() || p.inside.Load() != 0 {
					t.Fatalf("trial %d window %d: partition %d entered concurrently", trial, window, i)
				}
				if len(p.ran) != window+1 || p.ran[window] != (stressRun{window, now}) || p.k.Now() != now {
					t.Fatalf("trial %d window %d (bound %g): partition %d ran %v, clock %g",
						trial, window, now, i, p.ran, p.k.Now())
				}
			}
		}
		open(0)
		c := NewCoordinator(ps, workers, func(now float64) {
			check(now)
			for _, p := range parts {
				if p.horizon == now {
					p.horizon += float64(1 + rng.Intn(4))
				}
			}
			window++
			open(now)
		})
		c.Run(until)
		c.Close()
		check(until)
		windows += window + 1
	}
	if windows < 1000 {
		t.Fatalf("only %d windows ran", windows)
	}
}
