package sim

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Partitioned (parallel) simulation: one simulated system sharded across
// several kernels, synchronized by classic conservative lookahead in
// window-barrier form. Each partition owns a kernel and declares a
// Horizon — the earliest future time at which it can interact with
// another partition. The Coordinator repeatedly advances every partition
// to the minimum horizon (the global lower bound), then runs a
// single-threaded exchange at that barrier in which cross-partition
// interactions are applied in a fixed total order. Because no partition
// ever runs past the earliest possible interaction, and the exchange is
// deterministic, the combined simulation is bit-for-bit identical for
// any worker count — including workers = 1 — which is what lets golden
// digests extend to the parallel path.

// Partition is one shard of a partitioned simulation. Implementations
// wrap a kernel plus the model state that runs on it; the contract is
// that the partition's model cannot affect, or be affected by, another
// partition at any time strictly before Horizon().
type Partition interface {
	// Kernel returns the shard's simulation kernel.
	Kernel() *Kernel
	// Horizon returns the partition's lookahead bound: the earliest
	// future simulation time at which it can interact with another
	// partition. Returning math.Inf(1) means the partition is fully
	// decoupled for the rest of the run. Horizon must be monotonically
	// non-decreasing and must advance past each barrier the exchange
	// handles, or the coordinator cannot make progress.
	Horizon() float64
}

// spinBudget is how long a waiting participant polls before it parks.
// Measured on the benchmark's tenants-sharded workload (four baseline
// cells, two participants, SyncInterval 1), running MinMax and PMM at
// seeds 1 and 13 on a 2-vCPU x86_64 host with GOMAXPROCS=2 and go1.24;
// each range spans two sweeps of the budgets:
//
//	budget     waits that parked   wall time of the four runs
//	  25 µs        13–14%              1.07–1.23 s
//	  50 µs         2–3%               0.96–1.02 s
//	 100 µs       0.4–0.5%             0.94–0.96 s
//	 200 µs        0.05%               0.92–0.97 s
//	 400 µs        0.03%               0.89–0.99 s
//
// Past 100 µs a longer spin saves no wall time beyond run-to-run noise.
//
// Spinning pays only while every participant has a P of its own.
// NewCoordinator clamps its workers to GOMAXPROCS, and a sweep running
// several simulations at once caps each one's Shards at its share of
// GOMAXPROCS. Without that cap, `rtdbsim -preset baseline -tenants 4
// -shards 2 -reps 4` (two simulations of two participants each on the
// same host) ran 3% longer in wall time and used 4% more CPU than with
// the parked workers this pool replaced, in the median of 10
// alternated pairs; with the cap, both medians were 4% lower than with
// parked workers, within run-to-run noise (6 and 5 of 10 pairs).
const spinBudget = 100 * time.Microsecond

// spinYield is how many polls a spinning participant makes between
// runtime.Gosched calls, which hand its P to any other runnable
// goroutine (a GC worker, another simulation) for a moment.
const spinYield = 32

// Pool is a persistent set of worker goroutines that advance one
// window's partitions together with the caller. A window costs no
// goroutine wake when windows follow each other closely: the caller
// publishes a window by bumping an atomic generation, which idle
// workers poll, and then polls for the last participant to check out
// of it. Each poller spins for up to spinBudget, yielding its P every
// spinYield polls, and only then parks on a channel, so an idle pool
// costs nothing.
//
// Participants claim partitions from a shared counter, so a slow
// partition cannot serialize the others. Every worker checks in once
// per window, even when there is nothing left for it to claim, so no
// worker can carry a stale bound into a later window, and Advance
// returns only when no worker references the window any more.
//
// Participants beyond runtime.GOMAXPROCS spin against each other
// instead of working; NewCoordinator clamps its worker count for that
// reason. A window allocates nothing.
type Pool struct {
	gen  paddedInt64 // window generation; workers wait for it to move
	next paddedInt64 // next unclaimed index into parts
	left paddedInt64 // participants still inside the current window
	done paddedInt64 // generation of the last window every participant has left

	// Window state, written by the caller before it publishes gen and
	// read by the workers only after they observe the new generation.
	parts  []Partition
	bound  float64
	closed bool

	caller  waiter
	workers []waiter
	exited  sync.WaitGroup
}

// paddedInt64 is an atomic word alone on its cache line, so a
// participant polling it is not disturbed by writes to its neighbours.
type paddedInt64 struct {
	atomic.Int64
	_ [56]byte
}

// waiter is where one participant parks once its spin budget is spent.
type waiter struct {
	parked atomic.Bool
	wake   chan struct{} // capacity 1: a token sent before the receive is kept
}

// NewPool builds a pool sized for `workers`-way parallelism: the caller
// plus workers-1 goroutines. workers < 1 is treated as 1 (no
// goroutines; Advance runs everything on the caller).
func NewPool(workers int) *Pool {
	p := &Pool{caller: waiter{wake: make(chan struct{}, 1)}}
	if workers > 1 {
		p.workers = make([]waiter, workers-1)
	}
	for i := range p.workers {
		p.workers[i].wake = make(chan struct{}, 1)
		p.exited.Add(1)
		go p.worker(&p.workers[i])
	}
	return p
}

// Close stops the pool's worker goroutines and returns once every one
// of them has exited, whether it was parked or spinning. The pool must
// be idle (no Advance in flight); after Close it must not be used again.
func (p *Pool) Close() {
	p.closed = true
	p.publish()
	p.exited.Wait()
}

// publish opens the next generation and wakes every worker that has
// parked; it returns the new generation.
func (p *Pool) publish() int64 {
	g := p.gen.Add(1)
	for i := range p.workers {
		p.workers[i].signal()
	}
	return g
}

func (p *Pool) worker(w *waiter) {
	defer p.exited.Done()
	var g int64
	for {
		g = w.wait(&p.gen.Int64, g)
		if p.closed {
			return
		}
		p.run(g)
	}
}

// Advance runs every partition in parts to bound, returning when all
// have finished and no worker references parts any more.
func (p *Pool) Advance(parts []Partition, bound float64) {
	if len(p.workers) == 0 || len(parts) <= 1 {
		for _, part := range parts {
			part.Kernel().Run(bound)
		}
		return
	}
	p.parts, p.bound = parts, bound
	p.next.Store(0)
	p.left.Store(int64(len(p.workers) + 1))
	g := p.publish()
	p.run(g)
	p.caller.wait(&p.done.Int64, g-1)
	p.parts = nil
}

// run is one participant's share of window g: partitions claimed from
// the shared counter until none remain. The last participant to check
// out marks the window done.
func (p *Pool) run(g int64) {
	for {
		i := int(p.next.Add(1)) - 1
		if i >= len(p.parts) {
			break
		}
		p.parts[i].Kernel().Run(p.bound)
	}
	if p.left.Add(-1) == 0 {
		p.done.Store(g)
		p.caller.signal()
	}
}

// wait returns the value of word once it differs from old. It polls for
// up to spinBudget, yielding the P every spinYield polls, and then parks
// until signalled. Parking cannot lose a wakeup: the waiter announces
// that it is parked before its last check of word, and a signaller
// stores word before it looks at parked, so with sequentially
// consistent atomics either that check sees the new value or the
// signaller sees parked and sends a token. A token that arrives after
// the check succeeded stays in the channel and costs the next park one
// more check.
func (w *waiter) wait(word *atomic.Int64, old int64) int64 {
	var spinning time.Time
	for i := 1; ; i++ {
		if v := word.Load(); v != old {
			return v
		}
		if i%spinYield != 0 {
			continue
		}
		if spinning.IsZero() {
			spinning = time.Now()
		} else if time.Since(spinning) > spinBudget {
			break
		}
		runtime.Gosched()
	}
	for {
		w.parked.Store(true)
		if v := word.Load(); v != old {
			w.parked.Store(false)
			return v
		}
		<-w.wake
	}
}

// signal wakes w if it has announced that it is parked. The caller must
// already have stored the word w waits on.
func (w *waiter) signal() {
	if w.parked.Load() {
		select {
		case w.wake <- struct{}{}:
		default: // a token is already pending
		}
	}
}

// Coordinator drives a set of partitions with window barriers.
type Coordinator struct {
	parts []Partition
	pool  *Pool
	// exchange applies cross-partition interactions at a barrier time.
	// It runs single-threaded, after every partition has advanced to
	// exactly that time and before any partition resumes.
	exchange func(now float64)
	now      float64
}

// NewCoordinator builds a coordinator over the given partitions.
// workers bounds how many partitions advance concurrently within one
// window; it affects wall-clock time only, never results. Values < 1
// mean sequential execution, and values above the partition count or
// runtime.GOMAXPROCS(0) are clamped, since a participant without a P
// of its own only spins against the others. The workers are created
// once here as a persistent Pool; call Close when done with the
// coordinator to stop them. exchange may be nil for fully decoupled
// partitions.
func NewCoordinator(parts []Partition, workers int, exchange func(now float64)) *Coordinator {
	workers = min(workers, len(parts), runtime.GOMAXPROCS(0))
	return &Coordinator{parts: parts, pool: NewPool(workers), exchange: exchange}
}

// Close stops the coordinator's worker pool and waits for its
// goroutines to exit. The coordinator must not Run again after Close.
func (c *Coordinator) Close() { c.pool.Close() }

// Now returns the global lower bound on simulation time: every partition
// has advanced to at least this time.
func (c *Coordinator) Now() float64 { return c.now }

// Run advances all partitions to time until. Each window computes the
// global bound min(partition horizons, until), advances every partition
// to it — concurrently when workers > 1; kernels never share state, so
// the only synchronization is the barrier itself — and, when the bound
// is an interaction horizon rather than the end time, runs the exchange
// at the barrier before opening the next window.
func (c *Coordinator) Run(until float64) {
	for c.now < until {
		bound := until
		for _, p := range c.parts {
			if h := p.Horizon(); h < bound {
				bound = h
			}
		}
		c.pool.Advance(c.parts, bound)
		c.now = bound
		if bound >= until {
			break
		}
		if c.exchange != nil {
			c.exchange(bound)
		}
	}
}

// Message is one cross-partition interaction record, exchanged at a
// window barrier. The triple (At, Seq, Shard) is its position in the
// combined event order; Kind and the payload words are owner-defined.
type Message struct {
	// At is the simulation time of the interaction (the barrier time).
	At float64
	// Seq orders messages from the same shard at the same time.
	Seq uint64
	// Shard identifies the emitting partition.
	Shard int32
	// Kind tags the interaction type (owner-defined).
	Kind int32
	// A and B are payload words (owner-defined).
	A, B int64
}

// SortMessages puts a barrier's messages into the deterministic
// (At, Seq, Shard) total order in which every exchange must fold them.
// The order is a property of the messages alone — independent of worker
// count, collection order, or goroutine interleaving — which is what
// makes a partitioned run reproduce the same combined event order as a
// sequential one. Ties on all three keys cannot occur between distinct
// messages (Seq is unique per shard and time).
func SortMessages(ms []Message) {
	slices.SortStableFunc(ms, func(a, b Message) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Seq, b.Seq); c != 0 {
			return c
		}
		return cmp.Compare(a.Shard, b.Shard)
	})
}
