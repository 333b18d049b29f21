package rtdbs

import (
	"fmt"

	"pmm/internal/policy"
	"pmm/internal/query"
	"pmm/internal/sim"
	"pmm/internal/trace"
)

// terminationObserver is implemented by adaptive allocators (PMM) that
// learn from finished queries.
type terminationObserver interface {
	OnTermination(q *query.Query, completed bool)
}

// controller is the admission-control and memory-allocation executive:
// it keeps the set of present queries, re-runs the allocation policy on
// every arrival and departure, and applies grant changes — admitting,
// suspending, topping up, or shrinking queries, and waking any process
// parked on memory.
type controller struct {
	s        *System
	alloc    policy.Allocator
	present  []*query.Query
	grants   []int // replan's scratch, aligned with present
	mplMeter *sim.TimeWeighted
	// waiting counts present queries with no memory grant — the
	// admission-queue occupancy the bounded-queue door tests against.
	waiting int
}

func newController(s *System, alloc policy.Allocator) *controller {
	return &controller{s: s, alloc: alloc, mplMeter: sim.NewTimeWeighted(s.k)}
}

// sampleQueue mirrors the admission-queue depth onto its trace
// timeline; a no-op on untraced systems.
func (c *controller) sampleQueue() {
	if tr := c.s.tr; tr != nil {
		tr.queue.Sample(c.s.k.Now(), float64(c.waiting))
	}
}

// samplePool mirrors the reserved-page total onto its trace timeline.
func (c *controller) samplePool() {
	if tr := c.s.tr; tr != nil {
		tr.pool.Sample(c.s.k.Now(), float64(c.s.pool.Reserved()))
	}
}

// Arrive registers a new query and replans.
func (c *controller) Arrive(q *query.Query) {
	c.present = append(c.present, q)
	c.waiting++
	c.sampleQueue()
	c.replan()
}

// Depart removes a finished query, releases its memory, feeds the
// metrics and the adaptive policy, and replans.
func (c *controller) Depart(q *query.Query, completed bool) {
	for i, x := range c.present {
		if x == q {
			c.present = append(c.present[:i], c.present[i+1:]...)
			break
		}
	}
	if q.Alloc > 0 {
		q.Alloc = 0
		c.s.pool.Release(q.ID)
		c.mplMeter.Add(-1)
		c.samplePool()
	} else {
		c.waiting--
		c.sampleQueue()
	}
	c.s.met.recordTermination(q, completed)
	if tr := c.s.tr; tr != nil {
		tr.queryEnd(q, completed)
	}
	if obs, ok := c.alloc.(terminationObserver); ok {
		obs.OnTermination(q, completed)
	}
	c.replan()
}

// replan recomputes all grants in ED order and applies them, shrinking
// first so the pool never over-commits transiently.
func (c *controller) replan() {
	policy.SortByPriority(c.present)
	n := len(c.present)
	if cap(c.grants) < n {
		c.grants = make([]int, n, 2*n)
	}
	grants := c.grants[:n]
	c.alloc.Allocate(c.present, c.s.pool.Total(), grants)
	for i, q := range c.present {
		if grants[i] < q.Alloc {
			c.apply(q, grants[i])
		}
	}
	for i, q := range c.present {
		if grants[i] > q.Alloc {
			c.apply(q, grants[i])
		}
	}
}

// apply moves one query to a new grant, maintaining the admission state,
// the MPL meter, and the Figure 7 fluctuation count.
func (c *controller) apply(q *query.Query, n int) {
	if n != 0 && (n < q.MinMem || n > q.MaxMem) {
		panic(fmt.Sprintf("rtdbs: policy %s granted %d pages to query %d (min %d, max %d)",
			c.alloc.Name(), n, q.ID, q.MinMem, q.MaxMem))
	}
	old := q.Alloc
	if n == old {
		return
	}
	q.Alloc = n
	c.s.pool.SetReservation(q.ID, n)
	c.samplePool()
	switch {
	case old == 0 && n > 0:
		if !q.Admitted {
			q.Admitted = true
			q.AdmitTime = c.s.k.Now()
			c.s.met.queueDelay.Add(q.AdmitTime - q.Arrival)
		}
		c.mplMeter.Add(1)
		c.waiting--
		c.sampleQueue()
	case old > 0 && n == 0:
		c.mplMeter.Add(-1)
		c.waiting++
		c.sampleQueue()
	}
	if tr := c.s.tr; tr != nil {
		tr.c.AddInstant(tr.grants, trace.InstGrant, q.ID, c.s.k.Now(), float64(n))
	}
	if q.EverGranted {
		q.Fluctuations++
		if tr := c.s.tr; tr != nil {
			tr.c.AddInstant(tr.grants, trace.InstFluctuation, q.ID, c.s.k.Now(), float64(q.Fluctuations))
		}
	}
	if n > 0 {
		q.EverGranted = true
		if q.WantMem > 0 {
			q.Proc.Wake()
		}
	}
}
