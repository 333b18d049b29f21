package rtdbs

import (
	"fmt"

	"pmm/internal/query"
	"pmm/internal/sim"
	"pmm/internal/trace"
)

// sysTrace is the trace wiring of one traced System: the collector plus
// the track handles the system layer records into. nil on untraced
// systems, so every hook is one pointer compare.
type sysTrace struct {
	c       *trace.Collector
	queries trace.TrackID  // query lifecycle spans (wait, exec)
	rejects trace.TrackID  // admission-door rejection instants
	grants  trace.TrackID  // memory grant / fluctuation instants
	exchT   trace.TrackID  // broker exchange instants (sharded cells)
	queue   *trace.Counter // admission-queue depth
	pool    *trace.Counter // reserved pool pages
	rate    *trace.Counter // offered aggregate arrival rate (envelope)
	quota   *trace.Counter // broker cell quota (sharded cells)
}

// SetTrace attaches a collector to the system: the kernel reports its
// event stream to it as a sink, the CPU/disk/MPL meters mirror their
// transitions onto counter tracks, and the admission controller and
// query execution emit lifecycle spans, grant/rejection/IO instants,
// and queue/pool/rate timelines. Tracing is a pure observation layer —
// it schedules nothing and draws no randomness — so a traced run is
// bit-for-bit identical to an untraced one (pinned by the golden trace
// tests). Call before Run; a nil collector panics.
func (s *System) SetTrace(c *trace.Collector) {
	tr := &sysTrace{
		c:       c,
		queries: c.Track("queries", trace.TrackSpan),
		rejects: c.Track("admission door", trace.TrackInstant),
		grants:  c.Track("memory grants", trace.TrackInstant),
		exchT:   c.Track("broker", trace.TrackInstant),
		queue:   c.Counter("admit queue depth"),
		pool:    c.Counter("pool reserved pages"),
		rate:    c.Counter("arrival rate"),
		quota:   c.Counter("broker quota"),
	}
	s.tr = tr
	s.k.SetSink(c)
	s.cpu.Meter().Trace(c.Counter("cpu util"))
	for i := 0; i < s.disks.NumDisks(); i++ {
		s.disks.Disk(i).Meter().Trace(c.Counter(fmt.Sprintf("disk %d util", i)))
	}
	s.ctrl.mplMeter.Trace(c.Counter("mpl"))
	s.env.Trace = c
	s.env.IOTrack = c.Track("io", trace.TrackInstant)
}

// Trace returns the attached collector, or nil.
func (s *System) Trace() *trace.Collector {
	if s.tr == nil {
		return nil
	}
	return s.tr.c
}

// offeredRate returns the instantaneous aggregate arrival rate over all
// classes at time t — the diurnal/MMPP envelope the admission-queue
// depth timeline is read against.
func (s *System) offeredRate(t float64) float64 {
	var sum float64
	for ci := range s.cfg.Classes {
		if src := s.srcs[ci]; src != nil {
			sum += src.Rate(t)
		} else {
			r, _ := s.rateAndBoundary(ci, t)
			sum += r
		}
	}
	return sum
}

// queryEnd emits the lifecycle spans of a terminated query: an
// admission-wait span from arrival, and an execution span when the
// query ever held memory. Aux carries the fluctuation count on exec
// spans and the issued-IO count on wait-only (never admitted) ones.
func (t *sysTrace) queryEnd(q *query.Query, completed bool) {
	var flags uint8
	if q.Missed {
		flags |= trace.FlagMissed
	}
	if completed {
		flags |= trace.FlagCompleted
	}
	waitEnd := q.FinishTime
	if q.Admitted {
		waitEnd = q.AdmitTime
		t.c.AddSpan(t.queries, trace.SpanExec, q.ID, int32(q.Class),
			q.AdmitTime, q.FinishTime, float64(q.Fluctuations), flags)
	}
	t.c.AddSpan(t.queries, trace.SpanWait, q.ID, int32(q.Class),
		q.Arrival, waitEnd, float64(q.IOCount), flags)
}

// TraceWindow selects the simulated-time interval [A, B) in which
// kernel-level events are recorded; the zero value records them for the
// whole run. System-level records are always complete.
type TraceWindow struct {
	A, B float64
}

func (w TraceWindow) active() bool { return w.B > w.A }

// SimulateTraced is Simulate with an attached trace: it runs cfg to
// completion exactly as Simulate would — the trace layer observes, never
// perturbs — and additionally returns the collected trace, one collector
// per cell for multi-tenant configs (each cell records independently;
// the broker's quota decisions land on each cell's own tracks at the
// barriers) and a single collector otherwise.
func SimulateTraced(cfg Config, a *sim.Arena, win TraceWindow) (*Results, *trace.Trace, error) {
	mk := func(shard int32) *trace.Collector {
		c := trace.NewCollector()
		c.Shard = shard
		if win.active() {
			c.SetWindow(win.A, win.B)
		}
		return c
	}
	if cfg.Tenants > 1 {
		r, err := newSharded(cfg)
		if err != nil {
			return nil, nil, err
		}
		tr := &trace.Trace{}
		for _, cell := range r.cells {
			c := mk(cell.id)
			cell.sys.SetTrace(c)
			tr.Shards = append(tr.Shards, c)
		}
		return r.run(), tr, nil
	}
	if a == nil {
		a = sim.TakeArena()
		defer putArena(a)
	}
	sys, err := NewWithArena(cfg, a)
	if err != nil {
		return nil, nil, err
	}
	c := mk(0)
	sys.SetTrace(c)
	return sys.Run(), trace.Single(c), nil
}
