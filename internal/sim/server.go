package sim

// Server is a single-channel priority resource: one request is in service
// at a time, and when it completes the queued request with the lowest
// Prio value (earliest deadline) starts next, FIFO among ties. Service is
// uncancellable once started; interrupts delivered mid-service surface
// after the request completes. The simulated CPU is a Server.
//
// The service hot path is allocation-free and closure-free: completions
// are typed kernel events (AtComplete) addressing the server by its
// registered completer id, and the in-flight request is carried in
// Server fields rather than per-dispatch closures. Completion timers
// are never cancelled (service is uncancellable), so they leave no
// tombstones in the kernel's heap.
//
// A request ends on one of two completion paths. A direct serve (the
// server was idle) ends with completeDirect, which frees the server and
// dispatches the next request before waking its caller. A dispatched
// queued request ends with completeQueued, which wakes the served
// process first and then dispatches. The two orders preserve the event
// order of the original implementation bit for bit. A direct serve
// whose completion Kernel.Elide proves to be the next event skips both
// events: StartUse frees the server inline and the caller continues in
// the same turn.
//
// Both process representations share one implementation: StartUse arms
// the wait (service timer or queue entry) for any Task, and the blocking
// Use is StartUse plus a goroutine park.
type Server struct {
	k     *Kernel
	gate  *Gate
	meter *BusyMeter
	busy  bool

	cur    *Waiting  // queued entry currently in service
	direct *taskCore // caller of an idle-server direct serve

	compID int32 // completer id AtComplete addresses this server by
}

// NewServer returns an idle server.
func NewServer(k *Kernel, name string) *Server {
	s := &Server{k: k, gate: NewGate(k, name), meter: NewBusyMeter(k)}
	s.compID = k.RegisterCompleter(s)
	return s
}

// Complete delivers a typed completion event; see Completer.
func (s *Server) Complete(direct bool) {
	if direct {
		s.completeDirect()
	} else {
		s.completeQueued()
	}
}

// Meter exposes the server's busy-time accounting.
func (s *Server) Meter() *BusyMeter { return s.meter }

// QueueLen returns the number of queued (not in-service) requests.
func (s *Server) QueueLen() int { return s.gate.Len() }

// Use blocks the calling process until it has exclusively held the server
// for service seconds. Lower prio values are served first. It returns
// false if the process was interrupted — before service started (no time
// consumed) or during it (service completed, then the interruption is
// reported).
func (s *Server) Use(p *Proc, prio float64, service float64) bool {
	if entered, ok := s.StartUse(p, prio, service); !entered {
		return ok
	}
	return p.Await()
}

// StartUse is the inline-process counterpart of Use: it enters the
// request — starting service immediately on an idle server, queueing
// otherwise — without blocking. entered=true means the wait was entered:
// the caller must park immediately, and the completion outcome arrives
// at its next Step exactly as Use's return value. entered=false means
// the request finished within the call with result ok: true when the
// service was elided (its completion was the next event, so the clock
// already stands at its end), false when a pending interrupt consumed
// the wait (if service had already started it still completes on the
// server's timeline).
func (s *Server) StartUse(t Task, prio float64, service float64) (entered, ok bool) {
	if !(service >= 0) {
		panic("sim: negative or NaN service time")
	}
	c := t.core()
	if !s.busy {
		// Fast path: idle server, start service immediately, parking the
		// caller uncancellably for the service duration.
		s.busy = true
		s.meter.SetBusy(true)
		if c.takePendingInterrupt() {
			s.finish()
			return false, false
		}
		// Elided: the completion and the caller's resumed turn.
		if service > 0 && s.k.Elide(s.k.now+service, 2) {
			s.finish()
			return false, true
		}
		c.cancel = cancelNone
		s.direct = c
		s.k.AtComplete(service, s.compID, true)
		return true, false
	}
	if c.takePendingInterrupt() {
		return false, false
	}
	// On a normal release the dispatcher has already accounted for the
	// service; the wake is the completion signal.
	s.gate.enqueue(c, prio, nil, service)
	return true, false
}

// completeDirect ends a direct serve: the server is freed (dispatching
// the next queued request) before the served caller's wake is scheduled.
func (s *Server) completeDirect() {
	c := s.direct
	s.direct = nil
	s.finish()
	c.deliverWake(false)
}

// finish marks the server idle and dispatches the next queued request.
func (s *Server) finish() {
	s.busy = false
	s.meter.SetBusy(false)
	s.dispatch()
}

// completeQueued ends a dispatched service: the served process's wake is
// scheduled before the next request starts.
func (s *Server) completeQueued() {
	w := s.cur
	s.cur = nil
	s.busy = false
	s.meter.SetBusy(false)
	s.gate.EndService(w)
	s.dispatch()
}

// dispatch starts service for the best queued request, if any.
func (s *Server) dispatch() {
	if s.busy {
		return
	}
	best := s.gate.MinWaiter()
	if best == nil {
		return
	}
	service := best.Val
	if !s.gate.BeginService(best) {
		return
	}
	s.busy = true
	s.meter.SetBusy(true)
	s.cur = best
	s.k.AtComplete(service, s.compID, false)
}
