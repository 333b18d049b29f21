package sim

// Server is a single-channel priority resource: one request is in service
// at a time, and when it completes the queued request with the lowest
// Prio value (earliest deadline) starts next, FIFO among ties. Service is
// uncancellable once started; interrupts delivered mid-service surface
// after the request completes. The simulated CPU is a Server.
//
// A process requests service with StartUse, which arms its wait (a
// direct serve on an idle server, or a queue entry) without blocking;
// the process then parks until the completion wakes it.
//
// The service hot path is allocation-free and closure-free: completions
// are typed kernel events (AtComplete) addressing the server by its
// registered completer id, and the in-flight request is carried in
// Server fields rather than per-dispatch closures.
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
type Server struct {
	k     *Kernel
	gate  *Gate
	meter *BusyMeter
	busy  bool

	cur    *Waiting // queued entry currently in service
	direct *Proc    // caller of an idle-server direct serve

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

// StartUse requests service seconds of exclusive use of the server for
// p at priority prio (lower is served first) — starting service
// immediately on an idle server, queueing otherwise — without blocking.
// entered=true means the wait was entered: the caller must park
// immediately, and the outcome arrives at its next Step: true when the
// service completed, false when p was interrupted before service
// started (no time consumed) or during it (the service completed, then
// the interruption is reported). entered=false means the request
// finished within the call with result ok: true when the service was
// elided (its completion was the next event, so the clock already
// stands at its end), false when a pending interrupt consumed the wait
// (if service had already started it still completes on the server's
// timeline).
func (s *Server) StartUse(p *Proc, prio float64, service float64) (entered, ok bool) {
	if !(service >= 0) {
		panic("sim: negative or NaN service time")
	}
	if !s.busy {
		// Fast path: idle server, start service immediately, parking the
		// caller uncancellably for the service duration.
		s.busy = true
		s.meter.SetBusy(true)
		if p.takePendingInterrupt() {
			s.finish()
			return false, false
		}
		// Elided: the completion and the caller's resumed turn.
		if service > 0 && s.k.Elide(s.k.now+service, 2) {
			s.finish()
			return false, true
		}
		p.cancel = cancelNone
		s.direct = p
		s.k.AtComplete(service, s.compID, true)
		return true, false
	}
	if p.takePendingInterrupt() {
		return false, false
	}
	// On a normal release the dispatcher has already accounted for the
	// service; the wake is the completion signal.
	s.gate.enqueue(p, prio, nil, service)
	return true, false
}

// completeDirect ends a direct serve: the server is freed (dispatching
// the next queued request) before the served caller's wake is scheduled.
func (s *Server) completeDirect() {
	p := s.direct
	s.direct = nil
	s.finish()
	p.deliverWake(false)
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
