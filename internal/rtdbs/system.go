package rtdbs

import (
	"fmt"
	"math"

	"pmm/internal/buffer"
	"pmm/internal/catalog"
	"pmm/internal/core"
	"pmm/internal/cpu"
	"pmm/internal/disk"
	"pmm/internal/extsort"
	"pmm/internal/join"
	"pmm/internal/policy"
	"pmm/internal/query"
	"pmm/internal/sim"
	"pmm/internal/trace"
	"pmm/internal/workload"
)

// System is one assembled simulation instance.
type System struct {
	cfg   Config
	k     *sim.Kernel
	cpu   *cpu.CPU
	disks *disk.Manager
	pool  *buffer.Pool
	cat   *catalog.Catalog
	gen   *workload.Generator
	ctrl  *controller
	met   *Metrics
	pmm   *core.PMM // nil unless PolicyPMM
	tr    *sysTrace // nil unless SetTrace attached a collector

	// env is held by value. Its I/O counters are written on every disk
	// request, and a small heap object of its own would share a cache
	// line with the next object, which in a sharded run may belong to
	// a cell another worker is running. A System is over 512 bytes, and
	// Go rounds such objects to multiples of 64 bytes, so its fields
	// share no line with another cell's.
	env query.Env

	// srcs holds the aggregated arrival source of each batched class
	// (nil entries for classic Poisson classes) — the same instances the
	// source processes drive, reused for rate-envelope sampling because
	// constructing a second source would replay its RNG side effects.
	srcs []*workload.ArrivalSource

	// Operator prototypes, built once per system: the per-query execution
	// state lives in the Start-built frames, so the descriptors are
	// shareable and launch allocates no operator.
	joinOp *join.PPHJ
	sortOp *extsort.Sort

	// Measurement window for PMM's probe.
	winStart    float64
	winCPUBusy0 float64
	winDisk0    []float64
	winMPLArea0 float64
}

// New builds a system from cfg. The same config and seed always produce
// the same run. The system gets a private frame arena: its processes,
// query frames and operator state come from slabs instead of the heap,
// and each finished query's are reused by the next. The arena dies with
// the system, so it starts cold; sweep workers and Simulate, which keep
// arenas warm across runs, pass one via NewWithArena.
func New(cfg Config) (*System, error) { return NewWithArena(cfg, sim.NewArena()) }

// NewWithArena builds a system whose kernel allocates processes and
// operator frames from arena a — the warm-start path sweep workers use,
// with Arena.Reset between replicates. A nil arena gives a kernel with
// no arena at all, whose state the garbage collector reclaims. The run
// itself is bit-for-bit identical either way: the arena changes where
// state lives, never what events fire.
func NewWithArena(cfg Config, a *sim.Arena) (*System, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, k: sim.NewKernelIn(a)}
	s.cpu = cpu.New(s.k, cfg.CPUMips)

	relCyl := catalog.CylindersNeeded(cfg.Groups, cfg.Disk.CylinderSize)
	var err error
	s.disks, err = disk.NewManager(s.k, cfg.Disk, relCyl, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s.cat, err = catalog.Build(s.disks, cfg.Groups, cfg.TuplesPerPage, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s.pool = buffer.NewPool(cfg.MemoryPages)
	wp := workload.Params{
		FudgeFactor:   cfg.FudgeFactor,
		TuplesPerPage: cfg.TuplesPerPage,
		BlockSize:     cfg.Disk.BlockSize,
	}
	s.gen, err = workload.NewGenerator(s.cat, cfg.Disk, cfg.CPUMips, wp, cfg.Classes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s.env = query.Env{K: s.k, CPU: s.cpu, Disks: s.disks, Pool: s.pool}
	s.met = newMetrics(len(cfg.Classes))

	var alloc policy.Allocator
	switch cfg.Policy.Kind {
	case PolicyMax:
		alloc = policy.Max{}
	case PolicyMinMax:
		alloc = policy.MinMaxN{N: cfg.Policy.MPLLimit}
	case PolicyProportional:
		alloc = policy.ProportionalN{N: cfg.Policy.MPLLimit}
	case PolicyPMM:
		s.pmm = core.New(cfg.Policy.PMM, s)
		alloc = s.pmm
	case PolicyFairPMM:
		fair := core.NewFair(cfg.Policy.PMM, cfg.Policy.Fairness, len(cfg.Classes), s)
		s.pmm = fair.PMM
		alloc = fair
	default:
		return nil, fmt.Errorf("rtdbs: unknown policy kind %d", cfg.Policy.Kind)
	}
	s.ctrl = newController(s, alloc)
	s.winDisk0 = make([]float64, s.disks.NumDisks())
	s.joinOp = join.New(cfg.FudgeFactor, cfg.TuplesPerPage, cfg.Disk.BlockSize)
	s.sortOp = extsort.New(cfg.TuplesPerPage, cfg.Disk.BlockSize)
	s.startSources()
	return s, nil
}

// Kernel exposes the simulation kernel (tests and tools).
func (s *System) Kernel() *sim.Kernel { return s.k }

// Catalog exposes the database.
func (s *System) Catalog() *catalog.Catalog { return s.cat }

// Generator exposes the workload generator.
func (s *System) Generator() *workload.Generator { return s.gen }

// Run simulates the configured horizon and returns the results.
func (s *System) Run() *Results {
	s.k.Run(s.cfg.Duration)
	return s.results()
}

// rateAndBoundary returns a class's arrival rate at time t and the time
// at which it next changes (math.Inf(1) for static workloads). Phases
// cycle past their total span.
func (s *System) rateAndBoundary(class int, t float64) (rate, boundary float64) {
	if len(s.cfg.Phases) == 0 {
		return s.cfg.Classes[class].ArrivalRate, math.Inf(1)
	}
	var span float64
	for _, ph := range s.cfg.Phases {
		span += ph.Duration
	}
	cycle := math.Floor(t/span) * span
	off := t - cycle
	var acc float64
	for _, ph := range s.cfg.Phases {
		if off < acc+ph.Duration {
			return ph.Rates[class], cycle + acc + ph.Duration
		}
		acc += ph.Duration
	}
	// Floating-point edge: t landed exactly on the span boundary.
	return s.cfg.Phases[0].Rates[class], cycle + span + s.cfg.Phases[0].Duration
}

// sourceFrame is one Poisson source as an inline state machine: draw an
// inter-arrival gap under the current phase's rate, hold for it, launch
// a query, repeat — re-drawing at phase boundaries (exponentials are
// memoryless) and sleeping through phases with rate 0.
type sourceFrame struct {
	sim.FrameState
	s  *System
	p  *sim.Proc
	ci int
}

func (f *sourceFrame) Step(m *sim.Machine, ok bool) sim.Status {
	s := f.s
	for {
		switch f.PC {
		case 0: // loop head: plan the next arrival
			rate, boundary := s.rateAndBoundary(f.ci, f.p.Now())
			if rate <= 0 {
				if math.IsInf(boundary, 1) {
					return m.Return(true) // class never active
				}
				f.PC = 1
				if f.p.StartHold(boundary - f.p.Now()) {
					return sim.Park
				}
				ok = false
				continue
			}
			gap := s.gen.InterArrival(f.ci, rate)
			if f.p.Now()+gap > boundary {
				// The phase ends first; re-draw under the next
				// phase's rate (exponentials are memoryless).
				f.PC = 1
				if f.p.StartHold(boundary - f.p.Now()) {
					return sim.Park
				}
				ok = false
				continue
			}
			f.PC = 2
			if f.p.StartHold(gap) {
				return sim.Park
			}
			ok = false
		case 1: // phase-boundary hold ended
			if !ok {
				return m.Return(false)
			}
			f.PC = 0
		case 2: // inter-arrival hold ended
			if !ok {
				return m.Return(false)
			}
			s.arrive(f.ci)
			f.PC = 0
		}
	}
}

// batchedSourceFrame drives one count-batched (population- or
// modulation-scaled) class: ask the aggregated workload source for the
// next admitted arrival time, hold until it, arrive, repeat. All
// superposition and thinning happens inside ArrivalSource.Next, so the
// kernel sees one pending timer per class no matter how many simulated
// clients the class represents.
type batchedSourceFrame struct {
	sim.FrameState
	s   *System
	p   *sim.Proc
	src *workload.ArrivalSource
	ci  int
}

func (f *batchedSourceFrame) Step(m *sim.Machine, ok bool) sim.Status {
	for {
		switch f.PC {
		case 0: // plan the next admitted arrival
			t := f.src.Next(f.p.Now())
			f.PC = 1
			if f.p.StartHold(t - f.p.Now()) {
				return sim.Park
			}
			ok = false
		case 1: // arrival hold ended
			if !ok {
				return m.Return(false)
			}
			f.s.arrive(f.ci)
			f.PC = 0
		}
	}
}

// startSources spawns one source process per class: the classic Poisson
// frame for simple fixed-rate classes (bit-identical to every pre-batch
// release), the aggregated frame for population/modulated ones.
func (s *System) startSources() {
	s.srcs = make([]*workload.ArrivalSource, len(s.cfg.Classes))
	for ci := range s.cfg.Classes {
		name := fmt.Sprintf("source-%s", s.cfg.Classes[ci].Name)
		if s.cfg.Classes[ci].Batched() {
			f := sim.AllocFrom[batchedSourceFrame](s.k.Arena())
			f.s, f.ci, f.src = s, ci, s.gen.Source(ci)
			s.srcs[ci] = f.src
			f.p = s.k.Spawn(name, f)
			continue
		}
		f := sim.AllocFrom[sourceFrame](s.k.Arena())
		f.s, f.ci = s, ci
		f.p = s.k.Spawn(name, f)
	}
}

// queryFrame is the query lifecycle as an inline state machine: register
// with the admission controller, wait for the first memory grant, run
// the operator, then depart (completed or missed).
type queryFrame struct {
	sim.FrameState
	s         *System
	q         *query.Query
	e         query.Exec
	completed bool
}

func (f *queryFrame) Step(m *sim.Machine, ok bool) sim.Status {
	for {
		switch f.PC {
		case 0: // entry
			f.s.ctrl.Arrive(f.q)
			f.completed = false
			f.PC = 1
			return f.e.CallWaitMemory(m)
		case 1: // admitted (or aborted while waiting)
			if !ok {
				f.PC = 3
				continue
			}
			f.PC = 2
			return m.Call(f.s.buildOperator(f.q).Start(&f.e))
		case 2: // operator finished
			f.completed = ok
			f.PC = 3
		case 3: // depart
			q, completed := f.q, f.completed
			q.Finished = true
			q.FinishTime = f.s.k.Now()
			q.Missed = !completed
			f.s.ctrl.Depart(q, completed)
			// The frame, with the Exec inside it, is done: give it back
			// for the next query, whose launch takes it.
			sim.FreeTo(f.s.k.Arena(), f)
			return m.Return(completed)
		}
	}
}

// arrive is the class-level admission door: every arrival is counted,
// and when the bounded admission queue is full the arrival is rejected
// here — before any query state, RNG draws beyond the arrival clock, or
// process frames are built — so overload sheds load at O(1) per
// rejected client request.
func (s *System) arrive(ci int) {
	s.met.arrived++
	if tr := s.tr; tr != nil {
		tr.rate.Sample(s.k.Now(), s.offeredRate(s.k.Now()))
	}
	if s.cfg.AdmitQueue > 0 && s.ctrl.waiting >= s.cfg.AdmitQueue {
		s.met.recordRejection(ci)
		if tr := s.tr; tr != nil {
			tr.c.AddInstant(tr.rejects, trace.InstReject, int64(ci), s.k.Now(), 0)
		}
		return
	}
	s.launch(s.gen.NewQuery(ci, s.k.Now()))
}

// launch starts a query process and arms its firm-deadline abort.
func (s *System) launch(q *query.Query) {
	f := sim.AllocFrom[queryFrame](s.k.Arena())
	f.s, f.q = s, q
	f.e = query.Exec{Env: &s.env, Q: q}
	// A process name reaches only a trace sink, and every query is
	// launched during Run, after SetTrace attached it.
	var name string
	if s.tr != nil {
		name = fmt.Sprintf("q%d", q.ID)
	}
	q.Proc = s.k.Spawn(name, f)
	f.e.P = q.Proc
	// The abort event deliberately fires even for queries that finish
	// early: cancelling it on completion would change the executed-event
	// trace, and the pending entry just waits in the kernel's deadline
	// heap, apart from the events that run queries, until it fires
	// either way. It addresses the process by id, so once the query has
	// finished it reaches the kernel's dead sentinel and interrupts
	// nothing, even when a later query has reused the process record.
	// A query marks itself Finished in the same turn its process dies,
	// so the typed event is equivalent to the old Finished-guarded
	// closure.
	s.k.AtInterrupt(q.Deadline-s.k.Now(), q.Proc)
}

// buildOperator selects the operator prototype for a query.
func (s *System) buildOperator(q *query.Query) query.Operator {
	if q.Kind == query.HashJoin {
		return s.joinOp
	}
	return s.sortOp
}

// results snapshots the metrics at the current simulation time.
func (s *System) results() *Results {
	m := s.met
	r := &Results{
		Policy:              s.cfg.PolicyName(),
		Duration:            s.k.Now(),
		Arrived:             m.arrived,
		Terminated:          m.terminated,
		Completed:           m.completed,
		Missed:              m.missed,
		Rejected:            m.rejected,
		AvgQueueDelay:       m.queueDelay.Mean(),
		AvgWait:             m.wait.Mean(),
		AvgExec:             m.exec.Mean(),
		AvgResponse:         m.resp.Mean(),
		AvgFluctuations:     m.fluct.Mean(),
		AvgIOAmplification:  m.ioAmp.Mean(),
		AvgExecOverSA:       m.execOverSA.Mean(),
		MissedNeverAdmitted: m.missedNoAdm,
		AvgMissedIOProgress: m.missedIOProg.Mean(),
		AvgMPL:              s.ctrl.mplMeter.Average(0, 0),
		Events:              m.events,
	}
	if m.terminated > 0 {
		r.MissRatio = float64(m.missed) / float64(m.terminated)
	}
	if m.arrived > 0 {
		r.LossRatio = float64(m.rejected) / float64(m.arrived)
	}
	r.MissRatioHW90 = missCI(m.events)
	elapsed := s.k.Now()
	if elapsed > 0 {
		r.CPUUtil = s.cpu.Meter().Utilization(0, 0)
		zero := make([]float64, s.disks.NumDisks())
		r.AvgDiskUtil = s.disks.AvgUtilization(0, zero)
		r.MaxDiskUtil = s.disks.MaxUtilization(0, zero)
	}
	for ci, cl := range s.cfg.Classes {
		cr := ClassResult{
			Name: cl.Name, Terminated: m.classTerm[ci],
			Missed: m.classMissed[ci], Rejected: m.classRejected[ci],
		}
		if cr.Terminated > 0 {
			cr.MissRatio = float64(cr.Missed) / float64(cr.Terminated)
		}
		r.PerClass = append(r.PerClass, cr)
	}
	for i := range r.MissBySlackQuartile {
		if m.slackQTerm[i] > 0 {
			r.MissBySlackQuartile[i] = float64(m.slackQMiss[i]) / float64(m.slackQTerm[i])
		}
	}
	r.LRUHits, r.LRUMisses, _ = s.pool.Stats()
	r.IOBreakdown = s.env.IOBreakdown
	if s.pmm != nil {
		r.PMMTrace = s.pmm.Trace()
		r.PMMRestarts = s.pmm.Restarts()
	}
	return r
}

// Now implements core.Probe.
func (s *System) Now() float64 { return s.k.Now() }

// MaxResourceUtil implements core.Probe: the busiest of CPU and disks
// over the current window.
func (s *System) MaxResourceUtil() float64 {
	u := s.cpu.Meter().Utilization(s.winStart, s.winCPUBusy0)
	if d := s.disks.MaxUtilization(s.winStart, s.winDisk0); d > u {
		u = d
	}
	return u
}

// AvgMPL implements core.Probe: time-averaged observed MPL this window.
func (s *System) AvgMPL() float64 {
	return s.ctrl.mplMeter.Average(s.winStart, s.winMPLArea0)
}

// ResetWindow implements core.Probe.
func (s *System) ResetWindow() {
	s.winStart = s.k.Now()
	s.winCPUBusy0 = s.cpu.Meter().BusyTime()
	s.winDisk0 = s.disks.BusySnapshot()
	s.winMPLArea0 = s.ctrl.mplMeter.Area()
}
