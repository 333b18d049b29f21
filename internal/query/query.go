// Package query is the execution framework shared by the memory-adaptive
// operators (PPHJ hash joins and external sorts): the Query descriptor
// that admission control and memory allocation act upon, the Exec
// context through which operators consume CPU, disk, and buffer
// resources at their ED priority, and temporary-file plumbing for
// spooled partitions and sort runs.
//
// Query execution runs as kernel processes: operators are resumable
// state machines (sim.Frame) that the kernel steps directly, so a query
// turn costs a function call. Exec provides the leaf waits (StartCPU
// and the disk transfers inside the Call* frames) and reusable child
// frames for the common blocking compounds; all of them reproduce the
// event sequence of the original blocking implementation bit for bit.
//
// Operators consult the memory wait once per block, and nearly always
// it has nothing to do. So it has an entry test beside its Call method,
// WaitMemoryIdle, that its step 0 runs first; callers enter the wait
// only when the test finds work (the frame rule of package sim).
//
// Memory adaptation is pull-based: the allocator updates Query.Alloc and
// operators observe the new value at their next step boundary (one block
// of processing), contracting or expanding exactly as the paper's
// dynamic query processing primitives do [Pang93a, Pang93b].
package query

import (
	"pmm/internal/buffer"
	"pmm/internal/catalog"
	"pmm/internal/cpu"
	"pmm/internal/disk"
	"pmm/internal/sim"
	"pmm/internal/trace"
)

// Type distinguishes the two operator kinds the paper evaluates.
type Type int

const (
	// HashJoin is a Partially Preemptible Hash Join [Pang93a].
	HashJoin Type = iota
	// ExternalSort is a memory-adaptive external sort [Pang93b].
	ExternalSort
)

// String names the query type.
func (t Type) String() string {
	if t == HashJoin {
		return "hash-join"
	}
	return "external-sort"
}

// Query is one firm real-time query. The workload generator fills the
// descriptor fields; the admission controller owns the runtime fields.
type Query struct {
	ID        int64
	Class     int    // workload class index
	ClassName string // workload class name, for reports
	Kind      Type

	// R is the sort operand, or the inner (building) relation of a join;
	// S is the outer (probing) relation, nil for sorts.
	R, S *catalog.Relation

	Arrival    float64 // arrival time
	StandAlone float64 // stand-alone execution time with max memory
	SlackRatio float64 // deadline slack multiplier
	Deadline   float64 // StandAlone·SlackRatio + Arrival (firm)

	MinMem  int // minimum workspace pages to execute at all
	MaxMem  int // workspace pages for one-pass execution
	ReadIOs int // block I/Os to read the operand relation(s)

	// Runtime state. Alloc is the current memory grant in pages; the
	// invariant is Alloc == 0 or MinMem ≤ Alloc ≤ MaxMem.
	Alloc       int
	WantMem     int  // operators park with this set; controller wakes on grant
	Admitted    bool // has ever held memory
	EverGranted bool
	AdmitTime   float64
	Finished    bool
	Missed      bool
	FinishTime  float64
	// Fluctuations counts memory-allocation changes after the first
	// grant — the quantity Figure 7 plots.
	Fluctuations int
	// IOCount is the number of disk requests this query issued.
	IOCount int
	// Proc is the simulation process executing the query.
	Proc *sim.Proc
}

// Prio returns the query's Earliest Deadline priority: its deadline.
// Lower values are more urgent.
func (q *Query) Prio() float64 { return q.Deadline }

// TimeConstraint returns Deadline − Arrival.
func (q *Query) TimeConstraint() float64 { return q.Deadline - q.Arrival }

// Env bundles the simulated hardware that query execution consumes.
type Env struct {
	K     *sim.Kernel
	CPU   *cpu.CPU
	Disks *disk.Manager
	Pool  *buffer.Pool

	// IOBreakdown tallies pages moved by category across all queries.
	IOBreakdown IOStats

	// Trace, when non-nil, receives one instant on IOTrack per disk
	// request any query issues (rtdbs.SetTrace wires both).
	Trace   *trace.Collector
	IOTrack trace.TrackID

	tempID int64 // temp file ids are negative and never recycled
}

// IOStats decomposes I/O volume (in pages) by purpose, to diagnose where
// memory pressure turns into extra disk traffic.
type IOStats struct {
	RelRead    int64 // operand relation pages read
	SpoolWrite int64 // temp pages written (contraction, run formation, S spill)
	SpoolRead  int64 // temp pages read back (expansion, cleanup, merging)
}

// Exec is the per-query execution context. It owns the query's one
// in-flight disk request record and the reusable child frames for the
// blocking compounds, so the execution hot path never allocates.
type Exec struct {
	*Env
	Q *Query
	P *sim.Proc

	// req is the scratch record backing the single disk access this
	// query can have in flight.
	req disk.Request

	// Reusable child frames. Each is configured and (re)entered through
	// its Call* method; none ever appears twice on the frame stack.
	frWaitMem waitMemFrame
	frReadRel readRelFrame
	frAppend  appendFrame
	frRead    readTempFrame
}

// Alloc returns the query's current memory grant in pages.
func (e *Exec) Alloc() int { return e.Q.Alloc }

// traceIO records one per-operator disk request on the environment's IO
// track (the running per-query count rides in Val); a no-op untraced.
func (e *Exec) traceIO() {
	if e.Trace != nil {
		e.Trace.AddInstant(e.IOTrack, trace.InstIO, e.Q.ID, e.K.Now(), float64(e.Q.IOCount))
	}
}

// StartCPU enters a CPU burst of the given instruction count at the
// query's ED priority, without blocking. entered=true means the frame
// must park (return sim.Park); the outcome of the burst arrives at its
// next Step. entered=false means the burst finished immediately with
// result ok — a zero-instruction burst, or false for a deadline
// interrupt that consumed the wait.
func (e *Exec) StartCPU(instructions float64) (entered, ok bool) {
	return e.CPU.StartRun(e.P, e.Q.Prio(), instructions)
}

// CPUBurst is the frame-helper form of StartCPU for the ubiquitous
// charge-then-maybe-park step: it enters the burst and, when the burst
// finishes immediately instead of parking, writes the immediate outcome
// through ok. A burst site in a frame collapses to
//
//	f.PC = next
//	if e.CPUBurst(instr, &ok) {
//		return sim.Park
//	}
//
// with the next case reading ok exactly as after a park.
func (e *Exec) CPUBurst(instructions float64, ok *bool) bool {
	entered, o := e.StartCPU(instructions)
	if !entered {
		*ok = o
	}
	return entered
}

// CallWaitMemory enters the admission/suspension wait as a child frame:
// it parks until the controller grants the query memory (Alloc > 0).
// The frame's result is false when the deadline interrupt arrives first.
func (e *Exec) CallWaitMemory(m *sim.Machine) sim.Status {
	f := &e.frWaitMem
	f.e = e
	return m.Call(f)
}

// WaitMemoryIdle reports whether CallWaitMemory would return true at
// once: the query holds memory. The wait's step 0 runs this test.
func (e *Exec) WaitMemoryIdle() bool { return e.Q.Alloc != 0 }

// waitMemFrame: for Alloc == 0 { WantMem = MinMem; park; WantMem = 0 }.
type waitMemFrame struct {
	sim.FrameState
	e *Exec
}

func (f *waitMemFrame) Step(m *sim.Machine, ok bool) sim.Status {
	e := f.e
	for {
		switch f.PC {
		case 0: // loop head
			if e.WaitMemoryIdle() {
				return m.Return(true)
			}
			e.Q.WantMem = e.Q.MinMem
			f.PC = 1
			if e.P.StartPark() {
				return sim.Park
			}
			ok = false
		case 1: // park ended
			e.Q.WantMem = 0
			if !ok {
				return m.Return(false)
			}
			f.PC = 0
		}
	}
}

// CallReadRel enters a relation scan as a child frame: npages sequential
// pages of rel starting at fromPage, fetching blockSize pages per I/O
// (the prefetch behaviour of §4.2) and consulting the LRU cache for each
// block. Each physical I/O charges the CPU the start-I/O cost before the
// disk access. The frame's result is false on interruption.
func (e *Exec) CallReadRel(m *sim.Machine, rel *catalog.Relation, fromPage, npages, blockSize int) sim.Status {
	f := &e.frReadRel
	f.e, f.rel, f.from, f.n, f.bs = e, rel, fromPage, npages, blockSize
	return m.Call(f)
}

type readRelFrame struct {
	sim.FrameState
	e           *Exec
	rel         *catalog.Relation
	from, n, bs int

	off, step int
	key       buffer.PageKey
}

func (f *readRelFrame) Step(m *sim.Machine, ok bool) sim.Status {
	e := f.e
	for {
		switch f.PC {
		case 0: // entry
			if f.bs <= 0 {
				f.bs = 1
			}
			f.off = f.from
			f.PC = 1
		case 1: // loop head: next block
			if f.off >= f.from+f.n {
				return m.Return(true)
			}
			f.step = f.bs
			if rem := f.from + f.n - f.off; rem < f.step {
				f.step = rem
			}
			f.key = buffer.PageKey{File: f.rel.ID, Page: int32(f.off / f.bs)}
			if e.Pool.Lookup(f.key) {
				f.off += f.step
				continue
			}
			f.PC = 2
			if e.CPUBurst(cpu.CostStartIO, &ok) {
				return sim.Park
			}
		case 2: // start-I/O charge done
			if !ok {
				return m.Return(false)
			}
			e.Q.IOCount++
			e.traceIO()
			e.IOBreakdown.RelRead += int64(f.step)
			ext := f.rel.Extent()
			f.PC = 3
			var entered bool
			if entered, ok = ext.Disk().StartAccessSeq(e.P, e.Q.Prio(), ext.CylinderOf(f.off), f.step, f.rel.ID, f.off, &e.req); entered {
				return sim.Park
			}
		case 3: // transfer done
			if !ok {
				return m.Return(false)
			}
			e.Pool.Insert(f.key)
			f.off += f.step
			f.PC = 1
		}
	}
}

// TempFile is a temporary spool file (contracted partitions, sort runs).
// Operators hold their temp files by value, inside their own state, so
// opening one allocates nothing; the zero value is a file not yet
// opened.
type TempFile struct {
	env     *Env
	id      int64
	ext     disk.Extent
	written int
	closed  bool
}

// OpenTemp opens t as a new temp file able to hold capacity pages,
// placed on the disk holding rel (operators spool next to the relation
// they process); a nil rel lets the disk manager choose round-robin.
// Whatever t held before is overwritten.
func (e *Exec) OpenTemp(t *TempFile, capacity int, rel *catalog.Relation) {
	e.Env.tempID--
	prefer := -1
	if rel != nil {
		prefer = rel.Extent().Disk().ID()
	}
	*t = TempFile{env: e.Env, id: e.Env.tempID, ext: e.Disks.AllocTemp(capacity, prefer)}
}

// Opened reports whether t was opened by OpenTemp.
func (t *TempFile) Opened() bool { return t.env != nil }

// Written returns the pages appended so far.
func (t *TempFile) Written() int { return t.written }

// Capacity returns the extent size in pages.
func (t *TempFile) Capacity() int { return t.ext.Pages() }

// CallAppend enters a sequential append of npages to the end of the file
// as a child frame, in I/O units of ioUnit pages (use the block size
// when the query has buffers to spool with, 1 otherwise). The frame's
// result is false on interruption.
func (t *TempFile) CallAppend(m *sim.Machine, e *Exec, npages, ioUnit int) sim.Status {
	f := &e.frAppend
	f.e, f.t, f.npages, f.unit = e, t, npages, ioUnit
	return m.Call(f)
}

type appendFrame struct {
	sim.FrameState
	e      *Exec
	t      *TempFile
	npages int
	unit   int

	n, u int
}

func (f *appendFrame) Step(m *sim.Machine, ok bool) sim.Status {
	e, t := f.e, f.t
	for {
		switch f.PC {
		case 0: // entry
			if t.closed {
				panic("query: append to closed temp file")
			}
			if f.unit <= 0 {
				f.unit = 1
			}
			f.n = f.npages
			f.PC = 1
		case 1: // loop head: next unit
			if f.n <= 0 {
				return m.Return(true)
			}
			f.u = f.unit
			if f.n < f.u {
				f.u = f.n
			}
			if t.written+f.u > t.ext.Pages() {
				// The file outgrew its extent (rare: adaptive operators may
				// spool more than first estimated). Chain a larger extent on
				// the same disk; the old pages are accounted as rewritten once.
				old := t.ext
				t.ext = t.env.Disks.AllocTemp(t.written+f.npages, old.Disk().ID())
				old.Free()
			}
			f.PC = 2
			if e.CPUBurst(cpu.CostStartIO, &ok) {
				return sim.Park
			}
		case 2: // start-I/O charge done
			if !ok {
				return m.Return(false)
			}
			e.Q.IOCount++
			e.traceIO()
			e.IOBreakdown.SpoolWrite += int64(f.u)
			// Appends are sequential by construction: write-behind streams them.
			f.PC = 3
			var entered bool
			if entered, ok = t.ext.Disk().StartAccessSeq(e.P, e.Q.Prio(), t.ext.CylinderOf(t.written), f.u, t.id, t.written, &e.req); entered {
				return sim.Park
			}
		case 3: // transfer done
			if !ok {
				return m.Return(false)
			}
			t.written += f.u
			f.n -= f.u
			f.PC = 1
		}
	}
}

// CallRead enters a sequential read of npages starting at page `from` as
// a child frame, in I/O units of ioUnit pages. Block-unit reads stream
// through the prefetch cache; single-page reads do not — the paper
// exempts the merge phase of external sorts from prefetching, and merges
// are the only page-unit readers. The frame's result is false on
// interruption.
func (t *TempFile) CallRead(m *sim.Machine, e *Exec, from, npages, ioUnit int) sim.Status {
	f := &e.frRead
	f.e, f.t, f.from, f.npages, f.unit = e, t, from, npages, ioUnit
	return m.Call(f)
}

type readTempFrame struct {
	sim.FrameState
	e      *Exec
	t      *TempFile
	from   int
	npages int
	unit   int

	off, u int
}

func (f *readTempFrame) Step(m *sim.Machine, ok bool) sim.Status {
	e, t := f.e, f.t
	for {
		switch f.PC {
		case 0: // entry
			if t.closed {
				panic("query: read from closed temp file")
			}
			if f.unit <= 0 {
				f.unit = 1
			}
			f.off = f.from
			f.PC = 1
		case 1: // loop head: next unit
			if f.off >= f.from+f.npages {
				return m.Return(true)
			}
			f.u = f.unit
			if rem := f.from + f.npages - f.off; rem < f.u {
				f.u = rem
			}
			f.PC = 2
			if e.CPUBurst(cpu.CostStartIO, &ok) {
				return sim.Park
			}
		case 2: // start-I/O charge done
			if !ok {
				return m.Return(false)
			}
			e.Q.IOCount++
			e.traceIO()
			e.IOBreakdown.SpoolRead += int64(f.u)
			d := t.ext.Disk()
			f.PC = 3
			var entered bool
			if f.unit > 1 {
				entered, ok = d.StartAccessSeq(e.P, e.Q.Prio(), t.ext.CylinderOf(f.off), f.u, t.id, f.off, &e.req)
			} else {
				entered, ok = d.StartAccess(e.P, e.Q.Prio(), t.ext.CylinderOf(f.off), f.u, &e.req)
			}
			if entered {
				return sim.Park
			}
		case 3: // transfer done
			if !ok {
				return m.Return(false)
			}
			f.off += f.u
			f.PC = 1
		}
	}
}

// Close releases the temp file's disk extent. Closing twice is a no-op
// so operators can close defensively during unwind.
func (t *TempFile) Close() {
	if t.closed {
		return
	}
	t.closed = true
	t.ext.Free()
}

// Operator executes a query against an Exec context. Start returns the
// resumable frame running the operator; the frame's result is false when
// the query was aborted by its deadline. Implementations must release
// all temp files before returning either way.
type Operator interface {
	Start(e *Exec) sim.Frame
}

// Launch spawns a process that runs op against e, binding e.P (and
// Q.Proc) to the new process. done, if non-nil, receives the operator's
// result when it finishes. It is the harness for running a single
// operator outside the full system (tests, calibration tools).
func Launch(k *sim.Kernel, name string, e *Exec, op Operator, done func(ok bool)) *sim.Proc {
	s := &sim.Script{Stages: []func(*sim.Machine, bool) sim.Status{
		func(m *sim.Machine, ok bool) sim.Status { return m.Call(op.Start(e)) },
		func(m *sim.Machine, ok bool) sim.Status {
			if done != nil {
				done(ok)
			}
			return m.Return(ok)
		},
	}}
	t := k.Spawn(name, s)
	e.P = t
	e.Q.Proc = t
	return t
}
