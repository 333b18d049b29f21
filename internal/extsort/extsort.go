// Package extsort implements the memory-adaptive external sort the paper
// relies on [Pang93b]: replacement selection splits the operand relation
// into sorted runs (expected length twice the heap size), which are then
// repeatedly merged. The algorithm adapts to memory fluctuations: if the
// allocation shrinks mid-merge the executing step is split into sub-steps
// that fit the remaining memory (the partial output is written out as a
// run of its own), and when buffers free up later steps merge more runs
// at once. Merge-phase reads are single-page — the paper's disk prefetch
// cache explicitly excludes the merge phase — while run formation and run
// writing move data in blocks.
//
// The operator runs as a kernel process: run formation and merging are
// resumable frames (program counter + locals promoted to fields),
// stepping through the identical sequence of CPU bursts, disk transfers
// and memory waits as the original blocking implementation.
package extsort

import (
	"math/bits"
	"slices"

	"pmm/internal/cpu"
	"pmm/internal/query"
	"pmm/internal/sim"
)

// MemoryNeeds returns the minimum and maximum workspace of an external
// sort per §3.2: the maximum is the operand size (one-pass, in-memory)
// and the minimum is three pages (one input, one heap, one output).
func MemoryNeeds(rPages int) (min, max int) {
	min = 3
	max = rPages
	if max < min {
		max = min
	}
	return min, max
}

// Sort executes one external-sort query.
type Sort struct {
	tpp       int
	blockSize int
}

// New returns a Sort operator with the given tuple density and
// sequential-I/O block size.
func New(tuplesPerPage, blockSize int) *Sort {
	return &Sort{tpp: tuplesPerPage, blockSize: blockSize}
}

// Start builds the per-execution state and returns the root frame. The
// state comes from the kernel's frame arena when it has one, and goes
// back to it when the sort ends, with the slice backing and merge-file
// records it grew, so the next sort reuses them.
func (op *Sort) Start(e *query.Exec) sim.Frame {
	s := sim.AllocFrom[sstate](e.K.Arena())
	s.e, s.op = e, op
	s.fRun.s = s
	s.fFormation.s = s
	s.fEmit.s = s
	s.fMerge.s = s
	return &s.fRun
}

// mergeFile wraps a temp file with a reference count of the runs still
// reading from it, so files are freed as soon as their last run drains.
type mergeFile struct {
	t    query.TempFile
	refs int
}

func (m *mergeFile) unref() {
	m.refs--
	if m.refs == 0 {
		m.t.Close()
	}
}

// run is a sorted run: a slice of a temp file.
type run struct {
	file  *mergeFile
	off   int
	pages int
}

// sstate is per-execution sort state: the shared data plus one reusable
// frame per formerly-blocking function. No frame appears twice on the
// stack: run → {formation|merge}, formation → emit, and the merge frame
// only enters leaf reads/appends and the memory wait.
type sstate struct {
	e    *query.Exec
	op   *Sort
	runs []run
	// files holds every merge file the sort created, in creation order,
	// so cleanup on abort closes the ones still referenced. Past its
	// length, its backing points at the records of an earlier sort on
	// this state, which newFile opens again.
	files []*mergeFile

	// Run-formation state shared between the formation and emit frames.
	h        int        // current replacement-selection heap size
	cur      *mergeFile // run under construction
	runPages int        // pages emitted into cur
	spooled  bool       // did any page reach disk?
	// inMemory reports formation's outcome: the relation fit in memory
	// as a single unwritten run.
	inMemory bool

	fRun       sortFrame
	fFormation formationFrame
	fEmit      emitFrame
	fMerge     mergeFrame
}

// Recycle clears the sort state for its next sort (sim.Recycler). It
// keeps the backing of runs, files and the merge frame's inputs and
// cursors, truncated, so a sort regrows none of them; the merge-file
// records that files' backing points at come back with it.
func (s *sstate) Recycle() {
	runs, files := s.runs[:0], s.files[:0]
	inputs, cursors := s.fMerge.inputs[:0], s.fMerge.cursors[:0]
	*s = sstate{}
	s.runs, s.files = runs, files
	s.fMerge.inputs, s.fMerge.cursors = inputs, cursors
}

// finish ends the sort with result ok: it closes the files still
// referenced and gives the sort state back to the kernel's arena, then
// returns from the root frame. Closing reads each file's record, so the
// records go back with the state, never at Close.
func (s *sstate) finish(m *sim.Machine, ok bool) sim.Status {
	for _, f := range s.files {
		if f.refs > 0 {
			f.t.Close()
		}
	}
	sim.FreeTo(s.e.K.Arena(), s)
	return m.Return(ok)
}

// newFile opens a tracked temp file with one reference, placed beside
// the sort's operand relation. Its record is the one files' backing
// holds at the next index, left by an earlier sort on this state, or
// else a new one from the kernel's frame arena.
func (s *sstate) newFile(capacity int) *mergeFile {
	var f *mergeFile
	if n := len(s.files); n < cap(s.files) {
		f = s.files[:n+1][n]
	}
	if f == nil {
		f = sim.AllocFrom[mergeFile](s.e.K.Arena())
	}
	s.e.OpenTemp(&f.t, capacity, s.e.Q.R)
	f.refs = 1
	s.files = append(s.files, f)
	return f
}

// heapPages returns the replacement-selection heap size for the current
// allocation: the whole relation when the sort holds its maximum
// allocation (one-pass sort), otherwise the allocation minus an input
// and an output buffer, at least one page.
func (s *sstate) heapPages() int {
	alloc := s.e.Alloc()
	r := s.e.Q.R.Pages
	if alloc >= r {
		return r
	}
	h := alloc - 2
	if h < 1 {
		h = 1
	}
	return h
}

// closeRun finishes the run under construction, if any.
func (s *sstate) closeRun() {
	if s.cur != nil {
		s.runs = append(s.runs, run{file: s.cur, pages: s.cur.t.Written()})
		s.cur = nil
	}
	s.runPages = 0
}

// callEmit enters a write of pages to the current run, opening one as
// needed.
func (s *sstate) callEmit(m *sim.Machine, pages int) sim.Status {
	f := &s.fEmit
	f.pages = pages
	return m.Call(f)
}

type emitFrame struct {
	sim.FrameState
	s     *sstate
	pages int
}

func (f *emitFrame) Step(m *sim.Machine, ok bool) sim.Status {
	s := f.s
	switch f.PC {
	case 0: // entry
		if f.pages <= 0 {
			return m.Return(true)
		}
		s.spooled = true
		if s.cur == nil {
			s.cur = s.newFile(2*s.h + s.op.blockSize)
		}
		f.PC = 1
		return s.cur.t.CallAppend(m, s.e, f.pages, s.op.blockSize)
	default: // append done
		if !ok {
			return m.Return(false)
		}
		s.runPages += f.pages
		return m.Return(true)
	}
}

// formationFrame runs replacement selection over R. Its result is ok;
// sstate.inMemory reports whether the relation fit in memory as a single
// unwritten run.
type formationFrame struct {
	sim.FrameState
	s *sstate

	heapFill int
	read     int
	n        int
	nh       int
}

func (f *formationFrame) Step(m *sim.Machine, ok bool) sim.Status {
	s := f.s
	e, bs := s.e, s.op.blockSize
	r := e.Q.R
	for {
		switch f.PC {
		case 0: // entry
			s.h = s.heapPages()
			f.heapFill = 0
			f.read = 0
			f.PC = 1
		case 1: // loop head: adapt to allocation changes at each block boundary
			if f.read >= r.Pages {
				f.PC = 9
				continue
			}
			if !e.WaitMemoryIdle() {
				// Suspended: flush the heap so the held pages are honest,
				// then wait.
				f.PC = 2
				return s.callEmit(m, f.heapFill)
			}
			f.PC = 5
		case 2: // suspension heap-flush done
			if !ok {
				return m.Return(false)
			}
			f.heapFill = 0
			s.closeRun()
			f.PC = 3
			if !e.WaitMemoryIdle() {
				return e.CallWaitMemory(m)
			}
			ok = true
		case 3: // memory wait done
			if !ok {
				return m.Return(false)
			}
			s.h = s.heapPages()
			f.PC = 5
		case 5: // heap-resize check
			f.nh = s.heapPages()
			if f.nh != s.h {
				if f.nh < f.heapFill {
					// Heap shrank: evict the excess into the current run.
					f.PC = 6
					return s.callEmit(m, f.heapFill-f.nh)
				}
				s.h = f.nh
			}
			f.PC = 7
		case 6: // eviction emit done
			if !ok {
				return m.Return(false)
			}
			f.heapFill = f.nh
			s.h = f.nh
			f.PC = 7
		case 7: // read a block
			f.n = bs
			if rem := r.Pages - f.read; rem < f.n {
				f.n = rem
			}
			f.PC = 8
			return e.CallReadRel(m, r, f.read, f.n, bs)
		case 8: // block read: charge replacement selection
			if !ok {
				return m.Return(false)
			}
			f.read += f.n
			tuples := float64(f.n * s.op.tpp)
			compares := cpu.CostCompare * float64(ceilLog2(s.h*s.op.tpp))
			f.PC = 10
			if e.CPUBurst(tuples*(cpu.CostSortCopy+compares), &ok) {
				return sim.Park
			}
		case 10: // selection charged
			if !ok {
				return m.Return(false)
			}
			if f.heapFill+f.n <= s.h {
				f.heapFill += f.n // absorbed entirely
				f.PC = 1
				continue
			}
			out := f.heapFill + f.n - s.h
			f.heapFill = s.h
			f.PC = 11
			return s.callEmit(m, out)
		case 11: // overflow emit done
			if !ok {
				return m.Return(false)
			}
			if s.runPages >= 2*s.h {
				s.closeRun()
			}
			f.PC = 1
		case 9: // post-loop
			if !s.spooled && f.heapFill == r.Pages {
				s.inMemory = true
				return m.Return(true)
			}
			// Drain the heap into the final run.
			f.PC = 12
			return s.callEmit(m, f.heapFill)
		case 12: // final drain done
			if !ok {
				return m.Return(false)
			}
			s.closeRun()
			return m.Return(true)
		}
	}
}

// fanIn returns the merge fan-in for the current allocation.
func (s *sstate) fanIn(nruns int) int {
	f := s.e.Alloc() - 1
	if f < 2 {
		f = 2
	}
	if f > nruns {
		f = nruns
	}
	return f
}

// mergeFrame repeatedly merges runs until one remains; the final merge
// produces output directly. Memory reductions split the executing step:
// the partial output becomes a run and the unread input remainders are
// re-planned with the smaller fan-in.
type mergeFrame struct {
	sim.FrameState
	s *sstate

	fanIn   int
	final   bool
	inputs  []run
	total   int
	outUnit int
	out     *mergeFile
	cursors []int
	produced, pending,
	active, next, i int
	perPage float64
	split   bool
}

func (f *mergeFrame) Step(m *sim.Machine, ok bool) sim.Status {
	s := f.s
	e, bs := s.e, s.op.blockSize
	for {
		switch f.PC {
		case 0: // outer loop head
			if len(s.runs) <= 1 {
				return m.Return(true)
			}
			f.PC = 1
			if !e.WaitMemoryIdle() {
				return e.CallWaitMemory(m)
			}
			ok = true
		case 1: // memory held: plan one merge step
			if !ok {
				return m.Return(false)
			}
			fi := s.fanIn(len(s.runs))
			f.fanIn = fi
			f.final = fi == len(s.runs)
			// Merge the shortest runs first (fewest pages re-read over the
			// remaining passes). The step's inputs are copied into the
			// frame's reused slice; the rest stays in place in s.runs
			// after them until the step ends.
			sortRunsByPages(s.runs)
			f.inputs = append(f.inputs[:0], s.runs[:fi]...)

			f.total = 0
			for _, in := range f.inputs {
				f.total += in.pages
			}
			f.outUnit = 1
			if e.Alloc()-(fi+1) >= bs {
				f.outUnit = bs
			}
			f.out = nil
			if !f.final {
				f.out = s.newFile(f.total)
			}
			f.cursors = append(f.cursors[:0], make([]int, fi)...)
			f.produced = 0
			f.pending = 0 // output pages buffered toward the next write
			f.active = fi // inputs with unread pages
			cmp := cpu.CostCompare * float64(ceilLog2(fi))
			f.perPage = float64(s.op.tpp) * (cmp + cpu.CostSortCopy)
			f.next = 0 // round-robin input cursor, in [0, fanIn)
			f.split = false
			f.PC = 2
		case 2: // page loop head
			if f.produced >= f.total {
				f.PC = 7
				continue
			}
			// Re-check memory each page: splits happen at page
			// granularity. The step survives as long as one buffer per
			// still-active input plus an output buffer fit.
			if alloc := e.Alloc(); alloc == 0 || alloc-1 < f.active {
				f.split = true
				f.PC = 7
				continue
			}
			// Advance to the next input with pages left.
			for f.cursors[f.next] >= f.inputs[f.next].pages {
				f.advance()
			}
			f.i = f.next
			in := &f.inputs[f.i]
			f.PC = 3
			return in.file.t.CallRead(m, e, in.off+f.cursors[f.i], 1, 1)
		case 3: // page read
			if !ok {
				return m.Return(false)
			}
			f.cursors[f.i]++
			if f.cursors[f.i] == f.inputs[f.i].pages {
				f.active--
			}
			f.advance()
			f.PC = 4
			if e.CPUBurst(f.perPage, &ok) {
				return sim.Park
			}
		case 4: // page merged
			if !ok {
				return m.Return(false)
			}
			f.produced++
			if !f.final {
				f.pending++
				if f.pending == f.outUnit || f.produced == f.total {
					f.PC = 5
					return f.out.t.CallAppend(m, e, f.pending, f.outUnit)
				}
			}
			f.PC = 2
		case 5: // output written
			if !ok {
				return m.Return(false)
			}
			f.pending = 0
			f.PC = 2
		case 7: // step ended: split or complete
			if f.split {
				f.PC = 8
				continue
			}
			for _, in := range f.inputs {
				in.file.unref()
			}
			if f.final {
				s.runs = s.runs[:0]
				return m.Return(true)
			}
			// The rest moves to the front, and the step's output run
			// follows it.
			s.runs = append(slices.Delete(s.runs, 0, f.fanIn), run{file: f.out, pages: f.out.t.Written()})
			f.PC = 0
		case 8: // split: materialize the partial output
			// The step can no longer fit: the partial output becomes a
			// run of its own and the unread input remainders return to
			// the pool — Pang93b's merge-step splitting.
			if f.final && f.produced > 0 {
				// A final merge was producing output directly; to split
				// it the partial result must be materialized after all.
				f.out = s.newFile(f.total)
				f.PC = 9
				return f.out.t.CallAppend(m, e, f.produced, bs)
			}
			if !f.final && f.pending > 0 {
				f.PC = 9
				return f.out.t.CallAppend(m, e, f.pending, f.outUnit)
			}
			f.PC = 10
		case 9: // partial output written
			if !ok {
				return m.Return(false)
			}
			f.PC = 10
		case 10: // split: rebuild the run list
			// The partial output, then the unread input remainders,
			// replace the step's inputs ahead of the rest. The
			// remainders are compacted in place in the frame's inputs.
			keepOut := f.out != nil && f.out.t.Written() > 0
			if f.out != nil && !keepOut {
				f.out.unref()
			}
			n := 0
			for i, in := range f.inputs {
				if f.cursors[i] < in.pages {
					f.inputs[n] = run{file: in.file, off: in.off + f.cursors[i], pages: in.pages - f.cursors[i]}
					n++
				} else {
					in.file.unref()
				}
			}
			s.runs = slices.Replace(s.runs, 0, f.fanIn, f.inputs[:n]...)
			if keepOut {
				s.runs = slices.Insert(s.runs, 0, run{file: f.out, pages: f.out.t.Written()})
			}
			if !e.WaitMemoryIdle() {
				f.PC = 11
				return e.CallWaitMemory(m)
			}
			f.PC = 0
		case 11: // suspension wait done
			if !ok {
				return m.Return(false)
			}
			f.PC = 0
		}
	}
}

// sortFrame is the root: init charge, formation, then either the
// in-memory fast path or the merge phase, then the termination charge,
// releasing all temporary files and the sort state on every path (the
// frame-based equivalent of the original defer).
type sortFrame struct {
	sim.FrameState
	s *sstate
}

func (f *sortFrame) Step(m *sim.Machine, ok bool) sim.Status {
	s := f.s
	e := s.e
	for {
		switch f.PC {
		case 0: // entry
			f.PC = 1
			if e.CPUBurst(cpu.CostInitQuery, &ok) {
				return sim.Park
			}
		case 1: // init charged
			if !ok {
				return s.finish(m, false)
			}
			f.PC = 2
			return m.Call(&s.fFormation)
		case 2: // formation done
			if !ok {
				return s.finish(m, false)
			}
			if s.inMemory {
				// Single in-memory run: produce output directly.
				f.PC = 3
				if e.CPUBurst(float64(e.Q.R.Tuples)*cpu.CostSortCopy, &ok) {
					return sim.Park
				}
				continue
			}
			f.PC = 5
			return m.Call(&s.fMerge)
		case 3: // in-memory output charged
			if !ok {
				return s.finish(m, false)
			}
			f.PC = 4
			if e.CPUBurst(cpu.CostTermQuery, &ok) {
				return sim.Park
			}
		case 4: // termination charged
			return s.finish(m, ok)
		case 5: // merge done
			if !ok {
				return s.finish(m, false)
			}
			f.PC = 4
			if e.CPUBurst(cpu.CostTermQuery, &ok) {
				return sim.Park
			}
		}
	}
}

// sortRunsByPages orders runs ascending by size (insertion sort: run
// counts are small and mostly sorted).
func sortRunsByPages(rs []run) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].pages < rs[j-1].pages; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// advance moves the round-robin input cursor to the next input.
func (f *mergeFrame) advance() {
	if f.next++; f.next == f.fanIn {
		f.next = 0
	}
}

// ceilLog2 returns ⌈log2 max(n, 2)⌉, the comparisons charged per tuple
// for selecting among n entries, in exact integer arithmetic.
func ceilLog2(n int) int {
	if n < 2 {
		n = 2
	}
	return bits.Len(uint(n - 1))
}
