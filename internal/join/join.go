// Package join implements the memory-adaptive hash join the paper builds
// on: Partially Preemptible Hash Join (PPHJ) with late contraction, late
// expansion, and spooling [Pang93a].
//
// PPHJ splits the inner relation R into B partitions. Expanded partitions
// are held as in-memory hash tables (costing F pages of memory per raw
// page of data, F the hash fudge factor); contracted partitions reside on
// disk, each holding one output buffer page for arriving tuples. When the
// memory manager shrinks the query's allocation, PPHJ frees buffers by
// contracting partitions (spooling their pages); when extra memory shows
// up while the outer relation S is being split, contracted partitions are
// expanded (read back) so that subsequent S tuples join directly instead
// of being spooled for a later pass.
//
// Because hashing distributes tuples uniformly, the B partitions grow in
// lockstep, so the simulation tracks the per-partition raw size once and
// only distinguishes how many partitions are expanded — an exact model of
// the symmetric case that keeps per-block work O(1).
//
// The operator runs on the kernel's inline process representation: each
// phase of the original blocking implementation is a resumable frame
// (program counter + locals promoted to fields), stepping through the
// identical sequence of CPU bursts, disk transfers and memory waits.
// The build and probe loops consult adaptation, spool flushing and late
// expansion once per block, and most blocks need none of them: each of
// these children has an entry test (adaptIdle, flushIdle, expandIdle)
// that its own step 0 also runs, and the loops enter a child only when
// the test says it has work to do.
package join

import (
	"math"

	"pmm/internal/cpu"
	"pmm/internal/query"
	"pmm/internal/sim"
)

// NumPartitions returns the PPHJ partition count for an inner relation of
// rPages: the smallest B with B·(B−1) ≥ F·rPages, which guarantees that a
// single partition's hash table plus an input buffer fit within the
// minimum allocation of B+1 pages during the cleanup pass.
func NumPartitions(rPages int, f float64) int {
	need := f * float64(rPages)
	b := int(math.Ceil((1 + math.Sqrt(1+4*need)) / 2))
	if b < 1 {
		b = 1
	}
	for float64(b)*float64(b-1) < need {
		b++
	}
	return b
}

// MemoryNeeds returns the minimum and maximum workspace, in pages, of a
// PPHJ join with the given inner relation size: max = ⌈F·‖R‖⌉ + 1 (every
// partition expanded plus an input buffer), min = B + 1 (one output
// buffer per contracted partition plus an input buffer), per §3.2.
func MemoryNeeds(rPages int, f float64) (min, max int) {
	b := NumPartitions(rPages, f)
	return b + 1, int(math.Ceil(f*float64(rPages))) + 1
}

// PPHJ executes one hash join query.
type PPHJ struct {
	f         float64 // hash table fudge factor
	tpp       int     // tuples per page
	blockSize int
}

// New returns a PPHJ operator with the given fudge factor, tuple density
// and sequential-I/O block size.
func New(f float64, tuplesPerPage, blockSize int) *PPHJ {
	return &PPHJ{f: f, tpp: tuplesPerPage, blockSize: blockSize}
}

// Start builds the per-execution state and returns the root frame. The
// state comes from the kernel's frame arena when it has one, and goes
// back to it when the join ends, so the next join reuses it.
func (op *PPHJ) Start(e *query.Exec) sim.Frame {
	s := sim.AllocFrom[jstate](e.K.Arena())
	s.e, s.op, s.b = e, op, NumPartitions(e.Q.R.Pages, op.f)
	s.expanded = s.b // late contraction: start fully expanded
	s.fRun.s = s
	s.fBuild.s = s
	s.fProbe.s = s
	s.fCleanup.s = s
	s.fAdapt.s = s
	s.fFlush.s = s
	s.fExpand.s = s
	s.fReadBack.s = s
	return &s.fRun
}

// jstate is the per-execution state of a join: the shared data the
// original blocking implementation kept here, plus one reusable frame
// per formerly-blocking function. No frame ever appears twice on the
// stack: run → {build|probe|cleanup}, build/probe → adapt → memory wait,
// probe → expand → readBack, and every spool flush runs to completion
// before the next is entered.
type jstate struct {
	e  *query.Exec
	op *PPHJ

	b          int     // partition count
	expanded   int     // partitions currently in memory
	perPartRaw float64 // raw R pages per partition (identical across partitions)
	// expandedOnDisk counts expanded partitions whose raw pages still
	// have a valid spooled copy (they were expanded by reading it back),
	// so contracting them again is free — the copy is just re-adopted.
	expandedOnDisk int

	rSpool query.TempFile // spooled R partition data, once opened
	sSpool query.TempFile // spooled S tuples for contracted partitions
	rBuf   float64        // R pages accrued toward the next spool flush
	sBuf   float64        // S pages accrued toward the next spool flush

	rSpooled float64 // raw R pages on disk (excluding buffers)
	sPending float64 // spooled S pages not yet joined
	rReadCur int     // read cursor into rSpool for expansions

	fRun      runFrame
	fBuild    buildFrame
	fProbe    probeFrame
	fCleanup  cleanupFrame
	fAdapt    adaptFrame
	fFlush    flushFrame
	fExpand   expandFrame
	fReadBack readBackFrame
}

// finish ends the join with result ok: it closes the spool files and
// gives the join state, spool records included, back to the kernel's
// arena for the next join, then returns from the root frame.
func (s *jstate) finish(m *sim.Machine, ok bool) sim.Status {
	for _, t := range [2]*query.TempFile{&s.rSpool, &s.sSpool} {
		if t.Opened() {
			t.Close()
		}
	}
	sim.FreeTo(s.e.K.Arena(), s)
	return m.Return(ok)
}

// memUse returns the current workspace footprint in pages: one input
// buffer, the expanded hash tables, and one output buffer per contracted
// partition.
func (s *jstate) memUse() float64 {
	return 1 + float64(s.expanded)*s.op.f*s.perPartRaw + float64(s.b-s.expanded)
}

// contractPrep performs the synchronous part of contracting the
// largest-footprint unit — one expanded partition — freeing F·perPartRaw
// pages. It reports whether accrued spool pages must now be flushed:
// partitions whose raw pages still sit validly in the spool (from an
// earlier expansion read-back) contract for free; only never-spooled
// partitions pay the write, which the caller performs via callFlushR.
func (s *jstate) contractPrep() (needFlush bool) {
	if s.expanded == 0 {
		return false
	}
	s.expanded--
	if s.expandedOnDisk > 0 {
		s.expandedOnDisk--
		return false
	}
	s.rBuf += s.perPartRaw
	s.rSpooled += s.perPartRaw
	return true
}

// flushIdle reports whether a flush without force would return true at
// once: less than a block of spool pages has accrued in buf. The flush
// frame's step 0 runs this test.
func (s *jstate) flushIdle(buf float64) bool { return int(buf) < s.op.blockSize }

// callFlushR enters a flush of accrued R spool pages in block units;
// force drains the sub-block remainder too.
func (s *jstate) callFlushR(m *sim.Machine, force bool) sim.Status {
	f := &s.fFlush
	f.buf, f.file, f.capacity, f.force = &s.rBuf, &s.rSpool, s.e.Q.R.Pages, force
	return m.Call(f)
}

// callFlushS enters a flush of accrued S spool pages in block units.
func (s *jstate) callFlushS(m *sim.Machine, force bool) sim.Status {
	capacity := s.e.Q.R.Pages
	if s.e.Q.S != nil {
		capacity = s.e.Q.S.Pages
	}
	f := &s.fFlush
	f.buf, f.file, f.capacity, f.force = &s.sBuf, &s.sSpool, capacity, force
	return m.Call(f)
}

// flushFrame writes accrued spool pages in block units, opening the
// spool file on first use.
type flushFrame struct {
	sim.FrameState
	s        *jstate
	buf      *float64
	file     *query.TempFile
	capacity int
	force    bool

	n int
}

func (f *flushFrame) Step(m *sim.Machine, ok bool) sim.Status {
	s := f.s
	bs := s.op.blockSize
	for {
		switch f.PC {
		case 0: // loop head
			if s.flushIdle(*f.buf) && !(f.force && *f.buf >= 0.5) {
				f.PC = 2
				continue
			}
			n := bs
			if int(*f.buf) < bs {
				n = int(math.Round(*f.buf))
				if n == 0 {
					f.PC = 2
					continue
				}
			}
			if !f.file.Opened() {
				// Spool next to the relation being scanned: R-partition data
				// beside R, spilled S tuples beside S.
				rel := s.e.Q.R
				if f.buf == &s.sBuf && s.e.Q.S != nil {
					rel = s.e.Q.S
				}
				s.e.OpenTemp(f.file, f.capacity, rel)
			}
			f.n = n
			f.PC = 1
			return f.file.CallAppend(m, s.e, n, bs)
		case 1: // append done
			if !ok {
				return m.Return(false)
			}
			*f.buf -= float64(f.n)
			f.PC = 0
		case 2: // loop exited
			if f.force && *f.buf < 0.5 {
				*f.buf = 0
			}
			return m.Return(true)
		}
	}
}

// fits reports whether the join's footprint fits its nonzero
// allocation, or cannot shrink further. The epsilon absorbs float
// accumulation error in perPartRaw: a fully expanded join at exactly
// its maximum must not contract.
func (s *jstate) fits() bool {
	return s.memUse() <= float64(s.e.Alloc())+1e-6 || s.expanded == 0
}

// adaptIdle reports whether adaptation would return true at once: the
// join holds memory and its footprint fits. The adapt frame's step 0
// runs this test.
func (s *jstate) adaptIdle() bool { return s.e.WaitMemoryIdle() && s.fits() }

// adaptFrame reconciles the join's footprint with its current
// allocation: suspension spools everything and waits for memory;
// over-allocation contracts partitions one at a time (late contraction).
type adaptFrame struct {
	sim.FrameState
	s *jstate
}

func (f *adaptFrame) Step(m *sim.Machine, ok bool) sim.Status {
	s := f.s
	e := s.e
	for {
		switch f.PC {
		case 0: // outer loop head
			if s.adaptIdle() {
				return m.Return(true)
			}
			if e.Alloc() == 0 {
				f.PC = 2
				continue
			}
			if s.contractPrep() {
				f.PC = 1
				if !s.flushIdle(s.rBuf) {
					return s.callFlushR(m, false)
				}
				ok = true
			}
			continue
		case 1: // contraction's flush done
			if !ok {
				return m.Return(false)
			}
			f.PC = 0
		case 2: // suspended: contract-everything loop head
			if s.expanded > 0 {
				if s.contractPrep() {
					f.PC = 3
					if !s.flushIdle(s.rBuf) {
						return s.callFlushR(m, false)
					}
					ok = true
				}
				continue
			}
			f.PC = 4
			return s.callFlushR(m, true)
		case 3: // suspension contraction's flush done
			if !ok {
				return m.Return(false)
			}
			f.PC = 2
		case 4: // forced R flush done
			if !ok {
				return m.Return(false)
			}
			f.PC = 5
			return s.callFlushS(m, true)
		case 5: // forced S flush done
			if !ok {
				return m.Return(false)
			}
			f.PC = 6
			if !e.WaitMemoryIdle() {
				return e.CallWaitMemory(m)
			}
			ok = true
		case 6: // admission wait done
			if !ok {
				return m.Return(false)
			}
			f.PC = 0
		}
	}
}

// buildFrame reads R, splitting it into partitions.
type buildFrame struct {
	sim.FrameState
	s *jstate

	read, n int
}

func (f *buildFrame) Step(m *sim.Machine, ok bool) sim.Status {
	s := f.s
	e, bs := s.e, s.op.blockSize
	r := e.Q.R
	for {
		switch f.PC {
		case 0: // entry
			f.read = 0
			f.PC = 1
		case 1: // loop head
			if f.read >= r.Pages {
				return m.Return(true)
			}
			f.PC = 2
			if !s.adaptIdle() {
				return m.Call(&s.fAdapt)
			}
			ok = true
		case 2: // adapted
			if !ok {
				return m.Return(false)
			}
			f.n = bs
			if rem := r.Pages - f.read; rem < f.n {
				f.n = rem
			}
			f.PC = 3
			return e.CallReadRel(m, r, f.read, f.n, bs)
		case 3: // block read
			if !ok {
				return m.Return(false)
			}
			f.read += f.n
			s.perPartRaw += float64(f.n) / float64(s.b)
			fE := float64(s.expanded) / float64(s.b)
			tuples := float64(f.n * s.op.tpp)
			instr := tuples * (fE*cpu.CostHashBuild + (1-fE)*cpu.CostHashCopy)
			f.PC = 4
			if e.CPUBurst(instr, &ok) {
				return sim.Park
			}
		case 4: // block hashed
			if !ok {
				return m.Return(false)
			}
			// Tuples headed to contracted partitions accrue toward spool flushes.
			fE := float64(s.expanded) / float64(s.b)
			toDisk := (1 - fE) * float64(f.n)
			s.rBuf += toDisk
			s.rSpooled += toDisk
			f.PC = 5
			if !s.flushIdle(s.rBuf) {
				return s.callFlushR(m, false)
			}
			ok = true
		case 5: // spool flushed
			if !ok {
				return m.Return(false)
			}
			f.PC = 1
		}
	}
}

// probeFrame reads S; tuples hashing to expanded partitions join
// directly, the rest are spooled. Extra memory triggers late expansion.
type probeFrame struct {
	sim.FrameState
	s *jstate

	read, n int
	fE      float64
}

func (f *probeFrame) Step(m *sim.Machine, ok bool) sim.Status {
	s := f.s
	e, bs := s.e, s.op.blockSize
	out := e.Q.S
	for {
		switch f.PC {
		case 0: // entry
			f.read = 0
			f.PC = 1
		case 1: // loop head
			if f.read >= out.Pages {
				return m.Return(true)
			}
			f.PC = 2
			if !s.adaptIdle() {
				return m.Call(&s.fAdapt)
			}
			ok = true
		case 2: // adapted
			if !ok {
				return m.Return(false)
			}
			f.PC = 3
			if rem := out.Pages - f.read; !s.expandIdle(rem) {
				s.fExpand.sRemaining = rem
				return m.Call(&s.fExpand)
			}
			ok = true
		case 3: // expansion considered
			if !ok {
				return m.Return(false)
			}
			f.n = bs
			if rem := out.Pages - f.read; rem < f.n {
				f.n = rem
			}
			f.PC = 4
			return e.CallReadRel(m, out, f.read, f.n, bs)
		case 4: // block read
			if !ok {
				return m.Return(false)
			}
			f.read += f.n
			f.fE = float64(s.expanded) / float64(s.b)
			tuples := float64(f.n * s.op.tpp)
			instr := tuples * (f.fE*(cpu.CostHashProbe+cpu.CostHashCopy) + (1-f.fE)*cpu.CostHashCopy)
			f.PC = 5
			if e.CPUBurst(instr, &ok) {
				return sim.Park
			}
		case 5: // block probed
			if !ok {
				return m.Return(false)
			}
			toDisk := (1 - f.fE) * float64(f.n)
			s.sBuf += toDisk
			s.sPending += toDisk
			f.PC = 6
			if !s.flushIdle(s.sBuf) {
				return s.callFlushS(m, false)
			}
			ok = true
		case 6: // spool flushed
			if !ok {
				return m.Return(false)
			}
			f.PC = 1
		}
	}
}

// expandHysteresis discounts the projected benefit of a late expansion
// against the risk that the next reallocation contracts the partition
// before the read-back pays off. Calibration showed eager expansion
// (factor 1) beats conservative settings: skipping an expansion forces
// the remaining S tuples through a write+read spool cycle, which costs
// more than the one-time read-back it avoids.
const expandHysteresis = 1.0

// sShare returns one contracted partition's share of the spooled S
// pages; at least one partition must be contracted.
func (s *jstate) sShare() float64 {
	return s.sPending / float64(s.b-s.expanded)
}

// expandIdle reports whether late expansion, with sRemaining pages of S
// still to probe, would return true at once: every partition is
// expanded, spare memory cannot hold another hash table, or the spooling
// an expansion saves does not outweigh its read-back. The expand
// frame's step 0 runs this test.
func (s *jstate) expandIdle(sRemaining int) bool {
	if s.expanded >= s.b {
		return true
	}
	spare := float64(s.e.Alloc()) - s.memUse() + 1e-6
	// Expanding turns one output buffer into a hash table.
	need := s.op.f*s.perPartRaw - 1
	if spare < need {
		return true
	}
	// Benefit: future S pages of this partition that would spool.
	benefit := float64(sRemaining) / float64(s.b)
	cost := s.perPartRaw + s.sShare()
	return benefit <= expandHysteresis*cost
}

// expandFrame performs late expansion: while spare memory can hold
// another partition's hash table and enough of S remains for the saved
// spooling to clearly outweigh the read-back cost, a contracted
// partition is brought back. Its already-spooled S share is joined
// immediately so the partition is fully live afterwards.
type expandFrame struct {
	sim.FrameState
	s          *jstate
	sRemaining int
}

func (f *expandFrame) Step(m *sim.Machine, ok bool) sim.Status {
	s := f.s
	for {
		switch f.PC {
		case 0: // loop head
			if s.expandIdle(f.sRemaining) {
				return m.Return(true)
			}
			s.fReadBack.sShare = s.sShare()
			f.PC = 1
			return m.Call(&s.fReadBack)
		case 1: // partition read back
			if !ok {
				return m.Return(false)
			}
			f.PC = 0
		}
	}
}

// readBackFrame reads one partition's raw pages (and its spooled S
// share) back from the spool files, charging build and probe CPU.
type readBackFrame struct {
	sim.FrameState
	s      *jstate
	sShare float64

	rPages, sPages, n int
}

func (f *readBackFrame) Step(m *sim.Machine, ok bool) sim.Status {
	s := f.s
	e := s.e
	for {
		switch f.PC {
		case 0: // entry: R read-back
			f.rPages = int(math.Round(s.perPartRaw))
			if f.rPages > 0 && s.rSpool.Opened() {
				from := s.rReadCur % maxInt(s.rSpool.Written(), 1)
				f.n = minInt(f.rPages, s.rSpool.Written())
				if f.n > 0 {
					if from+f.n > s.rSpool.Written() {
						from = 0
					}
					f.PC = 1
					return s.rSpool.CallRead(m, e, from, f.n, s.op.blockSize)
				}
				f.PC = 2
				if e.CPUBurst(float64(f.rPages*s.op.tpp)*cpu.CostHashBuild, &ok) {
					return sim.Park
				}
				continue
			}
			f.PC = 3
		case 1: // R pages read
			if !ok {
				return m.Return(false)
			}
			s.rReadCur += f.n
			f.PC = 2
			if e.CPUBurst(float64(f.rPages*s.op.tpp)*cpu.CostHashBuild, &ok) {
				return sim.Park
			}
		case 2: // R rebuild charged
			if !ok {
				return m.Return(false)
			}
			f.PC = 3
		case 3: // S read-back
			f.sPages = int(math.Round(f.sShare))
			if f.sPages > 0 && s.sSpool.Opened() {
				f.n = minInt(f.sPages, s.sSpool.Written())
				if f.n > 0 {
					f.PC = 4
					return s.sSpool.CallRead(m, e, 0, f.n, s.op.blockSize)
				}
				f.PC = 5
				if e.CPUBurst(float64(f.sPages*s.op.tpp)*(cpu.CostHashProbe+cpu.CostHashCopy), &ok) {
					return sim.Park
				}
				continue
			}
			f.PC = 6
		case 4: // S pages read
			if !ok {
				return m.Return(false)
			}
			f.PC = 5
			if e.CPUBurst(float64(f.sPages*s.op.tpp)*(cpu.CostHashProbe+cpu.CostHashCopy), &ok) {
				return sim.Park
			}
		case 5: // S re-probe charged
			if !ok {
				return m.Return(false)
			}
			s.sPending -= f.sShare
			if s.sPending < 0 {
				s.sPending = 0
			}
			f.PC = 6
		case 6: // done
			s.expanded++
			s.expandedOnDisk++
			return m.Return(true)
		}
	}
}

// cleanupFrame joins the contracted partitions pair by pair: read the R
// partition, rebuild its table, then stream its spooled S share.
type cleanupFrame struct {
	sim.FrameState
	s *jstate

	contracted     int
	rShare, sShare float64
	rOff, sOff     int
	i              int
	rPages, sPages int
}

func (f *cleanupFrame) Step(m *sim.Machine, ok bool) sim.Status {
	s := f.s
	e := s.e
	for {
		switch f.PC {
		case 0: // entry
			f.PC = 1
			return s.callFlushR(m, true)
		case 1: // R flushed
			if !ok {
				return m.Return(false)
			}
			f.PC = 2
			return s.callFlushS(m, true)
		case 2: // S flushed
			if !ok {
				return m.Return(false)
			}
			f.contracted = s.b - s.expanded
			if f.contracted == 0 {
				return m.Return(true)
			}
			f.rShare = s.perPartRaw
			f.sShare = s.sPending / float64(f.contracted)
			f.rOff, f.sOff = 0, 0
			f.i = 0
			f.PC = 3
		case 3: // loop head: next contracted partition
			if f.i >= f.contracted {
				return m.Return(true)
			}
			f.PC = 4
			if !e.WaitMemoryIdle() {
				return e.CallWaitMemory(m)
			}
			ok = true
		case 4: // memory held
			if !ok {
				return m.Return(false)
			}
			f.rPages = pagesFor(f.rShare, f.rOff, s.rSpool.Written())
			if f.rPages > 0 {
				f.PC = 5
				return s.rSpool.CallRead(m, e, f.rOff, f.rPages, s.op.blockSize)
			}
			f.PC = 7
		case 5: // R share read
			if !ok {
				return m.Return(false)
			}
			f.rOff += f.rPages
			f.PC = 6
			if e.CPUBurst(float64(f.rPages*s.op.tpp)*cpu.CostHashBuild, &ok) {
				return sim.Park
			}
		case 6: // R rebuild charged
			if !ok {
				return m.Return(false)
			}
			f.PC = 7
		case 7: // S share
			f.sPages = pagesFor(f.sShare, f.sOff, s.sSpool.Written())
			if f.sPages > 0 {
				f.PC = 8
				return s.sSpool.CallRead(m, e, f.sOff, f.sPages, s.op.blockSize)
			}
			f.i++
			f.PC = 3
		case 8: // S share read
			if !ok {
				return m.Return(false)
			}
			f.sOff += f.sPages
			f.PC = 9
			if e.CPUBurst(float64(f.sPages*s.op.tpp)*(cpu.CostHashProbe+cpu.CostHashCopy), &ok) {
				return sim.Park
			}
		case 9: // S stream charged
			if !ok {
				return m.Return(false)
			}
			f.i++
			f.PC = 3
		}
	}
}

// runFrame is the root: init charge, build, probe, cleanup, termination
// charge, releasing all temporary files and the join state on every
// path (the frame-based equivalent of the original defer).
type runFrame struct {
	sim.FrameState
	s *jstate
}

func (f *runFrame) Step(m *sim.Machine, ok bool) sim.Status {
	s := f.s
	for {
		switch f.PC {
		case 0: // entry
			f.PC = 1
			if s.e.CPUBurst(cpu.CostInitQuery, &ok) {
				return sim.Park
			}
		case 1: // init charged
			if !ok {
				return s.finish(m, false)
			}
			f.PC = 2
			return m.Call(&s.fBuild)
		case 2: // built
			if !ok {
				return s.finish(m, false)
			}
			f.PC = 3
			return m.Call(&s.fProbe)
		case 3: // probed
			if !ok {
				return s.finish(m, false)
			}
			f.PC = 4
			return m.Call(&s.fCleanup)
		case 4: // cleaned up
			if !ok {
				return s.finish(m, false)
			}
			f.PC = 5
			if s.e.CPUBurst(cpu.CostTermQuery, &ok) {
				return sim.Park
			}
		case 5: // termination charged
			return s.finish(m, ok)
		}
	}
}

// pagesFor converts a fractional per-partition share into whole pages,
// clamped to what actually remains in the spool file past offset.
func pagesFor(share float64, off, written int) int {
	n := int(math.Round(share))
	if rem := written - off; n > rem {
		n = rem
	}
	if n < 0 {
		n = 0
	}
	return n
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
