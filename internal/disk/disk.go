// Package disk models the disk subsystem of the paper's RTDBS simulator
// (§4.2, Table 3): a set of disks, each with its own queue managed by
// Earliest Deadline, elevator service among requests of equal priority,
// a square-root seek-time curve [Bitt88], rotational latency, and
// track-rate transfer. The 256 KB per-disk prefetch cache is realized at
// the access level: sequential readers fetch BlockSize pages per request
// (one cache miss fills the cache, subsequent pages hit), except during
// external-sort merges, which the paper exempts from prefetching.
//
// The package also allocates cylinder extents: database relations live on
// the middle cylinders of their disk while temporary files are allotted
// the inner or outer cylinders, minimizing head movement for the common
// relation scans.
package disk

import (
	"fmt"
	"math"
	"math/rand"

	"pmm/internal/sim"
)

// Params describes the physical disk configuration (paper Table 3).
type Params struct {
	NumDisks      int     // number of disks attached to the system
	SeekFactorMS  float64 // seek over n cylinders takes SeekFactorMS·√n ms
	RotationTime  float64 // seconds per revolution
	NumCylinders  int     // cylinders per disk
	CylinderSize  int     // pages per cylinder
	PagesPerTrack int     // pages per track; transfer runs at track rate
	BlockSize     int     // pages fetched per sequential I/O (prefetch)
}

// DefaultParams returns the paper's Table 3 settings. The track density
// (4 pages = 32 KB per track) is calibrated so that stand-alone query
// times match the anchors implied by the paper's Table 7 — an average
// baseline hash join executes in ≈32 s and an average external sort in
// ≈6 s when run alone with maximum memory.
func DefaultParams() Params {
	return Params{
		NumDisks:      10,
		SeekFactorMS:  0.617,
		RotationTime:  0.0167,
		NumCylinders:  1500,
		CylinderSize:  90,
		PagesPerTrack: 4,
		BlockSize:     6,
	}
}

// SeekTime returns the time to seek across n cylinders:
// SeekFactor·√n milliseconds, 0 for n = 0 [Bitt88].
func (p Params) SeekTime(n int) float64 {
	if n <= 0 {
		return 0
	}
	return p.SeekFactorMS * 1e-3 * math.Sqrt(float64(n))
}

// TransferTime returns the time to transfer n pages at track rate.
func (p Params) TransferTime(n int) float64 {
	return float64(n) * p.RotationTime / float64(p.PagesPerTrack)
}

// MeanAccessTime returns the expected service time for an n-page access
// at the given seek distance, using the mean rotational delay. The
// workload generator uses it to estimate stand-alone execution times.
func (p Params) MeanAccessTime(seekCylinders, pages int) float64 {
	return p.SeekTime(seekCylinders) + p.RotationTime/2 + p.TransferTime(pages)
}

// Request is one disk access record. The fields are internal; callers of
// the Start access methods own a scratch Request (typically one
// per executor, since a process has at most one access in flight) that
// the disk fills and reads, so queueing an access never allocates.
type Request struct {
	cylinder int
	pages    int
	prio     float64
	// file/page identify sequential streams for the prefetch cache;
	// file 0 means a non-sequential (uncached) access.
	file int64
	page int
}

// stream is one sequential access pattern tracked by a disk's prefetch
// cache: the cache holds readahead (or write-behind) pages for it, so a
// request continuing the stream is serviced at transfer rate with no
// seek or rotational delay.
type stream struct {
	file int64
	next int
}

// Disk is a single disk drive: an ED-ordered queue with elevator
// tie-breaking and a moving head.
type Disk struct {
	id     int
	params Params
	k      *sim.Kernel
	gate   *sim.Gate
	meter  *sim.BusyMeter
	rng    *rand.Rand

	head      int  // current cylinder
	ascending bool // elevator direction
	busy      bool
	served    uint64 // completed requests
	seqHits   uint64 // requests served from a tracked stream

	// Allocation-free service plumbing: completions are typed kernel
	// events addressing the disk by its registered completer id, and the
	// in-service entry is carried in cur rather than captured in
	// per-dispatch closures. rider is the caller of a direct serve on
	// the idle disk, whose wake the direct completion delivers.
	cur    *sim.Waiting
	rider  sim.Ride
	compID int32

	// The 256 KB prefetch cache tracks a small number of concurrent
	// sequential streams (most recently used first). More interleaved
	// streams than the cache can hold thrash it back to full-cost
	// accesses — exactly how a small readahead cache behaves.
	streams []stream

	// Extent allocation state. Relations occupy [relLo, relHi); temporary
	// files fill the inner region [0, relLo) and outer region [relHi, N).
	relLo, relHi int
	relNext      int // next free cylinder for relation placement
	tempInner    *regionAlloc
	tempOuter    *regionAlloc
}

// Manager owns all disks of the simulated system.
type Manager struct {
	params   Params
	disks    []*Disk
	tempNext int // round-robin cursor for temp placement
}

// NewManager creates the disk farm. relCylinders is the number of middle
// cylinders to set aside per disk for database relations; the remaining
// inner and outer cylinders hold temporary files. The rng seed drives
// rotational-latency draws.
func NewManager(k *sim.Kernel, params Params, relCylinders int, seed int64) (*Manager, error) {
	if params.NumDisks <= 0 {
		return nil, fmt.Errorf("disk: NumDisks = %d", params.NumDisks)
	}
	if relCylinders > params.NumCylinders {
		return nil, fmt.Errorf("disk: relation region (%d cyl) exceeds disk (%d cyl)",
			relCylinders, params.NumCylinders)
	}
	m := &Manager{params: params}
	lo := (params.NumCylinders - relCylinders) / 2
	hi := lo + relCylinders
	for i := 0; i < params.NumDisks; i++ {
		d := &Disk{
			id:        i,
			params:    params,
			k:         k,
			gate:      sim.NewGate(k, fmt.Sprintf("disk%d", i)),
			meter:     sim.NewBusyMeter(k),
			rng:       sim.NewRand(seed, uint64(1000+i)),
			head:      params.NumCylinders / 2,
			ascending: true,
			relLo:     lo,
			relHi:     hi,
			relNext:   lo,
			tempInner: newRegionAlloc(0, lo),
			tempOuter: newRegionAlloc(hi, params.NumCylinders),
		}
		d.compID = k.RegisterCompleter(d)
		m.disks = append(m.disks, d)
	}
	return m, nil
}

// Params returns the physical configuration.
func (m *Manager) Params() Params { return m.params }

// NumDisks returns the number of disks.
func (m *Manager) NumDisks() int { return len(m.disks) }

// Disk returns disk i.
func (m *Manager) Disk(i int) *Disk { return m.disks[i] }

// MaxUtilization returns the highest per-disk utilization over the window
// starting at time start given the busy-time snapshots in busyAt0
// (indexed by disk). This is the "most heavily loaded resource" reading
// PMM's RU heuristic needs.
func (m *Manager) MaxUtilization(start float64, busyAt0 []float64) float64 {
	var max float64
	for i, d := range m.disks {
		u := d.meter.Utilization(start, busyAt0[i])
		if u > max {
			max = u
		}
	}
	return max
}

// AvgUtilization returns the mean per-disk utilization over a window.
func (m *Manager) AvgUtilization(start float64, busyAt0 []float64) float64 {
	var sum float64
	for i, d := range m.disks {
		sum += d.meter.Utilization(start, busyAt0[i])
	}
	return sum / float64(len(m.disks))
}

// BusySnapshot returns each disk's cumulative busy time, for windowing.
func (m *Manager) BusySnapshot() []float64 {
	out := make([]float64, len(m.disks))
	for i, d := range m.disks {
		out[i] = d.meter.BusyTime()
	}
	return out
}

// ID returns the disk's index.
func (d *Disk) ID() int { return d.id }

// Meter exposes busy-time accounting.
func (d *Disk) Meter() *sim.BusyMeter { return d.meter }

// Served returns the number of requests completed.
func (d *Disk) Served() uint64 { return d.served }

// QueueLen returns the number of queued requests.
func (d *Disk) QueueLen() int { return d.gate.Len() }

// clamp validates a request and confines it to the physical disk.
func (d *Disk) clamp(req *Request) {
	if req.pages <= 0 {
		panic(fmt.Sprintf("disk: access of %d pages", req.pages))
	}
	if req.cylinder < 0 {
		req.cylinder = 0
	}
	if req.cylinder >= d.params.NumCylinders {
		req.cylinder = d.params.NumCylinders - 1
	}
}

// StartAccess enters one non-sequential disk access of `pages` pages at
// the given cylinder with the given ED priority (lower = more urgent)
// without blocking, filling the caller-owned scratch record req (which
// must stay untouched until the access completes or is interrupted).
//
// The (entered, ok) result follows cpu.StartRun. entered=true means the
// wait was entered: the caller must park immediately, and the completion
// outcome (false iff interrupted) arrives at its next step. entered=false
// means the access finished within the call with result ok:
//   - ok=true: the transfer was elided. The disk was idle and its
//     completion was the next event (sim.Kernel.Elide), so the clock
//     already stands at the transfer's end and the disk has completed it.
//   - ok=false: a pending interrupt consumed the wait. A transfer that
//     had already started on an idle disk still completes on the disk's
//     timeline, exactly like an interrupt arriving mid-transfer.
func (d *Disk) StartAccess(p *sim.Proc, prio float64, cylinder, pages int, req *Request) (entered, ok bool) {
	*req = Request{cylinder: cylinder, pages: pages, prio: prio}
	return d.start(p, prio, req)
}

// StartAccessSeq is the sequential counterpart of StartAccess: page
// `fromPage` of `file`. If the request continues a stream tracked by
// the prefetch cache it is serviced at transfer rate (readahead already
// positioned the data); otherwise it pays the full seek and rotational
// delay and starts a new tracked stream. Same caller-owned scratch
// record and (entered, ok) contract as StartAccess.
func (d *Disk) StartAccessSeq(p *sim.Proc, prio float64, cylinder, pages int, file int64, fromPage int, req *Request) (entered, ok bool) {
	*req = Request{
		cylinder: cylinder, pages: pages, prio: prio, file: file, page: fromPage,
	}
	return d.start(p, prio, req)
}

func (d *Disk) start(p *sim.Proc, prio float64, req *Request) (entered, ok bool) {
	d.clamp(req)
	if !d.busy {
		// Idle disk: serve immediately. The caller waits in a
		// cancellable hold that rides on the completion, which frees the
		// disk before it wakes the caller. The request is fully consumed
		// here, so the caller may reuse the scratch record as soon as it
		// resumes.
		d.busy = true
		d.meter.SetBusy(true)
		service := d.serviceTime(req)
		// Elided: the completion, the hold wake and the resumed turn.
		if service > 0 && !p.PendingInterrupt() && d.k.Elide(d.k.Now()+service, 3) {
			d.finish()
			return false, true
		}
		d.rider, entered = d.k.AtCompleteRide(service, d.compID, p)
		return entered, false
	}
	// Queued: the scratch record backs the queue entry until dispatch
	// reads its service parameters or an interrupt unlinks the entry.
	return d.gate.Enqueue(p, prio, req, 0), false
}

// maxStreams is how many concurrent sequential streams the 256 KB cache
// can usefully read ahead for (≈5 blocks of 48 KB: two streams with a
// couple of blocks of headroom each).
const maxStreams = 2

// streamHit consults and updates the prefetch cache for a request. It
// reports whether the request continues a tracked stream.
func (d *Disk) streamHit(req *Request) bool {
	if req.file == 0 {
		return false
	}
	for i, st := range d.streams {
		if st.file == req.file && st.next == req.page {
			// Continue the stream; move it to the front.
			copy(d.streams[1:i+1], d.streams[:i])
			d.streams[0] = stream{file: req.file, next: req.page + req.pages}
			return true
		}
	}
	// New stream: insert at front, evicting the least recent.
	if len(d.streams) < maxStreams {
		d.streams = append(d.streams, stream{})
	}
	copy(d.streams[1:], d.streams[:len(d.streams)-1])
	d.streams[0] = stream{file: req.file, next: req.page + req.pages}
	return false
}

// Complete delivers a typed completion event; see sim.Completer.
func (d *Disk) Complete(direct bool) {
	if direct {
		d.completeDirect()
	} else {
		d.completeQueued()
	}
}

// completeDirect finishes a directly served request: the disk is freed
// (dispatching the next queued request) before the rider's wake is
// delivered, the order a separate hold wake event would give.
func (d *Disk) completeDirect() {
	d.finish()
	d.k.DeliverRide(d.rider)
}

// finish counts a served request, marks the disk idle and dispatches
// the next queued request.
func (d *Disk) finish() {
	d.served++
	d.busy = false
	d.meter.SetBusy(false)
	d.dispatch()
}

// completeQueued finishes a dispatched request: the served process's
// wake is scheduled before the next request starts.
func (d *Disk) completeQueued() {
	w := d.cur
	d.cur = nil
	d.served++
	d.busy = false
	d.meter.SetBusy(false)
	d.gate.EndService(w)
	d.dispatch()
}

// serviceTime computes the service time for a request and moves the
// head. Requests continuing a tracked sequential stream cost only the
// transfer (readahead hides seek and rotation); everything else pays
// seek plus a uniform rotational delay plus transfer.
func (d *Disk) serviceTime(req *Request) float64 {
	hit := d.streamHit(req)
	dist := req.cylinder - d.head
	if dist < 0 {
		dist = -dist
		d.ascending = false
	} else if dist > 0 {
		d.ascending = true
	}
	d.head = req.cylinder
	if hit {
		d.seqHits++
		return d.params.TransferTime(req.pages)
	}
	rot := d.rng.Float64() * d.params.RotationTime
	return d.params.SeekTime(dist) + rot + d.params.TransferTime(req.pages)
}

// SeqHits returns how many requests were serviced at streaming rate.
func (d *Disk) SeqHits() uint64 { return d.seqHits }

// TempFreeCylinders returns the unallocated cylinders across both temp
// bands — operators that leak temp extents show up here.
func (d *Disk) TempFreeCylinders() int {
	return d.tempInner.freeCylinders() + d.tempOuter.freeCylinders()
}

// dispatch starts the best queued request: minimum ED priority, with the
// elevator algorithm breaking ties — among equal-priority requests the
// head continues in its current direction to the nearest cylinder,
// reversing only when nothing lies ahead.
func (d *Disk) dispatch() {
	if d.busy {
		return
	}
	best := d.pickNext()
	if best == nil {
		return
	}
	req := best.Data.(*Request)
	if !d.gate.BeginService(best) {
		return
	}
	d.busy = true
	d.meter.SetBusy(true)
	service := d.serviceTime(req)
	d.cur = best
	d.k.AtComplete(service, d.compID, false)
}

// pickNext implements ED with elevator tie-breaking over the queued
// waiters. The gate keeps them in (Prio, arrival) order, so the
// minimum-priority tie set is the run of waiters at its head, and the
// elevator pass walks only that run.
func (d *Disk) pickNext() *sim.Waiting {
	min := d.gate.MinWaiter()
	if min == nil {
		return nil
	}
	var ahead, behind *sim.Waiting
	var aheadDist, behindDist int
	for w := min; w != nil && w.Prio == min.Prio; w = w.Next() {
		req := w.Data.(*Request)
		dist := req.cylinder - d.head
		if !d.ascending {
			dist = -dist
		}
		if dist >= 0 {
			if ahead == nil || dist < aheadDist || (dist == aheadDist && w.Seq() < ahead.Seq()) {
				ahead, aheadDist = w, dist
			}
		} else {
			if behind == nil || -dist < behindDist || (-dist == behindDist && w.Seq() < behind.Seq()) {
				behind, behindDist = w, -dist
			}
		}
	}
	if ahead != nil {
		return ahead
	}
	return behind
}
