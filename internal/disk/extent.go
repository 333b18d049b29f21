package disk

import "fmt"

// Region classifies where on a disk an extent lives.
type Region int

const (
	// RegionRelation is the middle band of cylinders holding database
	// relations (permanent, packed in shuffled order at catalog build).
	RegionRelation Region = iota
	// RegionTempInner is the low-numbered cylinder band for temp files.
	RegionTempInner
	// RegionTempOuter is the high-numbered cylinder band for temp files.
	RegionTempOuter
)

// Extent is a contiguous run of cylinders on one disk holding a relation
// or a temporary file.
type Extent struct {
	disk     *Disk
	startCyl int
	cyls     int
	pages    int
	region   Region
	// overcommitted extents were allocated when no temp space remained;
	// they occupy a nominal position and Free is a no-op for them.
	overcommitted bool
	freed         bool
}

// Disk returns the disk holding the extent.
func (e *Extent) Disk() *Disk { return e.disk }

// Pages returns the extent capacity in pages.
func (e *Extent) Pages() int { return e.pages }

// StartCylinder returns the extent's first cylinder.
func (e *Extent) StartCylinder() int { return e.startCyl }

// Region returns where the extent lives.
func (e *Extent) Region() Region { return e.region }

// CylinderOf maps a page offset within the extent to its cylinder.
func (e *Extent) CylinderOf(page int) int {
	if page < 0 {
		page = 0
	}
	if page >= e.pages {
		page = e.pages - 1
	}
	return e.startCyl + page/e.disk.params.CylinderSize
}

// cylindersFor returns how many cylinders hold `pages` pages.
func cylindersFor(pages, cylinderSize int) int {
	return (pages + cylinderSize - 1) / cylinderSize
}

// PlaceRelation permanently allocates `pages` pages in the disk's middle
// (relation) band. Catalog construction calls it in shuffled order so the
// relations end up "randomly placed on the middle cylinders" (§4.1).
func (d *Disk) PlaceRelation(pages int) (*Extent, error) {
	cyls := cylindersFor(pages, d.params.CylinderSize)
	if d.relNext+cyls > d.relHi {
		return nil, fmt.Errorf("disk %d: relation band full (%d cylinders short)",
			d.id, d.relNext+cyls-d.relHi)
	}
	e := &Extent{disk: d, startCyl: d.relNext, cyls: cyls, pages: pages, region: RegionRelation}
	d.relNext += cyls
	return e, nil
}

// AllocTemp allocates a temporary extent of `pages` pages. A valid
// preferDisk pins the extent to that disk — operators spool partitions
// and sort runs next to the relation they are processing, so a
// memory-starved query alternates its own disk's head between the middle
// (relation) and edge (temp) bands instead of polluting the whole farm.
// With preferDisk < 0, or when the preferred disk is full, disks are
// tried round-robin; on each disk the inner or outer band with the
// larger free run is used, matching the paper's "temporary files are
// allotted either the inner or the outer cylinders". When every band on
// every disk is full the extent is overcommitted at the band edge rather
// than failing, so a badly thrashing simulation degrades instead of
// crashing.
//
// The extent is returned by value, for its owner to hold inside its own
// record (a temp file), so a temp allocation makes no heap object.
func (m *Manager) AllocTemp(pages int, preferDisk int) Extent {
	if pages <= 0 {
		pages = 1
	}
	cyls := cylindersFor(pages, m.params.CylinderSize)
	if preferDisk >= 0 && preferDisk < len(m.disks) {
		if e, ok := m.disks[preferDisk].allocTemp(pages, cyls); ok {
			return e
		}
	}
	for try := 0; try < len(m.disks); try++ {
		d := m.disks[(m.tempNext+try)%len(m.disks)]
		if e, ok := d.allocTemp(pages, cyls); ok {
			m.tempNext = (m.tempNext + try + 1) % len(m.disks)
			return e
		}
	}
	// Overcommit on the round-robin disk at the inner edge.
	d := m.disks[m.tempNext]
	m.tempNext = (m.tempNext + 1) % len(m.disks)
	return Extent{disk: d, startCyl: 0, cyls: cyls, pages: pages,
		region: RegionTempInner, overcommitted: true}
}

// allocTemp tries both temp bands of one disk, preferring the one with
// the larger free run. ok is false when neither band has room.
func (d *Disk) allocTemp(pages, cyls int) (e Extent, ok bool) {
	inner, outer := d.tempInner.largestRun(), d.tempOuter.largestRun()
	order := []*regionAlloc{d.tempInner, d.tempOuter}
	regions := []Region{RegionTempInner, RegionTempOuter}
	if outer > inner {
		order[0], order[1] = order[1], order[0]
		regions[0], regions[1] = regions[1], regions[0]
	}
	for i, ra := range order {
		if start, ok := ra.alloc(cyls); ok {
			return Extent{disk: d, startCyl: start, cyls: cyls, pages: pages, region: regions[i]}, true
		}
	}
	return Extent{}, false
}

// Free releases a temporary extent. Freeing twice or freeing a relation
// extent panics: both indicate operator bookkeeping bugs.
func (e *Extent) Free() {
	if e.freed {
		panic("disk: double free of extent")
	}
	if e.region == RegionRelation {
		panic("disk: freeing a relation extent")
	}
	e.freed = true
	if e.overcommitted {
		return
	}
	switch e.region {
	case RegionTempInner:
		e.disk.tempInner.release(e.startCyl, e.cyls)
	case RegionTempOuter:
		e.disk.tempOuter.release(e.startCyl, e.cyls)
	}
}

// span is a run of free cylinders [start, start+len).
type span struct{ start, len int }

// regionAlloc is a first-fit free-list allocator over a cylinder band.
type regionAlloc struct {
	lo, hi int
	free   []span // sorted by start, non-adjacent
}

func newRegionAlloc(lo, hi int) *regionAlloc {
	ra := &regionAlloc{lo: lo, hi: hi}
	if hi > lo {
		ra.free = []span{{start: lo, len: hi - lo}}
	}
	return ra
}

// largestRun returns the biggest contiguous free run.
func (ra *regionAlloc) largestRun() int {
	max := 0
	for _, s := range ra.free {
		if s.len > max {
			max = s.len
		}
	}
	return max
}

// freeCylinders returns the total free cylinders in the band.
func (ra *regionAlloc) freeCylinders() int {
	total := 0
	for _, s := range ra.free {
		total += s.len
	}
	return total
}

// alloc carves `cyls` cylinders out of the first fitting span.
func (ra *regionAlloc) alloc(cyls int) (start int, ok bool) {
	for i := range ra.free {
		if ra.free[i].len >= cyls {
			start = ra.free[i].start
			ra.free[i].start += cyls
			ra.free[i].len -= cyls
			if ra.free[i].len == 0 {
				ra.free = append(ra.free[:i], ra.free[i+1:]...)
			}
			return start, true
		}
	}
	return 0, false
}

// release returns a run of cylinders to the free list, merging neighbors.
func (ra *regionAlloc) release(start, cyls int) {
	// Insert sorted.
	i := 0
	for i < len(ra.free) && ra.free[i].start < start {
		i++
	}
	ra.free = append(ra.free, span{})
	copy(ra.free[i+1:], ra.free[i:])
	ra.free[i] = span{start: start, len: cyls}
	// Merge with next, then with previous.
	if i+1 < len(ra.free) && ra.free[i].start+ra.free[i].len == ra.free[i+1].start {
		ra.free[i].len += ra.free[i+1].len
		ra.free = append(ra.free[:i+1], ra.free[i+2:]...)
	}
	if i > 0 && ra.free[i-1].start+ra.free[i-1].len == ra.free[i].start {
		ra.free[i-1].len += ra.free[i].len
		ra.free = append(ra.free[:i], ra.free[i+1:]...)
	}
}
