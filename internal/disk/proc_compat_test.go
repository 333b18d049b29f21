package disk

import "pmm/internal/sim"

// Blocking goroutine-process (sim.Proc) counterparts of StartAccess and
// StartAccessSeq. Production code runs every process on the inline
// representation and calls the Start* duals; these wrappers live in
// this test-only file so the package's shipped surface no longer
// references sim.Proc at all while the disk tests keep their natural
// straight-line style.

// Access performs one non-sequential disk access of `pages` pages at the
// given cylinder with the given ED priority (lower = more urgent). The
// calling process blocks until the transfer completes. It returns false
// if the process was interrupted — while queued (no disk time consumed)
// or mid-transfer (the transfer finishes first).
func (d *Disk) Access(p *sim.Proc, prio float64, cylinder, pages int) bool {
	req := &Request{cylinder: cylinder, pages: pages, prio: prio}
	return d.access(p, prio, req)
}

// AccessSeq performs a sequential access: page `fromPage` of `file`,
// with the prefetch-cache semantics of StartAccessSeq.
func (d *Disk) AccessSeq(p *sim.Proc, prio float64, cylinder, pages int, file int64, fromPage int) bool {
	req := &Request{
		cylinder: cylinder, pages: pages, prio: prio, file: file, page: fromPage,
	}
	return d.access(p, prio, req)
}

func (d *Disk) access(p *sim.Proc, prio float64, req *Request) bool {
	if entered, ok := d.start(p, prio, req); !entered {
		return ok
	}
	return p.Await()
}
