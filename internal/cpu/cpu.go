// Package cpu models the simulated system's CPU (§4.2, Tables 3–4): a
// single processor with a MIPS rating, scheduled by Earliest Deadline,
// plus the per-operation instruction costs of the paper's Table 4.
// Query processing charges the CPU in short per-block bursts, so
// non-preemptive ED service closely approximates the preemptive ED
// discipline of the paper.
package cpu

import (
	"fmt"

	"pmm/internal/sim"
)

// Instruction costs per operation, from the paper's Table 4.
const (
	// CostStartIO is charged for initiating any I/O operation.
	CostStartIO = 1000
	// CostInitQuery is charged once when a sort or join begins.
	CostInitQuery = 40000
	// CostTermQuery is charged once when a sort or join completes.
	CostTermQuery = 10000
	// CostHashBuild hashes a tuple and inserts it into a hash table.
	CostHashBuild = 100
	// CostHashProbe hashes a tuple and probes a hash table.
	CostHashProbe = 200
	// CostHashCopy hashes a tuple and copies it to an output buffer.
	CostHashCopy = 100
	// CostSortCopy copies a tuple to an output buffer during sorting.
	CostSortCopy = 64
	// CostCompare compares two sort keys.
	CostCompare = 50
)

// CPU is the system processor.
type CPU struct {
	mips   float64
	server *sim.Server
}

// New returns a CPU with the given MIPS rating (paper default: 40).
func New(k *sim.Kernel, mips float64) *CPU {
	if mips <= 0 {
		panic(fmt.Sprintf("cpu: MIPS rating %g", mips))
	}
	return &CPU{mips: mips, server: sim.NewServer(k, "cpu")}
}

// MIPS returns the processor's instruction rate in millions/second.
func (c *CPU) MIPS() float64 { return c.mips }

// Seconds converts an instruction count to execution seconds.
func (c *CPU) Seconds(instructions float64) float64 {
	return instructions / (c.mips * 1e6)
}

// StartRun enters a CPU burst without blocking. entered=true means the
// wait was entered and the caller must park; the completion outcome
// arrives at its next step. entered=false means the call finished
// immediately with result ok — a zero-instruction burst or an elided
// one (ok=true; see sim.Server.StartUse), or a pending interrupt that
// consumed the wait (ok=false). The goroutine-process counterpart, Run,
// is test-only (see proc_compat_test.go).
func (c *CPU) StartRun(t sim.Task, prio float64, instructions float64) (entered, ok bool) {
	if instructions < 0 {
		panic(fmt.Sprintf("cpu: negative instruction count %g", instructions))
	}
	if instructions == 0 {
		return false, true
	}
	return c.server.StartUse(t, prio, c.Seconds(instructions))
}

// Meter exposes busy-time accounting for utilization measurements.
func (c *CPU) Meter() *sim.BusyMeter { return c.server.Meter() }
