package main

import "sync"

// On a shared virtual machine the host's speed drifts: on a 2-vCPU VM,
// two-threaded work ran up to 2.6x slower for minutes at a time as
// neighbouring load came and went. A median over one run's passes cannot
// remove drift that lasts the whole run, so every workload pass is
// bracketed by calibration passes: fixed work owned by the benchmark, on
// the same two threads. The end-to-end times are ratios of the two,
// which cancels most of the host's speed at the moment of measuring
// (2.6x raw drift left about 7%). The calibration code is part of the
// benchmark, so no change to the simulator can move it.

// calTable is read at random by the calibration work, so it meets cache
// and memory contention as the simulator's state does. Of the variants
// tried (no table, 4 MiB, 32 MiB), 4 MiB tracked the simulator best.
var calTable = func() []uint64 {
	t := make([]uint64, 1<<19) // 4 MiB
	for i := range t {
		t[i] = uint64(i) * 2654435761
	}
	return t
}()

// calSteps sizes one calibration pass at about 10 ms on a 2-vCPU VM.
const calSteps = 150_000

// calWork runs a binary heap of timestamps fed by a xorshift stream and
// reads calTable at random: the shape of a discrete-event kernel's work,
// without allocating after its first call.
func calWork(seed uint64, heap []float64) uint64 {
	h := heap[:0]
	x := seed | 1
	acc := uint64(0)
	for i := 0; i < calSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if len(h) < cap(h)/2 || x&1 == 0 && len(h) < cap(h) {
			h = append(h, float64(x>>11)/(1<<53))
			for j := len(h) - 1; j > 0; {
				p := (j - 1) / 2
				if h[p] <= h[j] {
					break
				}
				h[p], h[j] = h[j], h[p]
				j = p
			}
		} else {
			acc += uint64(h[0] * 1e6)
			last := len(h) - 1
			h[0] = h[last]
			h = h[:last]
			for j := 0; ; {
				l := 2*j + 1
				if l >= len(h) {
					break
				}
				if r := l + 1; r < len(h) && h[r] < h[l] {
					l = r
				}
				if h[j] <= h[l] {
					break
				}
				h[j], h[l] = h[l], h[j]
				j = l
			}
		}
		acc += calTable[x&(1<<19-1)]
	}
	return acc
}

// calibrator runs calibration passes on `procs` goroutines.
type calibrator struct {
	heaps [procs][]float64
	sink  [procs]uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for i := range c.heaps {
		c.heaps[i] = make([]float64, 0, 8192)
	}
	return c
}

// pass runs one calibration pass and returns what it cost the host.
func (c *calibrator) pass() hostDelta {
	h0 := sampleHost()
	var wg sync.WaitGroup
	for g := range c.heaps {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c.sink[g] += calWork(uint64(g+1), c.heaps[g])
		}(g)
	}
	wg.Wait()
	return h0.to(sampleHost())
}

// bracket returns the mean of two calibration passes, the ones just
// before and just after a workload pass.
func bracket(before, after hostDelta) (wall, cpu float64) {
	return (before.wall + after.wall) / 2, (before.cpu + after.cpu) / 2
}
