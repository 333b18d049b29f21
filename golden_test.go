package pmm_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"pmm"
	"pmm/internal/trace"
)

// TestGoldenKernelDigests pins a digest of one shortened BaselineConfig
// run per policy at a fixed seed. The constants were captured on the
// pre-refactor (container/heap, eager-cancel) kernel; the zero-allocation
// kernel must reproduce every run bit for bit — the determinism contract
// is (time, then scheduling sequence) event ordering, so any reordering,
// lost cancel, or double wake shows up here as a digest mismatch.
func TestGoldenKernelDigests(t *testing.T) {
	golden := []struct {
		name                               string
		pol                                pmm.PolicyConfig
		steps                              uint64
		arrived, completed, missed, events int
		missRatio                          string
	}{
		{"Max", pmm.PolicyConfig{Kind: pmm.PolicyMax}, 551455, 93, 52, 35, 87, "0.402298850575"},
		{"MinMax", pmm.PolicyConfig{Kind: pmm.PolicyMinMax}, 1221006, 93, 41, 44, 85, "0.517647058824"},
		{"MinMax-10", pmm.PolicyConfig{Kind: pmm.PolicyMinMax, MPLLimit: 10}, 1210808, 93, 41, 44, 85, "0.517647058824"},
		{"Proportional", pmm.PolicyConfig{Kind: pmm.PolicyProportional}, 1246323, 93, 44, 40, 84, "0.476190476190"},
		{"PMM", pmm.PolicyConfig{Kind: pmm.PolicyPMM}, 628652, 93, 44, 43, 87, "0.494252873563"},
		{"FairPMM", pmm.PolicyConfig{Kind: pmm.PolicyFairPMM}, 628652, 93, 44, 43, 87, "0.494252873563"},
	}
	for _, g := range golden {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			cfg := pmm.BaselineConfig()
			cfg.Seed = 42
			cfg.Duration = 1500
			cfg.Classes[0].ArrivalRate = 0.06
			cfg.Policy = g.pol
			sys, err := pmm.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := sys.Run()
			if got := sys.Kernel().Steps(); got != g.steps {
				t.Errorf("kernel steps = %d, want %d", got, g.steps)
			}
			if r.Arrived != g.arrived {
				t.Errorf("arrived = %d, want %d", r.Arrived, g.arrived)
			}
			if r.Completed != g.completed {
				t.Errorf("completed = %d, want %d", r.Completed, g.completed)
			}
			if r.Missed != g.missed {
				t.Errorf("missed = %d, want %d", r.Missed, g.missed)
			}
			if got := len(r.Events); got != g.events {
				t.Errorf("termination events = %d, want %d", got, g.events)
			}
			if got := fmt.Sprintf("%.12f", r.MissRatio); got != g.missRatio {
				t.Errorf("miss ratio = %s, want %s", got, g.missRatio)
			}
		})
	}
}

// TestGoldenDeadlineAbortDigests pins the digest contract for a
// deadline-abort-heavy workload: the baseline class overloaded to 2.5×
// the nominal rate, so most queries blow their firm deadlines and are
// interrupted wherever they wait (admission, a gate queue, a disk
// ride). The aborts fire from the kernel's deadline heap in between the
// main heap's completions and wakes, so a queue-structure change must
// reproduce the exact event order with that heap dense and busy, not
// just through clean schedules. An abort that ends a disk ride reports
// a cancel, and no wake is ever dropped: only arrival sources hold. The
// Max row dates from the 4-ary-heap kernel before the timing-wheel
// refactor; the MinMax and PMM rows were captured before deadline
// pacing was removed, with pacing off.
func TestGoldenDeadlineAbortDigests(t *testing.T) {
	golden := []struct {
		name                               string
		pol                                pmm.PolicyConfig
		steps                              uint64
		arrived, completed, missed, events int
		missRatio                          string
	}{
		{"Max", pmm.PolicyConfig{Kind: pmm.PolicyMax}, 660174, 151, 35, 103, 138, "0.746376811594"},
		{"MinMax", pmm.PolicyConfig{Kind: pmm.PolicyMinMax}, 1502874, 151, 25, 112, 137, "0.817518248175"},
		{"PMM", pmm.PolicyConfig{Kind: pmm.PolicyPMM}, 882787, 151, 29, 109, 138, "0.789855072464"},
	}
	for _, g := range golden {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			cfg := pmm.BaselineConfig()
			cfg.Seed = 42
			cfg.Duration = 1500
			cfg.Classes[0].ArrivalRate = 0.10
			cfg.Policy = g.pol
			sys, err := pmm.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := sys.Run()
			if got := sys.Kernel().Steps(); got != g.steps {
				t.Errorf("kernel steps = %d, want %d", got, g.steps)
			}
			if r.Arrived != g.arrived {
				t.Errorf("arrived = %d, want %d", r.Arrived, g.arrived)
			}
			if r.Completed != g.completed {
				t.Errorf("completed = %d, want %d", r.Completed, g.completed)
			}
			if r.Missed != g.missed {
				t.Errorf("missed = %d, want %d", r.Missed, g.missed)
			}
			if got := len(r.Events); got != g.events {
				t.Errorf("termination events = %d, want %d", got, g.events)
			}
			if got := fmt.Sprintf("%.12f", r.MissRatio); got != g.missRatio {
				t.Errorf("miss ratio = %s, want %s", got, g.missRatio)
			}
		})
	}
}

// TestGoldenDeepFrameDigests pins the digest contract for the deepest
// frame stacks the simulator builds: PPHJ joins and external sorts
// running side by side under heavy memory pressure (M cut to 800 pages).
// Squeezed allocations force the join through partition spooling,
// adaptation and read-back and the sort through multi-step merging with
// mid-merge splits, so every operator frame (build/probe/flush/adapt/
// expand/read-back, formation/emit/merge) plus the memory-wait leaf
// frame appear on the stack together. A dispatch or frame-machinery
// change must reproduce this order exactly, not just the shallow
// steady-state paths. The Max row dates from the closure-dispatch
// kernel before the typed-payload refactor; the MinMax and PMM rows
// were captured before deadline pacing was removed, with pacing off.
func TestGoldenDeepFrameDigests(t *testing.T) {
	golden := []struct {
		name                               string
		pol                                pmm.PolicyConfig
		steps                              uint64
		arrived, completed, missed, events int
		missRatio                          string
	}{
		{"Max", pmm.PolicyConfig{Kind: pmm.PolicyMax}, 133331, 154, 32, 112, 144, "0.777777777778"},
		{"MinMax", pmm.PolicyConfig{Kind: pmm.PolicyMinMax}, 1373997, 154, 37, 106, 143, "0.741258741259"},
		{"PMM", pmm.PolicyConfig{Kind: pmm.PolicyPMM}, 895186, 154, 30, 113, 143, "0.790209790210"},
	}
	for _, g := range golden {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			cfg := pmm.BaselineConfig()
			cfg.Seed = 42
			cfg.Duration = 1500
			cfg.MemoryPages = 800
			cfg.Classes[0].ArrivalRate = 0.05
			cfg.Classes = append(cfg.Classes, pmm.ClassSpec{
				Name:        "Sort",
				Kind:        pmm.ExternalSort,
				RelGroups:   []int{0},
				ArrivalRate: 0.05,
				SlackRange:  [2]float64{2.5, 7.5},
			})
			cfg.Policy = g.pol
			sys, err := pmm.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := sys.Run()
			if got := sys.Kernel().Steps(); got != g.steps {
				t.Errorf("kernel steps = %d, want %d", got, g.steps)
			}
			if r.Arrived != g.arrived {
				t.Errorf("arrived = %d, want %d", r.Arrived, g.arrived)
			}
			if r.Completed != g.completed {
				t.Errorf("completed = %d, want %d", r.Completed, g.completed)
			}
			if r.Missed != g.missed {
				t.Errorf("missed = %d, want %d", r.Missed, g.missed)
			}
			if got := len(r.Events); got != g.events {
				t.Errorf("termination events = %d, want %d", got, g.events)
			}
			if got := fmt.Sprintf("%.12f", r.MissRatio); got != g.missRatio {
				t.Errorf("miss ratio = %s, want %s", got, g.missRatio)
			}
		})
	}
}

// TestGoldenPhaseShiftDigests pins the same digest contract for a
// phase-shifting (dynamic arrival-rate) workload: three cycling phases
// that ramp the class rate down, up, and off. The source processes drive
// every phase boundary with their own re-draw holds, so this digest pins
// the source-loop scheduling behaviour specifically — a migration of the
// Poisson sources to a different process representation must reproduce
// the exact hold/re-draw event sequence, not just static steady state.
// Constants captured on the goroutine-proc kernel before the inline
// scheduler landed.
func TestGoldenPhaseShiftDigests(t *testing.T) {
	golden := []struct {
		name                               string
		pol                                pmm.PolicyConfig
		steps                              uint64
		arrived, completed, missed, events int
		missRatio                          string
	}{
		{"Max", pmm.PolicyConfig{Kind: pmm.PolicyMax}, 476020, 76, 41, 20, 61, "0.327868852459"},
		{"PMM", pmm.PolicyConfig{Kind: pmm.PolicyPMM}, 670689, 76, 38, 21, 59, "0.355932203390"},
	}
	for _, g := range golden {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			cfg := pmm.BaselineConfig()
			cfg.Seed = 42
			cfg.Duration = 1500
			cfg.Classes[0].ArrivalRate = 0.06
			cfg.Phases = []pmm.Phase{
				{Duration: 400, Rates: []float64{0.03}},
				{Duration: 300, Rates: []float64{0.10}},
				{Duration: 200, Rates: []float64{0}},
			}
			cfg.Policy = g.pol
			sys, err := pmm.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := sys.Run()
			if got := sys.Kernel().Steps(); got != g.steps {
				t.Errorf("kernel steps = %d, want %d", got, g.steps)
			}
			if r.Arrived != g.arrived {
				t.Errorf("arrived = %d, want %d", r.Arrived, g.arrived)
			}
			if r.Completed != g.completed {
				t.Errorf("completed = %d, want %d", r.Completed, g.completed)
			}
			if r.Missed != g.missed {
				t.Errorf("missed = %d, want %d", r.Missed, g.missed)
			}
			if got := len(r.Events); got != g.events {
				t.Errorf("termination events = %d, want %d", got, g.events)
			}
			if got := fmt.Sprintf("%.12f", r.MissRatio); got != g.missRatio {
				t.Errorf("miss ratio = %s, want %s", got, g.missRatio)
			}
		})
	}
}

// TestGoldenOverloadDigests pins the digest contract for the
// count-batched modulated-arrival path: the overload preset (a diurnal
// 100k-client population behind a bounded admission queue) shortened to
// 1500 s at a fixed seed. The run exercises the thinning loop, the
// batched source frame, and the admission gate together, so a change to
// envelope construction, acceptance draws, stream layout, or rejection
// handling shows up here as a digest mismatch and must be intentional.
func TestGoldenOverloadDigests(t *testing.T) {
	golden := []struct {
		name                                         string
		pol                                          pmm.PolicyConfig
		steps                                        uint64
		arrived, rejected, completed, missed, events int
		missRatio, lossRatio                         string
	}{
		{"Max", pmm.PolicyConfig{Kind: pmm.PolicyMax}, 1918054, 4807, 692, 2011, 2068, 4079, "0.506987006619", "0.143956729769"},
		{"MinMax", pmm.PolicyConfig{Kind: pmm.PolicyMinMax}, 1856126, 4807, 0, 1299, 3470, 4769, "0.727615852380", "0.000000000000"},
		{"PMM", pmm.PolicyConfig{Kind: pmm.PolicyPMM}, 1918054, 4807, 692, 2011, 2068, 4079, "0.506987006619", "0.143956729769"},
	}
	for _, g := range golden {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			cfg := pmm.OverloadConfig(100_000)
			cfg.Seed = 42
			cfg.Duration = 1500
			cfg.Policy = g.pol
			sys, err := pmm.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := sys.Run()
			if got := sys.Kernel().Steps(); got != g.steps {
				t.Errorf("kernel steps = %d, want %d", got, g.steps)
			}
			if r.Arrived != g.arrived {
				t.Errorf("arrived = %d, want %d", r.Arrived, g.arrived)
			}
			if r.Rejected != g.rejected {
				t.Errorf("rejected = %d, want %d", r.Rejected, g.rejected)
			}
			if r.Completed != g.completed {
				t.Errorf("completed = %d, want %d", r.Completed, g.completed)
			}
			if r.Missed != g.missed {
				t.Errorf("missed = %d, want %d", r.Missed, g.missed)
			}
			if got := len(r.Events); got != g.events {
				t.Errorf("termination events = %d, want %d", got, g.events)
			}
			if got := fmt.Sprintf("%.12f", r.MissRatio); got != g.missRatio {
				t.Errorf("miss ratio = %s, want %s", got, g.missRatio)
			}
			if got := fmt.Sprintf("%.12f", r.LossRatio); got != g.lossRatio {
				t.Errorf("loss ratio = %s, want %s", got, g.lossRatio)
			}
		})
	}
}

// TestGoldenTraceStreamDigest pins the traced event stream itself, not
// just its effect on results: a SHA-256 over every record the collector
// holds (kernel dispatches and cancels, gate transitions, spans, instants
// and samples) for 600 s BaselineConfig PMM runs whose firm deadlines
// abort queries mid-wait — once at the nominal rate and once overloaded
// to 0.10 queries/s, where aborts are dense and each abort of a query
// riding on a disk transfer leaves a cancel record. Any change to which
// kernel events exist, to their (time, seq) stamps, kinds or payloads,
// or to the cancel record an interrupt leaves behind moves the digest.
// Baseline was captured before disk completions carried their caller's
// wake; Overload before deadline pacing was removed.
func TestGoldenTraceStreamDigest(t *testing.T) {
	golden := []struct {
		name   string
		rate   float64
		digest string
	}{
		{"Baseline", 0.06, "c04ffac393eef2e6893346710b82ba00331059aad4518bf5f3a5d7d5c5f926ef"},
		{"Overload", 0.10, "9fb14cc7b59c873cadd3b5bca0961fe4e0b9eeae19cc71be1ea19c59c372cb33"},
	}
	for _, g := range golden {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			cfg := pmm.BaselineConfig()
			cfg.Seed = 42
			cfg.Duration = 600
			cfg.Classes[0].ArrivalRate = g.rate
			cfg.Policy = pmm.PolicyConfig{Kind: pmm.PolicyPMM}
			res, tr, err := pmm.RunTraced(cfg, pmm.TraceWindow{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Missed == 0 {
				t.Fatal("the run aborted no query: it no longer exercises interrupts")
			}
			c := tr.Shards[0]
			cancels := 0
			for _, e := range c.Kernel() {
				if e.Kind == trace.KindCancel {
					cancels++
				}
			}
			if cancels == 0 {
				t.Fatal("the trace holds no cancel records")
			}
			if got := collectorDigest(t, c); got != g.digest {
				t.Errorf("trace stream digest = %s, want %s", got, g.digest)
			}
		})
	}
}

// collectorDigest hashes every record of c, kind by kind, in
// encoding/binary's fixed-size little-endian layout, after the record
// counts.
func collectorDigest(t *testing.T, c *trace.Collector) string {
	t.Helper()
	h := sha256.New()
	k, g, sp, in, sa := c.Counts()
	for _, v := range []any{
		[]int64{int64(k), int64(g), int64(sp), int64(in), int64(sa)},
		c.Kernel(), c.Gates(), c.Spans(), c.Instants(), c.Samples(),
	} {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
