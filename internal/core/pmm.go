// Package core implements the paper's contribution: the Priority Memory
// Management (PMM) algorithm (§3) for scheduling queries in firm
// real-time database systems.
//
// PMM has two components. Admission control picks a target
// multiprogramming level (MPL) by fitting a concave quadratic
// missRatio = f(MPL) to past observations (miss ratio projection,
// §3.1.1), falling back on a resource-utilization heuristic (§3.1.2)
// when the projection fails or lacks data. Memory allocation runs in one
// of two strategies — Max (each query gets its full workspace or
// nothing) or MinMax (urgent queries get their maximum, the rest their
// minimum) — switching between them from feedback about missed
// deadlines, resource utilization, admission waits, and slack (§3.2).
// Workload changes are detected with large-sample tests on the mean
// memory demand, operand-read I/O count, and normalized time constraint
// of completed queries (§3.3); a change discards all statistics and
// restarts adaptation.
//
// PMM requires no advance knowledge of the workload: everything is
// derived from the running sums of past batches, exactly the quantities
// the paper's Table 1 parameters govern.
package core

import (
	"math"

	"pmm/internal/policy"
	"pmm/internal/query"
	"pmm/internal/stats"
)

// Mode is PMM's current memory-allocation strategy.
type Mode int

const (
	// ModeMax grants every admitted query its maximum demand (§3.2).
	ModeMax Mode = iota
	// ModeMinMax caps the MPL at the target and runs the two-pass
	// min/max allocation (§3.2).
	ModeMinMax
)

// String names the mode as the paper does.
func (m Mode) String() string {
	if m == ModeMax {
		return "Max"
	}
	return "MinMax"
}

// Config carries the PMM parameters of the paper's Table 1.
type Config struct {
	// SampleSize is the re-evaluation frequency in query completions.
	SampleSize int
	// UtilLow and UtilHigh bound the "desirable" utilization range of
	// the most heavily loaded resource.
	UtilLow, UtilHigh float64
	// AdaptConf is the confidence level of the statistical tests gating
	// the Max→MinMax switch.
	AdaptConf float64
	// ChangeConf is the confidence level of the workload-change tests.
	ChangeConf float64
	// MaxTarget caps the MPL target against degenerate utilization
	// readings; memory admission bounds the effective MPL anyway.
	MaxTarget int
}

// DefaultConfig returns the paper's Table 1 defaults.
func DefaultConfig() Config {
	return Config{
		SampleSize: 30,
		UtilLow:    0.70,
		UtilHigh:   0.85,
		AdaptConf:  0.95,
		ChangeConf: 0.99,
		MaxTarget:  500,
	}
}

// WithDefaults fills zero fields with the Table 1 defaults. It is the
// normalization PMM itself applies on construction, exported so the
// result store can canonicalize configurations before hashing.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.SampleSize <= 0 {
		c.SampleSize = d.SampleSize
	}
	if c.UtilLow <= 0 {
		c.UtilLow = d.UtilLow
	}
	if c.UtilHigh <= 0 {
		c.UtilHigh = d.UtilHigh
	}
	if c.AdaptConf <= 0 {
		c.AdaptConf = d.AdaptConf
	}
	if c.ChangeConf <= 0 {
		c.ChangeConf = d.ChangeConf
	}
	if c.MaxTarget <= 0 {
		c.MaxTarget = d.MaxTarget
	}
	return c
}

// Probe is PMM's window onto the running system: utilization of the
// bottleneck resource and the realized MPL since the last batch, plus
// the simulation clock for traces.
type Probe interface {
	// Now returns the current time.
	Now() float64
	// MaxResourceUtil returns the highest utilization among the CPU and
	// every disk over the current measurement window.
	MaxResourceUtil() float64
	// AvgMPL returns the time-averaged observed MPL over the window.
	AvgMPL() float64
	// ResetWindow starts a new measurement window.
	ResetWindow()
}

// TracePoint records PMM's state after one batch, for the Figure 6 and
// Figure 15 traces.
type TracePoint struct {
	Time      float64
	Mode      Mode
	Target    int     // target MPL (0 in Max mode: unlimited)
	Realized  float64 // observed MPL over the batch
	MissRatio float64 // batch miss ratio
	Util      float64 // bottleneck utilization over the batch
	Curve     string  // projection curve type driving the decision
	Restart   bool    // true when a workload change reset PMM here
}

// PMM is the adaptive controller. It implements policy.Allocator and is
// driven by OnTermination callbacks from the admission controller.
type PMM struct {
	cfg   Config
	probe Probe

	mode   Mode
	target int // MPL target while in MinMax mode

	quad     stats.QuadSums   // (mpl, missRatio) per batch
	utilLine stats.LinearSums // (mpl, bottleneck util) per batch

	// Per-batch accumulators.
	nBatch, nMissed int
	waitW           stats.Welford // admission waiting time per query
	slackW          stats.Welford // time constraint − execution time (completed)

	// Workload-characteristic monitors: current and previous batch.
	curMem, curIOs, curNTC    stats.Welford
	prevMem, prevIOs, prevNTC stats.Welford
	havePrev                  bool

	// Realized MPL while in Max mode, for the MinMax→Max reversion test.
	maxModeMPL stats.Welford

	trace    []TracePoint
	restarts int
}

// New returns a PMM controller reading system state through probe.
func New(cfg Config, probe Probe) *PMM {
	return &PMM{cfg: cfg.WithDefaults(), probe: probe, mode: ModeMax}
}

// Name implements policy.Allocator.
func (p *PMM) Name() string { return "PMM" }

// Mode returns the current allocation strategy.
func (p *PMM) Mode() Mode { return p.mode }

// Target returns the current MPL target (0 = unlimited, Max mode).
func (p *PMM) Target() int {
	if p.mode == ModeMax {
		return 0
	}
	return p.target
}

// Trace returns the per-batch decision trace.
func (p *PMM) Trace() []TracePoint { return p.trace }

// Restarts returns how many workload changes reset the controller.
func (p *PMM) Restarts() int { return p.restarts }

// Allocate dispatches to the active strategy.
func (p *PMM) Allocate(present []*query.Query, total int, grants []int) {
	if p.mode == ModeMax {
		policy.Max{}.Allocate(present, total, grants)
		return
	}
	policy.MinMaxN{N: p.target}.Allocate(present, total, grants)
}

// OnTermination feeds one finished (completed or missed) query into the
// current batch and re-evaluates PMM every SampleSize terminations.
func (p *PMM) OnTermination(q *query.Query, completed bool) {
	p.nBatch++
	if !completed {
		p.nMissed++
	}
	wait := q.FinishTime - q.Arrival
	if q.Admitted {
		wait = q.AdmitTime - q.Arrival
	}
	p.waitW.Add(wait)
	if completed {
		p.slackW.Add(q.TimeConstraint() - (q.FinishTime - q.AdmitTime))
	}
	p.curMem.Add(float64(q.MaxMem))
	p.curIOs.Add(float64(q.ReadIOs))
	if q.ReadIOs > 0 {
		p.curNTC.Add(q.TimeConstraint() / float64(q.ReadIOs))
	}
	if p.nBatch >= p.cfg.SampleSize {
		p.endBatch()
	}
}

// endBatch runs the §3 decision procedure at a batch boundary.
func (p *PMM) endBatch() {
	missRatio := float64(p.nMissed) / float64(p.nBatch)
	mpl := p.probe.AvgMPL()
	util := p.probe.MaxResourceUtil()
	pt := TracePoint{
		Time: p.probe.Now(), Realized: mpl, MissRatio: missRatio, Util: util,
	}

	if p.workloadChanged() {
		p.restart()
		pt.Restart = true
	} else {
		mplX := math.Max(1, math.Round(mpl))
		p.quad.Add(mplX, missRatio)
		p.utilLine.Add(mplX, util)
		if p.mode == ModeMax {
			p.maxModeMPL.Add(mpl)
			if p.shouldSwitchToMinMax(util) {
				p.mode = ModeMinMax
				p.target = p.ruTarget(mplX)
				pt.Curve = "RU"
			}
		} else {
			target, curve := p.projectTarget(mplX)
			p.target = target
			pt.Curve = curve
			// Reversion test: a target at or below what Max realized on
			// its own means MinMax buys no extra concurrency.
			if p.maxModeMPL.N() > 0 && float64(p.target) <= p.maxModeMPL.Mean() {
				p.mode = ModeMax
			}
		}
		p.shiftMonitors()
	}

	pt.Mode = p.mode
	pt.Target = p.Target()
	p.trace = append(p.trace, pt)

	p.nBatch, p.nMissed = 0, 0
	p.waitW.Reset()
	p.slackW.Reset()
	p.probe.ResetWindow()
}

// workloadChanged runs the §3.3 two-sample tests at ChangeConf on the
// three monitored characteristics against the previous batch.
func (p *PMM) workloadChanged() bool {
	if !p.havePrev {
		return false
	}
	return stats.MeansDiffer(&p.curMem, &p.prevMem, p.cfg.ChangeConf) ||
		stats.MeansDiffer(&p.curIOs, &p.prevIOs, p.cfg.ChangeConf) ||
		stats.MeansDiffer(&p.curNTC, &p.prevNTC, p.cfg.ChangeConf)
}

// shiftMonitors makes the current batch the baseline for the next test.
func (p *PMM) shiftMonitors() {
	p.prevMem, p.prevIOs, p.prevNTC = p.curMem, p.curIOs, p.curNTC
	p.havePrev = true
	p.curMem.Reset()
	p.curIOs.Reset()
	p.curNTC.Reset()
}

// restart discards all statistics after a workload change (§3.3) and
// re-adapts from the initial Max strategy.
func (p *PMM) restart() {
	p.restarts++
	p.mode = ModeMax
	p.target = 0
	p.quad.Reset()
	p.utilLine.Reset()
	p.maxModeMPL.Reset()
	p.shiftMonitors()
}

// shouldSwitchToMinMax checks the four §3.2 conditions: missed deadlines,
// all resources under UtilLow, statistically non-zero admission waits
// (memory contention), and statistically positive slack so longer
// MinMax executions remain feasible.
func (p *PMM) shouldSwitchToMinMax(util float64) bool {
	return p.nMissed > 0 &&
		util < p.cfg.UtilLow &&
		stats.MeanGreaterThanZero(&p.waitW, p.cfg.AdaptConf) &&
		stats.MeanGreaterThanZero(&p.slackW, p.cfg.AdaptConf)
}

// projectTarget runs the §3.1.1 miss-ratio projection: fit the quadratic
// and act on its shape, deferring to the RU heuristic when the fit fails.
func (p *PMM) projectTarget(mpl float64) (target int, curve string) {
	a, b, _, ok := p.quad.Fit()
	if !ok {
		return p.ruTarget(mpl), "RU"
	}
	lo, hi := p.quad.XRange()
	shape, vertex := stats.ClassifyQuad(a, b, lo, hi)
	switch shape {
	case stats.CurveBowl:
		// Type 1: adopt the minimum of the fitted curve.
		return p.clampTarget(int(math.Round(vertex))), shape.String()
	case stats.CurveDecreasing:
		// Type 2: probe one above the largest tried MPL, unless the RU
		// heuristic suggests going even higher.
		t := int(math.Round(hi)) + 1
		if ru := p.ruTarget(mpl); ru > t {
			t = ru
		}
		return p.clampTarget(t), shape.String()
	case stats.CurveIncreasing:
		// Type 3: probe one below the smallest tried MPL, or lower if
		// the RU heuristic says so.
		t := int(math.Round(lo)) - 1
		if ru := p.ruTarget(mpl); ru < t {
			t = ru
		}
		return p.clampTarget(t), shape.String()
	default:
		// Type 4 (hill) or a flat fit: projection failed.
		return p.ruTarget(mpl), "RU(" + shape.String() + ")"
	}
}

// ruTarget applies the §3.1.2 resource-utilization heuristic at the
// given current MPL, reading the average utilization at that MPL off the
// fitted utilization line (falling back to the latest reading).
func (p *PMM) ruTarget(mpl float64) int {
	util, ok := p.utilLine.At(mpl)
	if !ok || util <= 0 {
		util = p.probe.MaxResourceUtil()
	}
	const utilFloor = 0.01
	if util < utilFloor {
		util = utilFloor
	}
	t := (p.cfg.UtilLow + p.cfg.UtilHigh) / (2 * util) * mpl
	return p.clampTarget(int(math.Round(t)))
}

// clampTarget keeps MPL targets in [1, MaxTarget].
func (p *PMM) clampTarget(t int) int {
	if t < 1 {
		return 1
	}
	if t > p.cfg.MaxTarget {
		return p.cfg.MaxTarget
	}
	return t
}
