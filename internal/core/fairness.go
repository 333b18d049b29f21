package core

import (
	"math"

	"pmm/internal/policy"
	"pmm/internal/query"
)

// FairnessConfig configures the class-fairness extension the paper's
// §5.6 proposes as future work: "a mechanism to allow an RTDBS system
// administrator to specify the desired relative class miss ratios to
// support applications that require fairer real-time query services."
type FairnessConfig struct {
	// Weights holds the desired relative miss ratios per class index:
	// {1, 1} asks for equal miss ratios, {1, 2} tolerates the second
	// class missing twice as often as the first. Zero entries default
	// to 1.
	Weights []float64
	// Gain scales how aggressively priorities are bent per unit of
	// normalized miss-ratio deficit. The boost for a query is at most
	// Gain × its time constraint. Default 0.5.
	Gain float64
	// Window is the exponential decay factor applied to per-class miss
	// statistics at every batch, so the controller tracks the recent
	// past. Default 0.9.
	Window float64
}

// WithDefaults fills zero fields, exported for the same canonicalization
// purpose as Config.WithDefaults.
func (c FairnessConfig) WithDefaults() FairnessConfig {
	if c.Gain <= 0 {
		c.Gain = 0.5
	}
	if c.Window <= 0 || c.Window >= 1 {
		c.Window = 0.9
	}
	return c
}

// classState tracks one class's decayed termination counts.
type classState struct {
	terminated float64
	missed     float64
}

// missRatio returns the class's decayed miss ratio, or 0 with no data.
func (s classState) missRatio() float64 {
	if s.terminated == 0 {
		return 0
	}
	return s.missed / s.terminated
}

// FairPMM wraps PMM with the class-fairness mechanism: queries from
// classes missing more than their administrator-assigned share have
// their Earliest Deadline priority advanced (the allocator treats their
// deadlines as nearer), so admission and memory flow toward the classes
// falling behind. The underlying PMM machinery — MPL adaptation,
// strategy switching, workload-change detection — is unchanged.
type FairPMM struct {
	*PMM
	fcfg    FairnessConfig
	classes []classState

	// Allocate's scratch, reused so a replan allocates nothing once the
	// slices have grown to the largest present set.
	shadows []shadow
	ordered []*query.Query
	grants  []int
}

// shadow is one present query under its boosted priority; idx is its
// position in the controller's ED order.
type shadow struct {
	q    *query.Query
	prio float64
	idx  int
}

// NewFair returns a fairness-augmented PMM for numClasses classes.
func NewFair(cfg Config, fcfg FairnessConfig, numClasses int, probe Probe) *FairPMM {
	return &FairPMM{
		PMM:     New(cfg, probe),
		fcfg:    fcfg.WithDefaults(),
		classes: make([]classState, numClasses),
	}
}

// Name implements policy.Allocator.
func (f *FairPMM) Name() string { return "FairPMM" }

// OnTermination feeds both the base PMM and the per-class tracker.
func (f *FairPMM) OnTermination(q *query.Query, completed bool) {
	if q.Class >= 0 && q.Class < len(f.classes) {
		c := &f.classes[q.Class]
		c.terminated++
		if !completed {
			c.missed++
		}
		// Decay all classes a little on every termination so the view
		// stays recent; the batch-level Window applies per SampleSize.
		if int(c.terminated)%8 == 0 {
			for i := range f.classes {
				f.classes[i].terminated *= f.fcfg.Window
				f.classes[i].missed *= f.fcfg.Window
			}
		}
	}
	f.PMM.OnTermination(q, completed)
}

// weight returns the desired relative miss ratio of a class.
func (f *FairPMM) weight(class int) float64 {
	if class < len(f.fcfg.Weights) && f.fcfg.Weights[class] > 0 {
		return f.fcfg.Weights[class]
	}
	return 1
}

// deficit returns how far a class's normalized miss ratio sits above the
// average of all classes; positive values mean the class is being
// treated unfairly and deserves a boost.
func (f *FairPMM) deficit(class int) float64 {
	if class < 0 || class >= len(f.classes) {
		return 0
	}
	var sum float64
	var n int
	for i := range f.classes {
		if f.classes[i].terminated > 0 {
			sum += f.classes[i].missRatio() / f.weight(i)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	avg := sum / float64(n)
	return f.classes[class].missRatio()/f.weight(class) - avg
}

// Allocate bends each query's ED priority by its class deficit before
// delegating to the active PMM strategy, then restores the order the
// controller saw. The boost advances a lagging class's deadlines by up
// to Gain × the query's own time constraint — enough to win admission
// ties without letting a hopeless query starve an urgent one.
func (f *FairPMM) Allocate(present []*query.Query, total int, grants []int) {
	// Build a shadow ordering with boosted priorities.
	n := len(present)
	if cap(f.shadows) < n {
		f.shadows = make([]shadow, n, 2*n)
		f.ordered = make([]*query.Query, n, 2*n)
		f.grants = make([]int, n, 2*n)
	}
	shadows, ordered, inner := f.shadows[:n], f.ordered[:n], f.grants[:n]
	for i, q := range present {
		boost := f.deficit(q.Class)
		if boost < 0 {
			boost = 0
		}
		prio := q.Deadline - math.Min(boost*f.fcfg.Gain, 1)*q.TimeConstraint()
		shadows[i] = shadow{q: q, prio: prio, idx: i}
	}
	// Insertion sort by boosted priority (stable, small n).
	for i := 1; i < len(shadows); i++ {
		for j := i; j > 0 && shadows[j].prio < shadows[j-1].prio; j-- {
			shadows[j], shadows[j-1] = shadows[j-1], shadows[j]
		}
	}
	for i, s := range shadows {
		ordered[i] = s.q
	}
	f.PMM.Allocate(ordered, total, inner)
	// Map the grants back to the controller's ED order.
	for i, s := range shadows {
		grants[s.idx] = inner[i]
	}
}

// ClassMissRatios returns the decayed per-class miss ratios, for
// inspection and tests.
func (f *FairPMM) ClassMissRatios() []float64 {
	out := make([]float64, len(f.classes))
	for i := range f.classes {
		out[i] = f.classes[i].missRatio()
	}
	return out
}

// FairnessIndex summarizes how balanced the normalized class miss
// ratios are: 1 means perfectly proportional to the weights, lower is
// less fair (Jain's fairness index over normalized ratios). Classes
// with no data are skipped; with fewer than two active classes the
// index is 1.
func FairnessIndex(missRatios, weights []float64) float64 {
	var xs []float64
	for i, m := range missRatios {
		w := 1.0
		if i < len(weights) && weights[i] > 0 {
			w = weights[i]
		}
		if m > 0 {
			xs = append(xs, m/w)
		}
	}
	if len(xs) < 2 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Interface conformance check.
var _ policy.Allocator = (*FairPMM)(nil)
