// Package runner is the replicated-sweep engine behind the repo's
// experiments: it expands a base configuration across declarative axes
// into a grid of simulation points, runs every (point, replicate) pair
// on a bounded worker pool with deterministic per-replicate seeds, and
// aggregates each point's replicates into mean ± confidence-interval
// summaries. The paper's evaluation (§5) is exactly such a grid —
// policies × arrival rates × resources — and every experiment driver is
// a thin declaration on top of this package.
//
// Determinism: the result of Run depends only on the Spec (base config,
// axes, replication count), never on Workers or goroutine scheduling.
// Each simulation is single-threaded and internally deterministic; the
// engine assigns seeds from the point's base seed and the replicate
// index alone and writes results into pre-indexed slots.
package runner

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"pmm/internal/catalog"
	"pmm/internal/resultstore"
	"pmm/internal/rtdbs"
	"pmm/internal/sim"
	"pmm/internal/workload"
)

// Value is one setting of an axis: a display label plus the mutation it
// applies to a configuration. Apply receives a private deep copy of the
// config, so mutations never leak across points.
type Value struct {
	Label string
	Apply func(*rtdbs.Config)
}

// Axis is one swept dimension, e.g. "rate" over five arrival rates or
// "policy" over the Table 5 algorithms.
type Axis struct {
	Name   string
	Values []Value
}

// AxisOf builds an axis from a slice of typed values, a label function,
// and a setter applied to each point's config.
func AxisOf[T any](name string, values []T, label func(T) string, apply func(*rtdbs.Config, T)) Axis {
	ax := Axis{Name: name}
	for _, v := range values {
		v := v
		ax.Values = append(ax.Values, Value{
			Label: label(v),
			Apply: func(c *rtdbs.Config) { apply(c, v) },
		})
	}
	return ax
}

// Spec declares a sweep: a base configuration, the axes whose cross
// product forms the grid, and how many replicates to run per point.
type Spec struct {
	// Base is the starting configuration of every point. Replicate 0
	// of a point runs at the point's config seed (Base.Seed unless an
	// axis overrides it); further replicates derive deterministically
	// from it via ReplicateSeed.
	Base rtdbs.Config
	// Axes are applied in order; the grid is their cross product in
	// row-major order (the first axis varies slowest). No axes means a
	// single point.
	Axes []Axis
	// Reps is the number of replicates per point (default 1).
	// Replicate r of a point runs at ReplicateSeed(point seed, r); as
	// long as no axis touches Seed, replicates share seeds across
	// points — common random numbers, which sharpens cross-point
	// comparisons.
	Reps int
	// Workers bounds simultaneous simulations (default GOMAXPROCS).
	// It affects wall-clock time only, never results. The simulations
	// in flight share GOMAXPROCS: each one's Config.Shards is capped at
	// GOMAXPROCS divided by min(Workers, jobs in the round).
	Workers int
	// Confidence is the level of the aggregate intervals, strictly
	// between 0 and 1 (0 means 0.95; Run rejects any other value
	// outside that range).
	Confidence float64
	// Stop, when non-nil, replaces the fixed Reps with adaptive
	// replication: replicates run in rounds until every point (or point
	// pair) meets the rule's precision target or MaxReps. Reps then
	// serves as the first round's size when set. See StopRule.
	Stop *StopRule
	// Cache, when non-nil, is consulted before every (point, replicate)
	// simulation and filled after: a hit substitutes the stored result
	// for the run. Content addressing (canonical config + seed + sim
	// epoch) guarantees hits are bit-identical to re-simulation, so
	// results — and adaptive stopping decisions — are unchanged by the
	// cache's state.
	Cache *resultstore.Store
	// Progress, when non-nil, receives live per-job telemetry: one
	// streamed line per completed (point, replicate) with an ETA, and
	// an accumulated SweepTrace (Progress.Trace). Pure observability —
	// results are identical with or without it.
	Progress *Progress

	// simulate runs one configured simulation, allocating from the
	// worker's arena (reset between jobs); tests inject synthetic
	// dynamics here. nil means the real simulator.
	simulate func(rtdbs.Config, *sim.Arena) (*rtdbs.Results, error)
}

// withDefaults fills unset knobs.
func (s Spec) withDefaults() Spec {
	if s.Reps <= 0 {
		s.Reps = 1
	}
	if s.Workers <= 0 {
		s.Workers = runtime.GOMAXPROCS(0)
	}
	if s.Confidence == 0 {
		s.Confidence = 0.95
	}
	if s.simulate == nil {
		// Simulate dispatches on cfg.Tenants: single-tenant runs build
		// on the worker's arena; partitioned multi-tenant runs own
		// per-cell arenas and ignore it.
		s.simulate = rtdbs.Simulate
	}
	return s
}

// Point is one node of the sweep grid.
type Point struct {
	// Index is the point's position in row-major grid order.
	Index int
	// Key joins the axis labels ("0.06/PMM") for display.
	Key string
	// Labels maps axis name → value label, for lookup via Find.
	Labels map[string]string
	// Config is the fully mutated configuration (replicate 0's seed).
	Config rtdbs.Config
}

// PointResult pairs a point with its replicate runs and their aggregate.
type PointResult struct {
	Point Point
	// Reps holds the replicate results in replicate order; Reps[0] ran
	// at the point's base seed. Under a StopRule its length is the
	// replicate count the controller actually spent on this point.
	Reps []*rtdbs.Results
	// Agg summarizes the replicates (mean ± CI per metric).
	Agg Summary
	// CacheHits and CacheMisses count how many of this point's
	// replicates were served from Spec.Cache versus simulated (both
	// zero when no cache was configured).
	CacheHits, CacheMisses int
}

// First returns the replicate-0 results — the run whose seed equals the
// base seed, used for per-run detail (traces, event series).
func (p *PointResult) First() *rtdbs.Results { return p.Reps[0] }

// replicateStream tags replicate-seed derivation so the engine's seed
// stream cannot collide with the simulator's own child streams.
const replicateStream = 0x52455053 // "REPS"

// ReplicateSeed derives the seed of replicate rep from a base seed.
// Replicate 0 uses the base seed unchanged, so a 1-replicate sweep
// reproduces a plain Run of the same configuration bit for bit.
func ReplicateSeed(base int64, rep int) int64 {
	if rep == 0 {
		return base
	}
	return sim.SplitSeed(base, replicateStream+uint64(rep))
}

// cloneConfig deep-copies the slice-valued parts of a configuration so
// axis mutations on one point cannot alias another.
func cloneConfig(c rtdbs.Config) rtdbs.Config {
	c.Groups = append([]catalog.GroupSpec(nil), c.Groups...)
	c.Classes = append([]workload.ClassSpec(nil), c.Classes...)
	for i := range c.Classes {
		c.Classes[i].RelGroups = append([]int(nil), c.Classes[i].RelGroups...)
	}
	c.Phases = append([]rtdbs.Phase(nil), c.Phases...)
	for i := range c.Phases {
		c.Phases[i].Rates = append([]float64(nil), c.Phases[i].Rates...)
	}
	c.Policy.Fairness.Weights = append([]float64(nil), c.Policy.Fairness.Weights...)
	return c
}

// expand materializes the cross product of the axes.
func (s Spec) expand() []Point {
	points := []Point{{Labels: map[string]string{}, Config: cloneConfig(s.Base)}}
	for _, ax := range s.Axes {
		next := make([]Point, 0, len(points)*len(ax.Values))
		for _, pt := range points {
			for _, v := range ax.Values {
				cfg := cloneConfig(pt.Config)
				v.Apply(&cfg)
				labels := make(map[string]string, len(pt.Labels)+1)
				for k, lv := range pt.Labels {
					labels[k] = lv
				}
				labels[ax.Name] = v.Label
				key := v.Label
				if pt.Key != "" {
					key = pt.Key + "/" + v.Label
				}
				next = append(next, Point{Key: key, Labels: labels, Config: cfg})
			}
		}
		points = next
	}
	for i := range points {
		points[i].Index = i
	}
	return points
}

// Run executes the sweep: every point × replicate on a bounded worker
// pool, then per-point aggregation. The returned slice is in row-major
// grid order and is identical for any Workers value. With Spec.Stop
// set, replication per point is decided by the adaptive controller
// instead of the fixed Reps; with Spec.Cache set, replicates present in
// the store are served from it instead of being simulated. Neither
// changes the results a given (point, replicate) contributes.
func Run(s Spec) ([]PointResult, error) {
	if c := s.Confidence; c != 0 && !(c > 0 && c < 1) {
		return nil, fmt.Errorf("runner: Confidence must lie strictly between 0 and 1 (0 = 0.95), got %g", c)
	}
	s = s.withDefaults()
	points := s.expand()
	results := make([]PointResult, len(points))
	for i := range results {
		results[i] = PointResult{Point: points[i]}
	}

	if s.Stop != nil {
		if err := runAdaptive(s, results); err != nil {
			return nil, err
		}
	} else {
		jobs := make([]job, 0, len(points)*s.Reps)
		for pi := range points {
			for r := 0; r < s.Reps; r++ {
				jobs = append(jobs, job{pi, r})
			}
		}
		if err := runJobs(s, results, jobs); err != nil {
			return nil, err
		}
	}

	for i := range results {
		results[i].Agg = Summarize(results[i].Reps, s.Confidence)
	}
	return results, nil
}

// takeArena is where a worker gets its arena: sim's pool. Tests wrap
// it to count the arenas a sweep takes.
var takeArena = sim.TakeArena

// job identifies one (point, replicate) simulation.
type job struct{ point, rep int }

// runJobs executes the given jobs on a bounded worker pool, writing
// each result into results[j.point].Reps[j.rep] (slices are grown as
// needed before any worker starts, so every job owns its slot without
// locking). Cache lookups and fills happen here, with per-point hit and
// miss counts folded in single-threaded after the pool drains.
func runJobs(s Spec, results []PointResult, jobs []job) error {
	for _, j := range jobs {
		for len(results[j.point].Reps) <= j.rep {
			results[j.point].Reps = append(results[j.point].Reps, nil)
		}
	}
	hits := make([]bool, len(jobs))
	s.Progress.beginRound(len(jobs))
	// A sharded simulation advances its cells on up to Shards
	// goroutines, which spin for each other at every broker barrier.
	// Simulations running side by side would spin against each other
	// for the same Ps, so each in-flight job gets its share of them.
	// Shards never changes results or result-store keys.
	shards := max(1, runtime.GOMAXPROCS(0)/max(1, min(s.Workers, len(jobs))))

	ch := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for w := 0; w < s.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One arena per worker, taken from sim's pool at the
			// worker's first cache miss and given back when it exits:
			// each replicate's kernel starts warm on the slabs and queue
			// backings an earlier one grew, in this sweep, an earlier
			// round or an earlier sweep. A worker whose jobs the store
			// serves takes none. Arenas are never shared across workers,
			// so the sweep needs no locking around them.
			var arena *sim.Arena
			defer func() {
				if arena != nil {
					sim.PutArena(arena)
				}
			}()
			for ji := range ch {
				j := jobs[ji]
				cfg := cloneConfig(results[j.point].Point.Config)
				// Seeds derive from the point's own config, so an axis
				// may sweep Seed itself; points that leave it alone
				// share replicate seeds (common random numbers).
				cfg.Seed = ReplicateSeed(cfg.Seed, j.rep)
				cfg.Shards = min(cfg.Shards, shards)
				var key resultstore.Key
				if s.Cache != nil {
					key = resultstore.KeyFor(cfg)
					if res, ok := s.Cache.Get(key); ok {
						results[j.point].Reps[j.rep] = res
						hits[ji] = true
						s.Progress.jobDone(results[j.point].Point.Key, j.rep, true, 0)
						continue
					}
				}
				if arena == nil {
					arena = takeArena()
				}
				t0 := time.Now()
				res, err := s.simulate(cfg, arena)
				// Results hold no arena memory (they are rebuilt values),
				// so the arena recycles immediately — including after an
				// error, which may have left a half-built kernel in it.
				arena.Reset()
				if err != nil {
					fail(fmt.Errorf("runner: point %s rep %d: %w",
						results[j.point].Point.Key, j.rep, err))
					continue
				}
				if s.Cache != nil {
					// A store write failure (full disk, permissions)
					// must not discard a successful simulation: the
					// store degrades to pass-through and counts the
					// failure in its stats, mirroring how corrupt
					// entries degrade to misses on the read side.
					_ = s.Cache.Put(key, res)
				}
				results[j.point].Reps[j.rep] = res
				s.Progress.jobDone(results[j.point].Point.Key, j.rep, false, time.Since(t0))
			}
		}()
	}
	for ji := range jobs {
		ch <- ji
	}
	close(ch)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if s.Cache != nil {
		for ji, hit := range hits {
			if hit {
				results[jobs[ji].point].CacheHits++
			} else {
				results[jobs[ji].point].CacheMisses++
			}
		}
	}
	return nil
}

// RunMany executes reps replicates of a single configuration (a sweep
// with no axes) and returns the per-replicate results in order.
func RunMany(cfg rtdbs.Config, reps, workers int) ([]*rtdbs.Results, error) {
	points, err := Run(Spec{Base: cfg, Reps: reps, Workers: workers})
	if err != nil {
		return nil, err
	}
	return points[0].Reps, nil
}

// Find returns the first point whose labels match every name, label
// pair, or nil when none does.
func Find(points []PointResult, pairs ...string) *PointResult {
	if len(pairs)%2 != 0 {
		panic("runner: Find requires name, label pairs")
	}
	for i := range points {
		ok := true
		for j := 0; j < len(pairs); j += 2 {
			if points[i].Point.Labels[pairs[j]] != pairs[j+1] {
				ok = false
				break
			}
		}
		if ok {
			return &points[i]
		}
	}
	return nil
}

// Keys lists the point keys in grid order (handy in error messages).
func Keys(points []PointResult) string {
	keys := make([]string, len(points))
	for i := range points {
		keys[i] = points[i].Point.Key
	}
	return strings.Join(keys, ", ")
}
