// Package rtdbs assembles the complete firm real-time database system
// simulator of §4 — Source, Query Manager, Buffer Manager, CPU Manager
// and Disk Manager — around a pluggable memory-allocation policy, and
// collects the metrics the paper's experiments report: miss ratios
// (overall, per class, and over time), resource utilizations, observed
// MPL, admission/execution/response times, and memory-fluctuation
// counts.
package rtdbs

import (
	"fmt"
	"math"

	"pmm/internal/catalog"
	"pmm/internal/core"
	"pmm/internal/disk"
	"pmm/internal/workload"
)

// PolicyKind selects the memory-allocation algorithm (paper Table 5).
type PolicyKind int

const (
	// PolicyMax is the static Max algorithm.
	PolicyMax PolicyKind = iota
	// PolicyMinMax is MinMax-N (MPLLimit 0 = plain MinMax).
	PolicyMinMax
	// PolicyProportional is Proportional-N (MPLLimit 0 = Proportional).
	PolicyProportional
	// PolicyPMM is the adaptive Priority Memory Management algorithm.
	PolicyPMM
	// PolicyFairPMM is PMM augmented with the class-fairness mechanism
	// the paper's §5.6 proposes (administrator-specified relative class
	// miss ratios).
	PolicyFairPMM
)

// PolicyConfig selects and parameterizes the allocation policy.
type PolicyConfig struct {
	Kind PolicyKind
	// MPLLimit is N for MinMax-N / Proportional-N; 0 means unlimited.
	MPLLimit int
	// PMM holds the PMM parameters; zero fields take Table 1 defaults.
	PMM core.Config
	// Fairness parameterizes PolicyFairPMM.
	Fairness core.FairnessConfig
}

// Phase is one segment of a phased (time-varying) workload: for Duration
// seconds, class i arrives at Rates[i] queries/second (0 disables it).
// Phases cycle when the simulation outlives their total span.
type Phase struct {
	Duration float64
	Rates    []float64
}

// Config fully describes one simulation run.
type Config struct {
	// Seed drives every random stream; equal configs replay identically.
	Seed int64
	// Duration is the simulated time horizon in seconds.
	Duration float64

	// CPUMips is the processor speed (Table 3 default: 40).
	CPUMips float64
	// Disk is the disk-farm configuration.
	Disk disk.Params
	// MemoryPages is the buffer pool size M (Table 3 default: 2560).
	MemoryPages int

	// FudgeFactor is the hash-table overhead F (default 1.1).
	FudgeFactor float64
	// TuplesPerPage is the tuple density (default 40: 8 KB / 200 B).
	TuplesPerPage int

	// Groups defines the database (§4.1).
	Groups []catalog.GroupSpec
	// Classes defines the workload; ArrivalRate is the base rate used
	// when Phases is nil.
	Classes []workload.ClassSpec
	// Phases optionally varies class arrival rates over time.
	Phases []Phase

	// Policy selects the memory-allocation algorithm.
	Policy PolicyConfig

	// PaceFactor > 0 enables deadline-driven pacing of queries stuck at
	// their minimum allocation (ablation knob; see query.Env.PaceFactor).
	PaceFactor float64

	// AdmitQueue > 0 bounds the admission queue: an arrival finding that
	// many queries already waiting for their first memory grant is
	// rejected at the door (counted per class, no query state built)
	// instead of queueing unboundedly. 0 keeps the paper's open
	// admission, where every arrival waits until its deadline. This is
	// the open-system overload valve: with it, arrival rate may exceed
	// service capacity indefinitely at bounded kernel state, trading
	// deadline misses for explicit load shedding.
	AdmitQueue int

	// Tenants > 1 replicates the configured topology into that many
	// independent cells — each with its own CPU, disk farm, buffer pool,
	// workload sources (independent splitmix64 seed streams), and
	// admission controller — coupled only through a global memory broker
	// that rebalances the combined budget Tenants×MemoryPages across
	// cells at epoch boundaries. 0 or 1 selects the classic
	// single-tenant system. Tenants changes simulated semantics and is
	// part of the canonical configuration.
	Tenants int
	// SyncInterval is the broker epoch length in seconds for multi-
	// tenant runs: cells exchange demand reports and receive new budgets
	// every SyncInterval of simulated time. It is also the conservative
	// lookahead of the partitioned execution path — cells cannot
	// interact between epochs, so shards may run one full epoch apart.
	// Defaults to 1.0 when Tenants > 1; ignored (canonicalized to 0)
	// otherwise.
	SyncInterval float64
	// SyncStretch > 1 enables adaptive broker lookahead for multi-tenant
	// runs: when no cell changed its demand class (memory-constrained or
	// not) since the previous exchange, the effective barrier interval
	// doubles, up to SyncStretch × SyncInterval, and snaps back to one
	// interval as soon as any cell's class flips. Widening the barrier
	// changes when the broker looks — so it is part of the canonical
	// configuration — but results stay bit-identical across Shards
	// values, exactly as with a fixed interval. 0 or 1 keeps the fixed
	// barrier.
	SyncStretch int
	// Shards is the number of worker threads that advance cells
	// concurrently in a multi-tenant run. It is purely an execution
	// knob: results are bit-for-bit identical for every value, so it is
	// canonicalized to 0 and excluded from result-store keys. 0 or 1
	// runs the partitions sequentially; values above Tenants are
	// clamped.
	Shards int
}

// withDefaults fills unset fields with the paper's defaults.
func (c Config) withDefaults() Config {
	if c.Duration <= 0 {
		c.Duration = 36000 // 10 simulated hours
	}
	if c.CPUMips <= 0 {
		c.CPUMips = 40
	}
	d := disk.DefaultParams()
	if c.Disk.NumDisks <= 0 {
		c.Disk.NumDisks = d.NumDisks
	}
	if c.Disk.SeekFactorMS <= 0 {
		c.Disk.SeekFactorMS = d.SeekFactorMS
	}
	if c.Disk.RotationTime <= 0 {
		c.Disk.RotationTime = d.RotationTime
	}
	if c.Disk.NumCylinders <= 0 {
		c.Disk.NumCylinders = d.NumCylinders
	}
	if c.Disk.CylinderSize <= 0 {
		c.Disk.CylinderSize = d.CylinderSize
	}
	if c.Disk.PagesPerTrack <= 0 {
		c.Disk.PagesPerTrack = d.PagesPerTrack
	}
	if c.Disk.BlockSize <= 0 {
		c.Disk.BlockSize = d.BlockSize
	}
	if c.MemoryPages <= 0 {
		c.MemoryPages = 2560
	}
	if c.FudgeFactor <= 0 {
		c.FudgeFactor = 1.1
	}
	if c.TuplesPerPage <= 0 {
		c.TuplesPerPage = 40
	}
	if c.Tenants > 1 && c.SyncInterval <= 0 {
		c.SyncInterval = 1.0
	}
	return c
}

// validate rejects impossible configurations early. It runs after
// withDefaults, so an unset Duration is already the default here. Float
// checks are written as negated comparisons so that NaN fails them.
func (c Config) validate() error {
	if !(c.Duration > 0) || math.IsInf(c.Duration, 0) {
		return fmt.Errorf("rtdbs: Duration %g is not a finite positive time", c.Duration)
	}
	if len(c.Groups) == 0 {
		return fmt.Errorf("rtdbs: no relation groups")
	}
	for i, g := range c.Groups {
		if g.RelPerDisk < 0 {
			return fmt.Errorf("rtdbs: group %d has negative RelPerDisk %d", i, g.RelPerDisk)
		}
		if g.RelPerDisk > 0 && (g.SizeRange[0] < 1 || g.SizeRange[1] < 1) {
			return fmt.Errorf("rtdbs: group %d SizeRange %v holds a non-positive relation size",
				i, g.SizeRange)
		}
	}
	if len(c.Classes) == 0 {
		return fmt.Errorf("rtdbs: no workload classes")
	}
	for pi, ph := range c.Phases {
		if len(ph.Rates) != len(c.Classes) {
			return fmt.Errorf("rtdbs: Phases[%d] has %d rates for %d classes",
				pi, len(ph.Rates), len(c.Classes))
		}
		if !(ph.Duration > 0) || math.IsInf(ph.Duration, 0) {
			return fmt.Errorf("rtdbs: Phases[%d] duration %g is not a finite positive time",
				pi, ph.Duration)
		}
		for i, rate := range ph.Rates {
			if !(rate >= 0) || math.IsInf(rate, 0) {
				return fmt.Errorf("rtdbs: Phases[%d] rate %g for class %d is not a finite non-negative rate",
					pi, rate, i)
			}
		}
	}
	if c.Policy.MPLLimit < 0 {
		return fmt.Errorf("rtdbs: negative MPL limit %d", c.Policy.MPLLimit)
	}
	if c.Tenants < 0 {
		return fmt.Errorf("rtdbs: negative tenant count %d", c.Tenants)
	}
	if c.Shards < 0 {
		return fmt.Errorf("rtdbs: negative shard count %d", c.Shards)
	}
	if c.SyncInterval < 0 {
		return fmt.Errorf("rtdbs: negative sync interval %g", c.SyncInterval)
	}
	if c.SyncStretch < 0 {
		return fmt.Errorf("rtdbs: negative sync stretch %d", c.SyncStretch)
	}
	if c.AdmitQueue < 0 {
		return fmt.Errorf("rtdbs: negative admission-queue bound %d", c.AdmitQueue)
	}
	for i, cl := range c.Classes {
		// Zero-rate simple classes are legal (a disabled class, e.g. a
		// sweep axis at 0); negative rates and rate-less batched classes
		// are rejected by NewGenerator at build time.
		if cl.Batched() && len(c.Phases) > 0 {
			return fmt.Errorf("rtdbs: class %d (%q) combines population/modulation with phased rates; pick one",
				i, cl.Name)
		}
	}
	return nil
}

// SimEpoch versions the simulation semantics for content-addressed
// result caching: two runs of the same canonical Config at the same
// SimEpoch are guaranteed bit-for-bit identical, so their results are
// interchangeable. Bump this string whenever ANY change lands that can
// alter simulation output for some configuration — kernel scheduling,
// cost models, policy logic, RNG streams, metrics definitions. The
// golden event-order digests in golden_test.go catch accidental
// behavior changes; an intentional one must update both the digests and
// this epoch, which invalidates every previously stored result.
const SimEpoch = "e5-disk-partitioned"

// Canonical returns the configuration in canonical form: every
// defaulted field made explicit (exactly as New applies them) and every
// field the selected policy ignores zeroed. Two Configs that would
// produce identical simulations — one spelling defaults out, the other
// leaving them zero; one carrying stray parameters of an unselected
// policy — canonicalize to the same value, which is what makes
// content-addressed result caching sound.
func (c Config) Canonical() Config {
	c = c.withDefaults()
	pol := PolicyConfig{Kind: c.Policy.Kind}
	switch c.Policy.Kind {
	case PolicyMinMax, PolicyProportional:
		pol.MPLLimit = c.Policy.MPLLimit
	case PolicyPMM:
		pol.PMM = c.Policy.PMM.WithDefaults()
	case PolicyFairPMM:
		pol.PMM = c.Policy.PMM.WithDefaults()
		pol.Fairness = c.Policy.Fairness.WithDefaults()
		// Weights are consulted per class with zero/missing entries
		// defaulting to 1; normalize to exactly one explicit weight per
		// class so {nil}, {0,0} and {1,1} all canonicalize identically.
		w := make([]float64, len(c.Classes))
		for i := range w {
			w[i] = 1
			if i < len(c.Policy.Fairness.Weights) && c.Policy.Fairness.Weights[i] > 0 {
				w[i] = c.Policy.Fairness.Weights[i]
			}
		}
		pol.Fairness.Weights = w
	}
	c.Policy = pol
	// Population ≤ 1 and stray parameters of an unselected modulation
	// kind simulate identically to their zeroed spelling; normalize the
	// classes (on a copy — Canonical must not mutate the caller's slice).
	cls := append([]workload.ClassSpec(nil), c.Classes...)
	for i := range cls {
		cls[i] = cls[i].CanonicalSpec()
	}
	c.Classes = cls
	// Shards is a pure execution knob — every value produces the same
	// results — so it never participates in content addressing. A
	// single-tenant run ignores SyncInterval and SyncStretch entirely,
	// and stretch 1 is the fixed barrier.
	c.Shards = 0
	if c.SyncStretch <= 1 {
		c.SyncStretch = 0
	}
	if c.Tenants <= 1 {
		c.Tenants = 0
		c.SyncInterval = 0
		c.SyncStretch = 0
	}
	return c
}

// PolicyName returns the display name of the configured policy.
func (c Config) PolicyName() string {
	switch c.Policy.Kind {
	case PolicyMax:
		return "Max"
	case PolicyMinMax:
		if c.Policy.MPLLimit > 0 {
			return fmt.Sprintf("MinMax-%d", c.Policy.MPLLimit)
		}
		return "MinMax"
	case PolicyProportional:
		if c.Policy.MPLLimit > 0 {
			return fmt.Sprintf("Proportional-%d", c.Policy.MPLLimit)
		}
		return "Proportional"
	case PolicyFairPMM:
		return "FairPMM"
	default:
		return "PMM"
	}
}
