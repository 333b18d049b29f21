// Package workload implements the paper's workload model (§4.1) and
// scales it to production-sized client populations. Query classes (hash
// joins or external sorts over relation groups) arrive as Poisson
// streams with firm deadlines assigned as
//
//	Deadline = StandAlone · SlackRatio + Arrival
//
// where StandAlone is the query's execution time alone in the system
// with its maximum memory allocation and SlackRatio is uniform over the
// class's slack range. StandAlone is computed analytically from the same
// cost model the simulator executes, so deadlines are exactly as tight
// relative to query size as in the paper.
//
// Beyond the paper's fixed-rate classes, a class may describe a whole
// client population: ClassSpec.Population counts N homogeneous clients,
// each an independent Poisson source at ArrivalRate, which collapse by
// Poisson superposition into one aggregated source at rate N·λ — a
// count, not a set of timers, so 10⁶ simulated clients cost one kernel
// timer per class. Time-varying rates (diurnal sinusoids, MMPP-style
// burst phases; see Modulation) are drawn exactly by Lewis–Shedler
// thinning against a piecewise-constant rate envelope, keeping event
// cost proportional to admitted arrivals at any population size. See
// ArrivalSource.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"pmm/internal/catalog"
	"pmm/internal/cpu"
	"pmm/internal/disk"
	"pmm/internal/extsort"
	"pmm/internal/join"
	"pmm/internal/query"
	"pmm/internal/sim"
)

// ClassSpec describes one workload class (paper Table 2), optionally
// scaled to a whole client population with a time-varying rate.
type ClassSpec struct {
	// Name labels the class in reports (e.g. "Medium", "Small").
	Name string
	// Kind selects hash joins or external sorts.
	Kind query.Type
	// RelGroups lists the operand relation group(s): one group for
	// sorts; two for joins (the smaller pick becomes the inner relation).
	RelGroups []int
	// ArrivalRate is the per-client Poisson rate λ in queries/second.
	ArrivalRate float64
	// SlackRange is the uniform range of slack ratios.
	SlackRange [2]float64
	// Population is the number of homogeneous clients in the class; by
	// Poisson superposition they aggregate to one source at
	// Population·ArrivalRate. 0 and 1 both mean a single classic source
	// at ArrivalRate and are canonically identical.
	Population int
	// Modulation optionally varies the aggregate rate over time; the
	// zero value keeps the rate fixed.
	Modulation Modulation
}

// ModKind selects how a class's aggregate arrival rate varies over time.
type ModKind int

const (
	// ModNone is a fixed (homogeneous Poisson) rate.
	ModNone ModKind = iota
	// ModDiurnal is a sinusoidal rate
	//
	//	rate(t) = base · (1 + Amplitude·sin(2π(t−Phase)/Period))
	//
	// sampled exactly by thinning against a piecewise-constant envelope.
	ModDiurnal
	// ModBursty is a two-phase MMPP: the source alternates between a
	// normal phase at the base rate and a burst phase at
	// base·BurstFactor, with exponentially distributed phase sojourns.
	ModBursty
)

// String returns the canonical-serialization name of the kind.
func (k ModKind) String() string {
	switch k {
	case ModNone:
		return "none"
	case ModDiurnal:
		return "diurnal"
	case ModBursty:
		return "bursty"
	default:
		return fmt.Sprintf("modkind(%d)", int(k))
	}
}

// Modulation shapes a class's time-varying aggregate arrival rate.
// Fields of the unselected kind are ignored (and canonicalized away).
type Modulation struct {
	Kind ModKind

	// Diurnal parameters.
	Period    float64 // sinusoid period in seconds (> 0)
	Amplitude float64 // relative swing, in [0, 1) so the rate stays > 0
	Phase     float64 // time offset of the sinusoid in seconds

	// Bursty (MMPP-2) parameters.
	BurstFactor float64 // burst-phase rate multiplier (> 0)
	MeanNormal  float64 // mean normal-phase sojourn in seconds (> 0)
	MeanBurst   float64 // mean burst-phase sojourn in seconds (> 0)
}

// validate rejects malformed modulation parameters at build time.
func (m Modulation) validate(class string) error {
	switch m.Kind {
	case ModNone:
		return nil
	case ModDiurnal:
		if m.Period <= 0 {
			return fmt.Errorf("workload: class %q diurnal modulation needs Period > 0, got %g", class, m.Period)
		}
		if m.Amplitude < 0 || m.Amplitude >= 1 {
			return fmt.Errorf("workload: class %q diurnal amplitude %g outside [0, 1)", class, m.Amplitude)
		}
		return nil
	case ModBursty:
		if m.BurstFactor <= 0 {
			return fmt.Errorf("workload: class %q bursty modulation needs BurstFactor > 0, got %g", class, m.BurstFactor)
		}
		if m.MeanNormal <= 0 || m.MeanBurst <= 0 {
			return fmt.Errorf("workload: class %q bursty sojourns must be > 0, got normal %g burst %g",
				class, m.MeanNormal, m.MeanBurst)
		}
		return nil
	default:
		return fmt.Errorf("workload: class %q has unknown modulation kind %d", class, int(m.Kind))
	}
}

// Batched reports whether the class needs the aggregated arrival-source
// path: a population above one, or any rate modulation. Simple classes
// keep the classic single-timer Poisson source.
func (c ClassSpec) Batched() bool {
	return c.Population > 1 || c.Modulation.Kind != ModNone
}

// CanonicalSpec maps equivalent specs to one spelling: Population 0 and
// 1 are the same single-client source, and parameters of an unselected
// modulation kind are stray state — both are zeroed so configurations
// that simulate identically hash identically.
func (c ClassSpec) CanonicalSpec() ClassSpec {
	if c.Population <= 1 {
		c.Population = 0
	}
	m := Modulation{Kind: c.Modulation.Kind}
	switch c.Modulation.Kind {
	case ModDiurnal:
		m.Period = c.Modulation.Period
		m.Amplitude = c.Modulation.Amplitude
		m.Phase = c.Modulation.Phase
	case ModBursty:
		m.BurstFactor = c.Modulation.BurstFactor
		m.MeanNormal = c.Modulation.MeanNormal
		m.MeanBurst = c.Modulation.MeanBurst
	}
	c.Modulation = m
	return c
}

// Params holds workload-wide constants.
type Params struct {
	// FudgeFactor is the hash-table space overhead F (paper: 1.1,
	// derived from the §5.1 memory-demand figures).
	FudgeFactor float64
	// TuplesPerPage is PageSize/TupleSize (8 KB pages, 200 B tuples: 40).
	TuplesPerPage int
	// BlockSize is the sequential-I/O prefetch unit in pages.
	BlockSize int
}

// DefaultParams returns the defaults used across the paper's experiments.
func DefaultParams() Params {
	return Params{FudgeFactor: 1.1, TuplesPerPage: 40, BlockSize: 6}
}

// Generator produces queries for a set of classes.
type Generator struct {
	classes []ClassSpec
	cat     *catalog.Catalog
	dp      disk.Params
	mips    float64
	params  Params

	arr    []*rand.Rand // inter-arrival stream per class
	rel    []*rand.Rand // relation-choice stream per class
	slack  []*rand.Rand // slack-ratio stream per class
	thin   []*rand.Rand // thinning-acceptance stream per class (modulated sources)
	phase  []*rand.Rand // burst-phase sojourn stream per class (MMPP sources)
	nextID int64
}

// ShardSeed derives the master seed for one cell (shard) of a
// partitioned multi-tenant run. Each cell builds its full stream family
// (arrival, relation, slack, disk rotation) from its own master seed, so
// cells are statistically independent of each other and of every other
// stream family for any cell count — the same splitmix64 decorrelation
// argument the per-class streams rely on. The stream tag space ("CELL"
// in the high word plus the shard index) is disjoint from the in-system
// tags (100/200/300+class, 1000+disk) and the sweep runner's replicate
// tag, so a cell seed never collides with a sibling stream.
func ShardSeed(master int64, shard int) int64 {
	return sim.SplitSeed(master, 0x43454C4C<<32|uint64(shard))
}

// NewGenerator builds a generator with independent deterministic streams
// per class derived from seed.
func NewGenerator(cat *catalog.Catalog, dp disk.Params, mips float64,
	params Params, classes []ClassSpec, seed int64) (*Generator, error) {
	g := &Generator{classes: classes, cat: cat, dp: dp, mips: mips, params: params}
	for ci, cl := range classes {
		want := 1
		if cl.Kind == query.HashJoin {
			want = 2
		}
		if len(cl.RelGroups) != want {
			return nil, fmt.Errorf("workload: class %q (%v) needs %d relation groups, got %d",
				cl.Name, cl.Kind, want, len(cl.RelGroups))
		}
		for _, gi := range cl.RelGroups {
			if gi < 0 || gi >= cat.NumGroups() {
				return nil, fmt.Errorf("workload: class %q references group %d of %d",
					cl.Name, gi, cat.NumGroups())
			}
		}
		// Negated comparisons so that NaN fails them too.
		if !(cl.ArrivalRate >= 0) || math.IsInf(cl.ArrivalRate, 0) {
			return nil, fmt.Errorf("workload: class %q ArrivalRate %g is not a finite non-negative rate",
				cl.Name, cl.ArrivalRate)
		}
		if !(cl.SlackRange[0] >= 0) || !(cl.SlackRange[1] >= 0) {
			return nil, fmt.Errorf("workload: class %q SlackRange %v holds a negative or NaN slack ratio",
				cl.Name, cl.SlackRange)
		}
		if cl.Population < 0 {
			return nil, fmt.Errorf("workload: class %q has negative population %d",
				cl.Name, cl.Population)
		}
		if err := cl.Modulation.validate(cl.Name); err != nil {
			return nil, err
		}
		if cl.Batched() && cl.ArrivalRate <= 0 {
			return nil, fmt.Errorf("workload: class %q is population/modulated but has no base arrival rate",
				cl.Name)
		}
		// The thinning and phase streams exist for every class but are
		// only ever drawn by batched/modulated sources, so adding them
		// leaves the classic streams — and every fixed-rate run —
		// bit-identical.
		g.arr = append(g.arr, sim.NewRand(seed, uint64(100+ci)))
		g.rel = append(g.rel, sim.NewRand(seed, uint64(200+ci)))
		g.slack = append(g.slack, sim.NewRand(seed, uint64(300+ci)))
		g.thin = append(g.thin, sim.NewRand(seed, uint64(400+ci)))
		g.phase = append(g.phase, sim.NewRand(seed, uint64(500+ci)))
	}
	return g, nil
}

// Classes returns the class specifications.
func (g *Generator) Classes() []ClassSpec { return g.classes }

// InterArrival draws the next inter-arrival gap for a class at the given
// rate (queries/second). The rate is passed explicitly because phased
// experiments vary it over time. A non-positive rate is a caller bug —
// config validation rejects it at build time, and silently returning a
// +Inf gap would park the source forever — so it panics.
func (g *Generator) InterArrival(class int, rate float64) float64 {
	if rate <= 0 {
		panic(fmt.Sprintf("workload: class %d inter-arrival draw at non-positive rate %g",
			class, rate))
	}
	return sim.Exp(g.arr[class], 1/rate)
}

// NewQuery creates the next query of a class arriving at time now.
func (g *Generator) NewQuery(class int, now float64) *query.Query {
	cl := g.classes[class]
	g.nextID++
	q := &query.Query{
		ID:        g.nextID,
		Class:     class,
		ClassName: cl.Name,
		Kind:      cl.Kind,
		Arrival:   now,
	}
	switch cl.Kind {
	case query.HashJoin:
		a := g.cat.Pick(g.rel[class], cl.RelGroups[0])
		b := g.cat.Pick(g.rel[class], cl.RelGroups[1])
		// The smaller relation builds; the larger probes.
		if b.Pages < a.Pages {
			a, b = b, a
		}
		q.R, q.S = a, b
		q.MinMem, q.MaxMem = join.MemoryNeeds(a.Pages, g.params.FudgeFactor)
		q.ReadIOs = blocks(a.Pages, g.params.BlockSize) + blocks(b.Pages, g.params.BlockSize)
		q.StandAlone = g.JoinStandAlone(a.Pages, b.Pages)
	case query.ExternalSort:
		r := g.cat.Pick(g.rel[class], cl.RelGroups[0])
		q.R = r
		q.MinMem, q.MaxMem = extsort.MemoryNeeds(r.Pages)
		q.ReadIOs = blocks(r.Pages, g.params.BlockSize)
		q.StandAlone = g.SortStandAlone(r.Pages)
	}
	q.SlackRatio = sim.Uniform(g.slack[class], cl.SlackRange[0], cl.SlackRange[1])
	q.Deadline = q.StandAlone*q.SlackRatio + q.Arrival
	return q
}

// blocks returns the number of block I/Os to read n pages.
func blocks(pages, blockSize int) int {
	return (pages + blockSize - 1) / blockSize
}

// scanTime is the expected time to sequentially scan nBlocks blocks of
// one extent on an otherwise idle disk: the first block pays seek and
// rotational delay, after which the prefetch cache streams the rest at
// transfer rate.
func (g *Generator) scanTime(nBlocks int) float64 {
	if nBlocks <= 0 {
		return 0
	}
	first := g.dp.SeekTime(1) + g.dp.RotationTime/2
	return first + float64(nBlocks)*g.dp.TransferTime(g.params.BlockSize)
}

// cpuSec converts instructions to seconds at the configured MIPS rating.
func (g *Generator) cpuSec(instr float64) float64 { return instr / (g.mips * 1e6) }

// JoinStandAlone returns the stand-alone execution time of a hash join
// with maximum memory: read both relations once and process every tuple,
// with no spooling.
func (g *Generator) JoinStandAlone(rPages, sPages int) float64 {
	bs, tpp := g.params.BlockSize, g.params.TuplesPerPage
	nbR, nbS := blocks(rPages, bs), blocks(sPages, bs)
	io := g.scanTime(nbR) + g.scanTime(nbS)
	instr := cpu.CostInitQuery + cpu.CostTermQuery +
		float64(nbR+nbS)*cpu.CostStartIO +
		float64(rPages*tpp)*cpu.CostHashBuild +
		float64(sPages*tpp)*(cpu.CostHashProbe+cpu.CostHashCopy)
	return io + g.cpuSec(instr)
}

// SortStandAlone returns the stand-alone execution time of an external
// sort with maximum memory: a one-pass in-memory sort.
func (g *Generator) SortStandAlone(rPages int) float64 {
	bs, tpp := g.params.BlockSize, g.params.TuplesPerPage
	nBlocks := blocks(rPages, bs)
	io := g.scanTime(nBlocks)
	tuples := float64(rPages * tpp)
	compares := cpu.CostCompare * math.Ceil(math.Log2(math.Max(float64(rPages*tpp), 2)))
	instr := cpu.CostInitQuery + cpu.CostTermQuery +
		float64(nBlocks)*cpu.CostStartIO +
		tuples*(cpu.CostSortCopy+compares) + // run formation
		tuples*cpu.CostSortCopy // output
	return io + g.cpuSec(instr)
}
