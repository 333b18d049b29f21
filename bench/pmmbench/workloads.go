package main

import (
	"fmt"

	"pmm"
)

// workload is one grid the benchmark runs. The benchmark owns these
// grids instead of calling the experiment drivers, so edits to the
// paper reproduction cannot silently change what is measured.
//
// A run measures passes. A pass is pmm.Sweep over a single grid point
// with spec.Reps replicates on spec.Workers workers, which is one round
// of the sweep's closed loop; or, for a grid workload, pmm.Sweep over the
// whole grid. A cycle is every pass once, in grid order, and every cycle
// repeats the same inputs. Passes are kept well under a second so the
// median of a pass's repeats filters the sub-second slowdowns of a
// shared host.
type workload struct {
	name string
	why  string
	// spec declares the grid as a user would; Cache is attached per pass.
	spec pmm.SweepSpec
	// warm serves every replicate from a store an untimed prep cycle
	// filled, so a pass runs no simulation.
	warm bool
	// grid makes one pass sweep the whole grid, for workloads whose
	// single points would be too quick to time.
	grid bool
	// repeat is how many sweeps one pass times (default 1), so that a
	// pass lasts well beyond a calibration pass.
	repeat int
}

// Sweep workers per run. The tenants workload runs one replicate at a
// time and spends its parallelism on shards inside the run instead.
const (
	workers      = 2
	tenantShards = 2
)

// basePolicies are the four algorithms of the paper's Figure 3.
var basePolicies = []pmm.PolicyConfig{
	{Kind: pmm.PolicyMax},
	{Kind: pmm.PolicyMinMax},
	{Kind: pmm.PolicyProportional},
	{Kind: pmm.PolicyPMM},
}

var pairPolicies = []pmm.PolicyConfig{
	{Kind: pmm.PolicyMinMax},
	{Kind: pmm.PolicyPMM},
}

func gLabel(x float64) string { return fmt.Sprintf("%g", x) }

func policyAxis(pols []pmm.PolicyConfig) pmm.Axis {
	return pmm.SweepAxis("policy", pols,
		func(p pmm.PolicyConfig) string { return (pmm.Config{Policy: p}).PolicyName() },
		func(c *pmm.Config, p pmm.PolicyConfig) { c.Policy = p })
}

func rateAxis(rates []float64) pmm.Axis {
	return pmm.SweepAxis("rate", rates, gLabel,
		func(c *pmm.Config, r float64) { c.Classes[0].ArrivalRate = r })
}

// workloads returns the five workloads. A positive horizon replaces
// every simulated horizon; only the smoke test sets it.
func workloads(horizon float64) []workload {
	h := func(full float64) float64 {
		if horizon > 0 {
			return horizon
		}
		return full
	}

	fig3 := pmm.BaselineConfig()
	fig3.Duration = h(6000)
	fig3Spec := pmm.SweepSpec{
		Base:    fig3,
		Axes:    []pmm.Axis{rateAxis([]float64{0.04, 0.06, 0.08}), policyAxis(basePolicies)},
		Reps:    workers,
		Workers: workers,
	}

	sorts := pmm.ExternalSortConfig()
	sorts.Duration = h(18000)

	// One diurnal period of the overload preset.
	over := pmm.OverloadConfig(100_000)
	over.Duration = h(7200)
	perClient := over.Classes[0].ArrivalRate
	loadAxis := pmm.SweepAxis("load", []float64{1.0, 1.4}, gLabel,
		func(c *pmm.Config, m float64) { c.Classes[0].ArrivalRate = perClient * m })

	tenants := pmm.MultiTenantConfig(4)
	tenants.Duration = h(3600)
	tenants.Classes[0].ArrivalRate = 0.06
	tenants.Shards = tenantShards

	return []workload{
		{
			name: "fig3-cold",
			why:  "the paper's Figure 3 grid swept into a fresh result store; few large joins, so kernel, join, disk and buffer do the work",
			spec: fig3Spec,
		},
		{
			name:   "fig3-warm",
			why:    "the same Figure 3 replicates served from a filled result store; no simulation, only store reads and runner aggregation",
			spec:   fig3Spec,
			warm:   true,
			grid:   true,
			repeat: 10,
		},
		{
			name: "sort-sweep",
			why:  "external sorts of section 5.5 replace joins and allocate far more per replicate, so allocation and GC show",
			spec: pmm.SweepSpec{
				Base:    sorts,
				Axes:    []pmm.Axis{rateAxis([]float64{0.08, 0.12}), policyAxis(basePolicies)},
				Reps:    workers,
				Workers: workers,
			},
		},
		{
			name: "overload-small",
			why:  "100000 diurnal clients of small joins behind a 16-slot admission queue; per-query costs and rejections dominate",
			spec: pmm.SweepSpec{
				Base:    over,
				Axes:    []pmm.Axis{loadAxis, policyAxis(pairPolicies)},
				Reps:    workers,
				Workers: workers,
			},
		},
		{
			name: "tenants-sharded",
			why:  "four broker-coupled baseline cells on two shards; the only workload with parallelism inside one run",
			spec: pmm.SweepSpec{
				Base:    tenants,
				Axes:    []pmm.Axis{policyAxis(pairPolicies)},
				Reps:    1,
				Workers: 1,
			},
		},
	}
}

// findWorkload returns the named workload, or an error listing the names.
func findWorkload(name string, horizon float64) (workload, error) {
	all := workloads(horizon)
	names := make([]string, len(all))
	for i, w := range all {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// cloneConfig copies the slices an axis may mutate, so points never
// alias one another.
func cloneConfig(c pmm.Config) pmm.Config {
	c.Groups = append([]pmm.GroupSpec(nil), c.Groups...)
	c.Classes = append([]pmm.ClassSpec(nil), c.Classes...)
	for i := range c.Classes {
		c.Classes[i].RelGroups = append([]int(nil), c.Classes[i].RelGroups...)
	}
	c.Phases = append([]pmm.Phase(nil), c.Phases...)
	return c
}

// passes returns the sweeps of one cycle at the given seed, in grid
// order.
func (w workload) passes(seed int64) []pmm.SweepSpec {
	if w.grid {
		s := w.spec
		s.Base.Seed = seed
		return []pmm.SweepSpec{s}
	}
	var out []pmm.SweepSpec
	for _, cfg := range points(w.spec) {
		cfg.Seed = seed
		out = append(out, pmm.SweepSpec{Base: cfg, Reps: w.spec.Reps, Workers: w.spec.Workers})
	}
	return out
}

// points expands the spec's axes in row-major order, as pmm.Sweep does.
func points(spec pmm.SweepSpec) []pmm.Config {
	cfgs := []pmm.Config{cloneConfig(spec.Base)}
	for _, ax := range spec.Axes {
		next := make([]pmm.Config, 0, len(cfgs)*len(ax.Values))
		for _, c := range cfgs {
			for _, v := range ax.Values {
				cc := cloneConfig(c)
				v.Apply(&cc)
				next = append(next, cc)
			}
		}
		cfgs = next
	}
	return cfgs
}

// simHours is the simulated time one replicate of cfg delivers, counting
// every tenant cell.
func simHours(cfg pmm.Config) float64 {
	return cfg.Duration * float64(max(cfg.Tenants, 1)) / 3600
}

// pages is the simulated page I/O of a replicate: operand reads plus
// temporary writes and reads. Host time follows it closely across seeds
// (kernel events per page vary by well under 1%), so the end-to-end
// times are given per simulated page.
func pages(res *pmm.Results) float64 {
	io := res.IOBreakdown
	return float64(io.RelRead + io.SpoolWrite + io.SpoolRead)
}
