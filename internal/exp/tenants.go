package exp

import (
	"fmt"

	"pmm"
)

// tenantsEnabled reports whether o asks for the multi-tenant report,
// which needs at least two cells.
func tenantsEnabled(o Options) bool { return o.Tenants > 1 }

// MultiTenant is the partitioned-execution demonstration (not a paper
// figure): Options.Tenants broker-coupled cells of the §5.1 baseline,
// compared across allocation policies. The runs execute on the sharded
// path with Options.Shards worker threads; results are independent of
// the shard count, so cached points warmed at any -shards value hit.
func MultiTenant(o Options) ([]*Report, error) {
	if !tenantsEnabled(o) {
		return nil, nil
	}
	base := pmm.MultiTenantConfig(o.Tenants)
	base.Shards = o.Shards
	base.Duration = o.horizon(7200)
	pols := []pmm.PolicyConfig{
		{Kind: pmm.PolicyMinMax},
		{Kind: pmm.PolicyPMM},
	}
	points, err := o.sweep(base, policyAxis(pols))
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "tenants",
		Title: fmt.Sprintf("Multi-Tenant Cells (%d×baseline, broker every %gs)", o.Tenants, base.SyncInterval),
		Header: []string{"policy", "terminated", "miss %", "avg MPL (all cells)",
			"cpu util %", "avg disk util %"},
	}
	for _, pol := range pols {
		p := pmm.FindPoint(points, "policy", policyLabel(pol))
		rep.Rows = append(rep.Rows, []string{
			policyLabel(pol),
			cellCount(p.Agg.Terminated),
			cellPct(p.Agg.MissRatio),
			cellF2(p.Agg.AvgMPL),
			cellPct(p.Agg.CPUUtil),
			cellPct(p.Agg.AvgDiskUtil),
		})
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("partitioned run: %d cells, %d shard worker(s); aggregates are bit-identical for every shard count", o.Tenants, o.Shards))
	reports := []*Report{rep}
	o.annotate(reports, points)
	return reports, nil
}
