package exp

import (
	"fmt"

	"pmm"
)

// contentionPolicies are the algorithms of Figures 8–10: the baseline
// three plus the best static MinMax-N the paper identifies (N = 10).
func contentionPolicies() []pmm.PolicyConfig {
	return []pmm.PolicyConfig{
		{Kind: pmm.PolicyMax},
		{Kind: pmm.PolicyMinMax},
		{Kind: pmm.PolicyPMM},
		{Kind: pmm.PolicyMinMax, MPLLimit: 10},
	}
}

// DiskContention reproduces §5.2 (six disks): Figures 8 (miss ratio),
// 9 (disk utilization) and 10 (observed MPL).
func DiskContention(o Options) ([]*Report, error) {
	rates := o.baselineRates()
	pols := contentionPolicies()
	base := pmm.DiskContentionConfig()
	base.Duration = o.horizon(36000)
	pair := &pmm.PairedTarget{Axis: "policy", A: "PMM", B: "MinMax-10"}
	points, err := o.sweepPaired(base, pair, rateAxis(rates), policyAxis(pols))
	if err != nil {
		return nil, err
	}
	get := func(rate float64, pol pmm.PolicyConfig) *pmm.PointResult {
		return pmm.FindPoint(points, "rate", gLabel(rate), "policy", policyLabel(pol))
	}
	header := []string{"arrival rate"}
	for _, pol := range pols {
		header = append(header, policyLabel(pol))
	}
	metricReport := func(id, title string, metric func(*pmm.PointResult) string) *Report {
		rep := &Report{ID: id, Title: title, Header: header}
		for _, rate := range rates {
			row := []string{fmt.Sprintf("%.2f", rate)}
			for _, pol := range pols {
				row = append(row, metric(get(rate, pol)))
			}
			rep.Rows = append(rep.Rows, row)
		}
		return rep
	}
	fig8 := metricReport("fig8", "Miss Ratio % (Disk Contention, 6 disks)",
		func(p *pmm.PointResult) string { return cellPct(p.Agg.MissRatio) })
	fig8.Notes = append(fig8.Notes, "paper: unrestrained MinMax thrashes; PMM tracks MinMax-10 within ~2%")
	// "PMM tracks MinMax-10 within ~2%" as a measured paired gap.
	deltaColumn(fig8, "PMM−MinMax-10", rates, func(rate float64) (*pmm.PointResult, *pmm.PointResult) {
		return get(rate, pmm.PolicyConfig{Kind: pmm.PolicyPMM}),
			get(rate, pmm.PolicyConfig{Kind: pmm.PolicyMinMax, MPLLimit: 10})
	})
	fig9 := metricReport("fig9", "Avg Disk Utilization % (Disk Contention)",
		func(p *pmm.PointResult) string { return cellPct(p.Agg.AvgDiskUtil) })
	fig9.Notes = append(fig9.Notes, "paper: MinMax exceeds 70% under heavy load; Max stays flat")
	fig10 := metricReport("fig10", "Observed MPL (Disk Contention)",
		func(p *pmm.PointResult) string { return cellF2(p.Agg.AvgMPL) })
	fig10.Notes = append(fig10.Notes, "paper: PMM's MPL stays close to MinMax-10's")
	reports := []*Report{fig8, fig9, fig10}
	o.annotate(reports, points)
	return reports, nil
}

// MinMaxNSweep reproduces Figure 11: the miss ratio of MinMax-N as a
// function of N at λ = 0.07 on the 6-disk configuration, covering the
// spectrum from Max-like (small N) to unrestrained MinMax (large N),
// plus Max and PMM reference points at the same operating point — all
// one policy axis of a single sweep.
func MinMaxNSweep(o Options) ([]*Report, error) {
	ns := []int{1, 2, 3, 5, 8, 10, 15, 20}
	if o.Quick {
		ns = []int{1, 3, 5, 10, 20}
	}
	var pols []pmm.PolicyConfig
	for _, n := range ns {
		pols = append(pols, pmm.PolicyConfig{Kind: pmm.PolicyMinMax, MPLLimit: n})
	}
	pols = append(pols, pmm.PolicyConfig{Kind: pmm.PolicyMax}, pmm.PolicyConfig{Kind: pmm.PolicyPMM})

	base := pmm.DiskContentionConfig()
	base.Duration = o.horizon(36000)
	base.Classes[0].ArrivalRate = 0.07
	points, err := o.sweep(base, policyAxis(pols))
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "fig11",
		Title:  "MinMax-N Miss Ratio % vs N (6 disks, λ=0.07)",
		Header: []string{"N", "miss %", "MPL", "disk util %"},
	}
	row := func(label string, p *pmm.PointResult) []string {
		return []string{label, cellPct(p.Agg.MissRatio), cellF2(p.Agg.AvgMPL), cellPct(p.Agg.AvgDiskUtil)}
	}
	for _, n := range ns {
		p := pmm.FindPoint(points, "policy", fmt.Sprintf("MinMax-%d", n))
		rep.Rows = append(rep.Rows, row(fmt.Sprintf("%d", n), p))
	}
	for _, name := range []string{"Max", "PMM"} {
		rep.Rows = append(rep.Rows, row(name, pmm.FindPoint(points, "policy", name)))
	}
	rep.Notes = append(rep.Notes,
		"paper: concave in N with the optimum at an interior N (10 on the authors' testbed); PMM lands near the optimum")
	o.annotate([]*Report{rep}, points)
	return []*Report{rep}, nil
}
