package exp

import (
	"fmt"

	"pmm"
)

// baselinePolicies are the four algorithms Figure 3 compares.
func baselinePolicies() []pmm.PolicyConfig {
	return []pmm.PolicyConfig{
		{Kind: pmm.PolicyMax},
		{Kind: pmm.PolicyMinMax},
		{Kind: pmm.PolicyProportional},
		{Kind: pmm.PolicyPMM},
	}
}

// baselineRates is the Figure 3 arrival-rate axis.
func (o Options) baselineRates() []float64 {
	if o.Quick {
		return []float64{0.04, 0.06, 0.08}
	}
	return []float64{0.04, 0.05, 0.06, 0.07, 0.08}
}

// Baseline reproduces the §5.1 experiment: Figures 3 (miss ratio),
// 4 (disk utilization), 5 (observed MPL), 7 (memory fluctuations) and
// Table 7 (timings), all over the same sweep of arrival rates and the
// four algorithms.
func Baseline(o Options) ([]*Report, error) {
	rates := o.baselineRates()
	pols := baselinePolicies()
	base := pmm.BaselineConfig()
	base.Duration = o.horizon(36000)
	// The figure's headline comparison — adaptive PMM against the best
	// static algorithm — also drives adaptive stopping: the pair stops
	// when its gap CI resolves.
	pair := &pmm.PairedTarget{Axis: "policy", A: "PMM", B: "MinMax"}
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

	fig3 := metricReport("fig3", "Miss Ratio % (Baseline)",
		func(p *pmm.PointResult) string { return cellPct(p.Agg.MissRatio) })
	fig3.Notes = append(fig3.Notes, "paper: MinMax lowest, PMM close behind, Proportional then Max degrade fastest")
	// The paper's central comparison — the adaptive algorithm against the
	// best static one — rendered as an explicit paired-difference column.
	deltaColumn(fig3, "PMM−MinMax", rates, func(rate float64) (*pmm.PointResult, *pmm.PointResult) {
		return get(rate, pmm.PolicyConfig{Kind: pmm.PolicyPMM}),
			get(rate, pmm.PolicyConfig{Kind: pmm.PolicyMinMax})
	})
	fig4 := metricReport("fig4", "Avg Disk Utilization % (Baseline)",
		func(p *pmm.PointResult) string { return cellPct(p.Agg.AvgDiskUtil) })
	fig4.Notes = append(fig4.Notes, "paper: Max stays flat (~15%), others rise toward ~45%")
	fig5 := metricReport("fig5", "Observed MPL (Baseline)",
		func(p *pmm.PointResult) string { return cellF2(p.Agg.AvgMPL) })
	fig5.Notes = append(fig5.Notes, "paper: Max < 2; MinMax and Proportional grow with load")
	fig7 := metricReport("fig7", "Memory Fluctuations per Query (Baseline)",
		func(p *pmm.PointResult) string { return cellF2(p.Agg.AvgFluctuations) })
	fig7.Notes = append(fig7.Notes, "paper: Proportional by far the most; Max near zero")

	table7 := &Report{
		ID:    "table7",
		Title: "Average Timings, seconds (Baseline)",
		Header: append([]string{"algorithm", "metric"}, func() []string {
			var h []string
			for _, rate := range rates {
				h = append(h, fmt.Sprintf("%.2f", rate))
			}
			return h
		}()...),
	}
	for _, pol := range pols {
		name := policyLabel(pol)
		rows := [][]string{
			{name, "waiting"}, {name, "execution"}, {name, "total"},
		}
		for _, rate := range rates {
			p := get(rate, pol)
			rows[0] = append(rows[0], cellF1(p.Agg.AvgWait))
			rows[1] = append(rows[1], cellF1(p.Agg.AvgExec))
			rows[2] = append(rows[2], cellF1(p.Agg.AvgResponse))
		}
		table7.Rows = append(table7.Rows, rows...)
	}
	table7.Notes = append(table7.Notes,
		"averages over completed queries; paper: Max wait-dominated, MinMax/Proportional zero wait")

	reports := []*Report{fig3, fig4, fig5, table7, fig7}
	o.annotate(reports, points)
	return reports, nil
}

// PMMTraceBaseline reproduces Figure 6: PMM's target-MPL trace over the
// first ten hours of the baseline at λ = 0.075. The trace is rendered
// from replicate 0 (the run at the base seed).
func PMMTraceBaseline(o Options) ([]*Report, error) {
	base := pmm.BaselineConfig()
	base.Duration = o.horizon(36000)
	base.Classes[0].ArrivalRate = 0.075
	base.Policy = pmm.PolicyConfig{Kind: pmm.PolicyPMM}
	points, err := o.sweep(base)
	if err != nil {
		return nil, err
	}
	res := points[0].First()
	rep := &Report{
		ID:     "fig6",
		Title:  "PMM Target MPL Trace (Baseline, λ=0.075)",
		Header: []string{"time s", "mode", "target MPL", "realized MPL", "batch miss %", "util %", "curve"},
	}
	for _, pt := range res.PMMTrace {
		target := fmt.Sprintf("%d", pt.Target)
		if pt.Target == 0 {
			target = "∞"
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%.0f", pt.Time), pt.Mode.String(), target,
			f2(pt.Realized), pct(pt.MissRatio), pct(pt.Util), pt.Curve,
		})
	}
	rep.Notes = append(rep.Notes,
		"paper: starts in Max, switches to MinMax with an RU-suggested target, then the projection settles the target within a few batches")
	o.annotate([]*Report{rep}, points)
	return []*Report{rep}, nil
}
