// Benchmarks regenerating every table and figure of the paper at reduced
// horizon (the full 10-hour-per-run sweeps live in cmd/paperrepro).
// Each benchmark runs the experiment's workload/policy grid once per
// iteration and reports the headline metric of the corresponding figure
// via b.ReportMetric, so `go test -bench=.` both exercises and summarizes
// the reproduction. Ablation benchmarks at the bottom probe the design
// choices DESIGN.md calls out.
package pmm_test

import (
	"fmt"
	"testing"

	"pmm"
)

// benchHorizon is the simulated time per run inside benchmarks.
const benchHorizon = 2400

// runBench executes one configuration and returns the results.
func runBench(b *testing.B, cfg pmm.Config) *pmm.Results {
	b.Helper()
	res, err := pmm.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// missMetric reports a result's miss ratio as a named benchmark metric.
func missMetric(b *testing.B, name string, r *pmm.Results) {
	b.ReportMetric(100*r.MissRatio, name+"_miss%")
}

// baselineAt returns the §5.1 config at one operating point.
func baselineAt(pol pmm.PolicyConfig, rate float64, seed int64) pmm.Config {
	cfg := pmm.BaselineConfig()
	cfg.Seed = seed
	cfg.Duration = benchHorizon
	cfg.Classes[0].ArrivalRate = rate
	cfg.Policy = pol
	return cfg
}

// BenchmarkFig3_MissRatioBaseline regenerates Figure 3's series at one
// loaded operating point: miss ratio per algorithm.
func BenchmarkFig3_MissRatioBaseline(b *testing.B) {
	pols := []pmm.PolicyConfig{
		{Kind: pmm.PolicyMax}, {Kind: pmm.PolicyMinMax},
		{Kind: pmm.PolicyProportional}, {Kind: pmm.PolicyPMM},
	}
	for i := 0; i < b.N; i++ {
		for _, pol := range pols {
			r := runBench(b, baselineAt(pol, 0.06, int64(i+1)))
			if i == 0 {
				missMetric(b, r.Policy, r)
			}
		}
	}
}

// BenchmarkFig4_DiskUtilBaseline regenerates Figure 4: disk utilization.
func BenchmarkFig4_DiskUtilBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		max := runBench(b, baselineAt(pmm.PolicyConfig{Kind: pmm.PolicyMax}, 0.06, int64(i+1)))
		mm := runBench(b, baselineAt(pmm.PolicyConfig{Kind: pmm.PolicyMinMax}, 0.06, int64(i+1)))
		if i == 0 {
			b.ReportMetric(100*max.AvgDiskUtil, "Max_util%")
			b.ReportMetric(100*mm.AvgDiskUtil, "MinMax_util%")
		}
	}
}

// BenchmarkFig5_MPLBaseline regenerates Figure 5: observed MPL.
func BenchmarkFig5_MPLBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		max := runBench(b, baselineAt(pmm.PolicyConfig{Kind: pmm.PolicyMax}, 0.06, int64(i+1)))
		mm := runBench(b, baselineAt(pmm.PolicyConfig{Kind: pmm.PolicyMinMax}, 0.06, int64(i+1)))
		if i == 0 {
			b.ReportMetric(max.AvgMPL, "Max_mpl")
			b.ReportMetric(mm.AvgMPL, "MinMax_mpl")
		}
	}
}

// BenchmarkTable7_Timings regenerates Table 7: waiting/execution/response.
func BenchmarkTable7_Timings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		max := runBench(b, baselineAt(pmm.PolicyConfig{Kind: pmm.PolicyMax}, 0.06, int64(i+1)))
		mm := runBench(b, baselineAt(pmm.PolicyConfig{Kind: pmm.PolicyMinMax}, 0.06, int64(i+1)))
		if i == 0 {
			b.ReportMetric(max.AvgWait, "Max_wait_s")
			b.ReportMetric(max.AvgExec, "Max_exec_s")
			b.ReportMetric(mm.AvgWait, "MinMax_wait_s")
			b.ReportMetric(mm.AvgExec, "MinMax_exec_s")
		}
	}
}

// BenchmarkFig6_PMMTrace regenerates Figure 6: the PMM decision trace.
func BenchmarkFig6_PMMTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runBench(b, baselineAt(pmm.PolicyConfig{Kind: pmm.PolicyPMM}, 0.075, int64(i+1)))
		if i == 0 {
			b.ReportMetric(float64(len(r.PMMTrace)), "trace_points")
			if last := len(r.PMMTrace); last > 0 {
				b.ReportMetric(float64(r.PMMTrace[last-1].Target), "final_target")
			}
		}
	}
}

// BenchmarkFig7_MemoryFluctuations regenerates Figure 7.
func BenchmarkFig7_MemoryFluctuations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mm := runBench(b, baselineAt(pmm.PolicyConfig{Kind: pmm.PolicyMinMax}, 0.06, int64(i+1)))
		pr := runBench(b, baselineAt(pmm.PolicyConfig{Kind: pmm.PolicyProportional}, 0.06, int64(i+1)))
		if i == 0 {
			b.ReportMetric(mm.AvgFluctuations, "MinMax_fluct")
			b.ReportMetric(pr.AvgFluctuations, "Proportional_fluct")
		}
	}
}

// contentionAt returns the §5.2 six-disk config at one operating point.
func contentionAt(pol pmm.PolicyConfig, rate float64, seed int64) pmm.Config {
	cfg := pmm.DiskContentionConfig()
	cfg.Seed = seed
	cfg.Duration = benchHorizon
	cfg.Classes[0].ArrivalRate = rate
	cfg.Policy = pol
	return cfg
}

// BenchmarkFig8_MissRatioDiskContention regenerates Figure 8.
func BenchmarkFig8_MissRatioDiskContention(b *testing.B) {
	pols := []pmm.PolicyConfig{
		{Kind: pmm.PolicyMax}, {Kind: pmm.PolicyMinMax},
		{Kind: pmm.PolicyPMM}, {Kind: pmm.PolicyMinMax, MPLLimit: 10},
	}
	for i := 0; i < b.N; i++ {
		for _, pol := range pols {
			r := runBench(b, contentionAt(pol, 0.07, int64(i+1)))
			if i == 0 {
				missMetric(b, r.Policy, r)
			}
		}
	}
}

// BenchmarkFig9_DiskUtilDiskContention regenerates Figure 9.
func BenchmarkFig9_DiskUtilDiskContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mm := runBench(b, contentionAt(pmm.PolicyConfig{Kind: pmm.PolicyMinMax}, 0.07, int64(i+1)))
		if i == 0 {
			b.ReportMetric(100*mm.AvgDiskUtil, "MinMax_util%")
		}
	}
}

// BenchmarkFig10_MPLDiskContention regenerates Figure 10.
func BenchmarkFig10_MPLDiskContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pmmRes := runBench(b, contentionAt(pmm.PolicyConfig{Kind: pmm.PolicyPMM}, 0.07, int64(i+1)))
		mm10 := runBench(b, contentionAt(pmm.PolicyConfig{Kind: pmm.PolicyMinMax, MPLLimit: 10}, 0.07, int64(i+1)))
		if i == 0 {
			b.ReportMetric(pmmRes.AvgMPL, "PMM_mpl")
			b.ReportMetric(mm10.AvgMPL, "MinMax10_mpl")
		}
	}
}

// BenchmarkFig11_MinMaxN regenerates Figure 11: MinMax-N across N.
func BenchmarkFig11_MinMaxN(b *testing.B) {
	ns := []int{1, 3, 10, 20}
	for i := 0; i < b.N; i++ {
		for _, n := range ns {
			r := runBench(b, contentionAt(pmm.PolicyConfig{Kind: pmm.PolicyMinMax, MPLLimit: n}, 0.07, int64(i+1)))
			if i == 0 {
				missMetric(b, fmt.Sprintf("N%d", n), r)
			}
		}
	}
}

// BenchmarkFig12to14_WorkloadChanges regenerates Figures 12–14: the three
// algorithms under the alternating Medium/Small workload.
func BenchmarkFig12to14_WorkloadChanges(b *testing.B) {
	pols := []pmm.PolicyConfig{
		{Kind: pmm.PolicyMax}, {Kind: pmm.PolicyMinMax}, {Kind: pmm.PolicyPMM},
	}
	for i := 0; i < b.N; i++ {
		for _, pol := range pols {
			cfg := pmm.WorkloadChangeConfig()
			cfg.Seed = int64(i + 1)
			cfg.Duration = 18000 // Medium interval + Small interval
			cfg.Policy = pol
			r := runBench(b, cfg)
			if i == 0 {
				missMetric(b, r.Policy, r)
			}
		}
	}
}

// BenchmarkFig15_PMMTraceChanges regenerates Figure 15: PMM's restarts.
func BenchmarkFig15_PMMTraceChanges(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := pmm.WorkloadChangeConfig()
		cfg.Seed = int64(i + 1)
		cfg.Duration = 18000
		cfg.Policy = pmm.PolicyConfig{Kind: pmm.PolicyPMM}
		r := runBench(b, cfg)
		if i == 0 {
			b.ReportMetric(float64(r.PMMRestarts), "restarts")
		}
	}
}

// BenchmarkSec54_UtilLowSensitivity regenerates the §5.4 sweep.
func BenchmarkSec54_UtilLowSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, lo := range []float64{0.50, 0.80} {
			p := pmm.DefaultPMMConfig()
			p.UtilLow = lo
			r := runBench(b, baselineAt(pmm.PolicyConfig{Kind: pmm.PolicyPMM, PMM: p}, 0.06, int64(i+1)))
			if i == 0 {
				missMetric(b, fmt.Sprintf("utilLow%.0f", 100*lo), r)
			}
		}
	}
}

// BenchmarkFig16_ExternalSort regenerates Figure 16.
func BenchmarkFig16_ExternalSort(b *testing.B) {
	pols := []pmm.PolicyConfig{
		{Kind: pmm.PolicyMax}, {Kind: pmm.PolicyMinMax},
		{Kind: pmm.PolicyProportional}, {Kind: pmm.PolicyPMM},
	}
	for i := 0; i < b.N; i++ {
		for _, pol := range pols {
			cfg := pmm.ExternalSortConfig()
			cfg.Seed = int64(i + 1)
			cfg.Duration = benchHorizon
			cfg.Classes[0].ArrivalRate = 0.08
			cfg.Policy = pol
			r := runBench(b, cfg)
			if i == 0 {
				missMetric(b, r.Policy, r)
			}
		}
	}
}

// BenchmarkFig17_MulticlassSystem regenerates Figure 17.
func BenchmarkFig17_MulticlassSystem(b *testing.B) {
	pols := []pmm.PolicyConfig{
		{Kind: pmm.PolicyMax}, {Kind: pmm.PolicyMinMax}, {Kind: pmm.PolicyPMM},
	}
	for i := 0; i < b.N; i++ {
		for _, pol := range pols {
			cfg := pmm.MulticlassConfig(0.8)
			cfg.Seed = int64(i + 1)
			cfg.Duration = benchHorizon
			cfg.Policy = pol
			r := runBench(b, cfg)
			if i == 0 {
				missMetric(b, r.Policy, r)
			}
		}
	}
}

// BenchmarkFig18_MulticlassPerClass regenerates Figure 18: per-class
// miss ratios under PMM.
func BenchmarkFig18_MulticlassPerClass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := pmm.MulticlassConfig(0.8)
		cfg.Seed = int64(i + 1)
		cfg.Duration = benchHorizon
		cfg.Policy = pmm.PolicyConfig{Kind: pmm.PolicyPMM}
		r := runBench(b, cfg)
		if i == 0 {
			b.ReportMetric(100*r.ClassMissRatio("Medium"), "Medium_miss%")
			b.ReportMetric(100*r.ClassMissRatio("Small"), "Small_miss%")
		}
	}
}

// BenchmarkSec57_Scalability regenerates the §5.7 comparison: the same
// experiment at half and full scale.
func BenchmarkSec57_Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, k := range []float64{0.5, 1.0} {
			cfg := pmm.ScaledConfig(k)
			cfg.Seed = int64(i + 1)
			cfg.Duration = benchHorizon
			cfg.Classes[0].ArrivalRate = 0.06 / k
			cfg.Policy = pmm.PolicyConfig{Kind: pmm.PolicyPMM}
			r := runBench(b, cfg)
			if i == 0 {
				missMetric(b, fmt.Sprintf("scale%.1f", k), r)
			}
		}
	}
}

// BenchmarkAblationPacing compares deadline-driven pacing of
// minimum-allocation queries (off by default) against eager processing.
func BenchmarkAblationPacing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eager := baselineAt(pmm.PolicyConfig{Kind: pmm.PolicyMinMax}, 0.06, int64(i+1))
		paced := eager
		paced.PaceFactor = 1.0
		re := runBench(b, eager)
		rp := runBench(b, paced)
		if i == 0 {
			missMetric(b, "eager", re)
			missMetric(b, "paced", rp)
			b.ReportMetric(re.AvgIOAmplification, "eager_ioamp")
			b.ReportMetric(rp.AvgIOAmplification, "paced_ioamp")
		}
	}
}

// BenchmarkAblationBlockIO compares the default 6-page prefetch block
// against single-page I/O, isolating the value of the disk cache.
func BenchmarkAblationBlockIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		blocked := baselineAt(pmm.PolicyConfig{Kind: pmm.PolicyMinMax}, 0.05, int64(i+1))
		paged := blocked
		paged.Disk = pmm.DefaultDiskParams()
		paged.Disk.BlockSize = 1
		rb := runBench(b, blocked)
		rp := runBench(b, paged)
		if i == 0 {
			missMetric(b, "block6", rb)
			missMetric(b, "block1", rp)
		}
	}
}

// BenchmarkKernelThroughput measures raw simulation speed: events
// processed per wall second on the baseline workload.
func BenchmarkKernelThroughput(b *testing.B) {
	var steps uint64
	for i := 0; i < b.N; i++ {
		cfg := baselineAt(pmm.PolicyConfig{Kind: pmm.PolicyMinMax}, 0.06, int64(i+1))
		sys, err := pmm.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sys.Run()
		steps += sys.Kernel().Steps()
	}
	b.ReportMetric(float64(steps)/float64(b.N), "events/op")
}

// BenchmarkDeterminism asserts two equal-seed runs agree while timing
// them — a regression canary for reproducibility.
func BenchmarkDeterminism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := runBench(b, baselineAt(pmm.PolicyConfig{Kind: pmm.PolicyPMM}, 0.06, 42))
		c := runBench(b, baselineAt(pmm.PolicyConfig{Kind: pmm.PolicyPMM}, 0.06, 42))
		if a.Terminated != c.Terminated || a.Missed != c.Missed {
			b.Fatalf("nondeterministic: %d/%d vs %d/%d", a.Terminated, a.Missed, c.Terminated, c.Missed)
		}
	}
}

// shardedAt returns the big-topology partitioned config: `tenants`
// broker-coupled baseline cells advanced by `shards` workers.
func shardedAt(tenants, shards int, seed int64) pmm.Config {
	cfg := pmm.MultiTenantConfig(tenants)
	cfg.Seed = seed
	cfg.Duration = benchHorizon
	cfg.Classes[0].ArrivalRate = 0.06
	cfg.Policy = pmm.PolicyConfig{Kind: pmm.PolicyMinMax}
	cfg.Shards = shards
	return cfg
}

// BenchmarkFig3_Sharded measures the partitioned-execution path on a
// scaled-up Fig3-style topology: four baseline cells (40 disks,
// 4×2560 pages, 4× the arrival stream) as one simulated system. The
// shards=K variants run identical simulations — only the worker count
// changes — so their ratio is the parallel speedup; merged-1kernel
// simulates the same aggregate capacity as a single event loop (one
// shared disk farm and controller), the configuration a user would
// have run before partitioning existed. On multi-core hardware the
// speedup at 2 shards is the tentpole's ≥1.5× target; under
// GOMAXPROCS=1 the shards=K variants collapse to sequential execution
// and the merged/sharded gap isolates the algorithmic win (per-cell
// controllers replan O(T) smaller query sets).
func BenchmarkFig3_Sharded(b *testing.B) {
	const tenants = 4
	b.Run("merged-1kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := baselineAt(pmm.PolicyConfig{Kind: pmm.PolicyMinMax}, 0.06*tenants, int64(i+1))
			cfg.Disk = pmm.DefaultDiskParams()
			cfg.Disk.NumDisks *= tenants
			cfg.MemoryPages = 2560 * tenants
			cfg.CPUMips = 40 * tenants
			r := runBench(b, cfg)
			if i == 0 {
				missMetric(b, "merged", r)
			}
		}
	})
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runBench(b, shardedAt(tenants, shards, int64(i+1)))
				if i == 0 {
					missMetric(b, "sharded", r)
					b.ReportMetric(float64(r.Terminated), "terminated")
				}
			}
		})
	}
}
