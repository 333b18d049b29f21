package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric. bound is the share of the parent
// median by which an end-to-end metric may worsen before a change counts
// as a regression; BENCHMARK.json repeats these and the smoke test keeps
// the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off: the host wall and CPU time to sweep the workload's grid,
// in units of the calibration pass (see calibrate.go) per million
// simulated page I/Os, and the set-up time in seconds.
var endToEnd = []metricDef{
	{"wall_per_mpage", "ref/Mpage", "lower", 0.20},
	{"cpu_per_mpage", "ref/Mpage", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, reported by the traced run.
// Host figures are per cycle; a *.self_pct value is the layer's share of
// the profiled CPU time, trace.profile_s being that time per cycle;
// model.* figures are exact counts over one cycle.
var perLayer = []metricDef{
	{"host.wall_s", "s", "lower", 0},
	{"host.cpu_s", "s", "lower", 0},
	{"host.sim_h_per_s", "h/s", "higher", 0},
	{"host.ref_s", "s", "lower", 0},
	{"sim.events", "count", "lower", 0},
	{"sim.mevents_per_s", "M/s", "higher", 0},
	{"sim.kernel.self_pct", "%", "lower", 0},
	{"sim.procs.self_pct", "%", "lower", 0},
	{"sim.sync.self_pct", "%", "lower", 0},
	{"sim.rng.self_pct", "%", "lower", 0},
	{"sim.partition.self_pct", "%", "lower", 0},
	{"query.self_pct", "%", "lower", 0},
	{"join.self_pct", "%", "lower", 0},
	{"extsort.self_pct", "%", "lower", 0},
	{"buffer.self_pct", "%", "lower", 0},
	{"disk.self_pct", "%", "lower", 0},
	{"cpu.self_pct", "%", "lower", 0},
	{"policy.self_pct", "%", "lower", 0},
	{"rtdbs.self_pct", "%", "lower", 0},
	{"rtdbs.sharded.self_pct", "%", "lower", 0},
	{"workload.self_pct", "%", "lower", 0},
	{"runner.self_pct", "%", "lower", 0},
	{"resultstore.self_pct", "%", "lower", 0},
	{"other.self_pct", "%", "lower", 0},
	{"bench.self_pct", "%", "lower", 0},
	{"runtime.self_pct", "%", "lower", 0},
	{"trace.samples", "count", "higher", 0},
	{"trace.profile_s", "s", "lower", 0},
	{"trace.overhead_s", "s", "lower", 0},
	{"runner.jobs", "count", "lower", 0},
	{"runner.job_samples", "count", "higher", 0},
	{"runner.job_p50_s", "s", "lower", 0},
	{"runner.job_tail_s", "s", "lower", 0},
	{"runner.job_tail_pct", "%", "higher", 0},
	{"runner.busy_frac", "ratio", "higher", 0},
	{"store.get_us", "us", "lower", 0},
	{"store.put_us", "us", "lower", 0},
	{"store.object_kb", "KB", "lower", 0},
	{"store.hits", "count", "higher", 0},
	{"store.misses", "count", "lower", 0},
	{"store.puts", "count", "lower", 0},
	{"store.put_errors", "count", "lower", 0},
	{"store.evictions", "count", "lower", 0},
	{"go.alloc_mb", "MB", "lower", 0},
	{"go.gc_cpu_s", "s", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"go.mallocs", "count", "lower", 0},
	{"go.peak_rss_mb", "MB", "lower", 0},
	{"model.arrived", "count", "higher", 0},
	{"model.terminated", "count", "higher", 0},
	{"model.rejected", "count", "lower", 0},
	{"model.miss_pct", "%", "lower", 0},
	{"model.cpu_util", "ratio", "higher", 0},
	{"model.disk_util", "ratio", "higher", 0},
	{"model.lru_hit_ratio", "ratio", "higher", 0},
	{"model.pages_read", "count", "lower", 0},
	{"model.pages_spooled", "count", "lower", 0},
	{"model.io_amplification", "ratio", "lower", 0},
	{"model.avg_mpl", "count", "higher", 0},
	{"model.pmm_restarts", "count", "lower", 0},
	{"model.broker_exchanges", "count", "lower", 0},
	{"model.digest48", "hash", "higher", 0},
}

// value is one reported metric as it appears in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostSample is a snapshot of the process's cumulative host counters.
type hostSample struct {
	at      time.Time
	cpu     time.Duration // user + sys
	allocB  uint64
	mallocs uint64
	gcCPU   float64
	gcCount uint64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func sampleHost() hostSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return hostSample{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocB:  s[0].Value.Uint64(),
		mallocs: s[1].Value.Uint64(),
		gcCPU:   s[2].Value.Float64(),
		gcCount: s[3].Value.Uint64(),
	}
}

// hostDelta is what the process spent between two samples.
type hostDelta struct {
	wall, cpu, gcCPU float64 // seconds
	allocMB          float64
	mallocs, gcs     uint64
}

// per divides a delta over n repeats of the same work.
func (d hostDelta) per(n int) hostDelta {
	k := float64(n)
	return hostDelta{wall: d.wall / k, cpu: d.cpu / k, gcCPU: d.gcCPU / k, allocMB: d.allocMB / k,
		mallocs: d.mallocs / uint64(n), gcs: d.gcs / uint64(n)}
}

func (a hostSample) to(b hostSample) hostDelta {
	return hostDelta{
		wall:    b.at.Sub(a.at).Seconds(),
		cpu:     (b.cpu - a.cpu).Seconds(),
		gcCPU:   b.gcCPU - a.gcCPU,
		allocMB: float64(b.allocB-a.allocB) / 1e6,
		mallocs: b.mallocs - a.mallocs,
		gcs:     b.gcCount - a.gcCount,
	}
}

// peakRSSMB reads the process's resident high-water mark (VmHWM); 0 when
// /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics (NaN for no samples).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, with that percentile; below eleven samples no such
// percentile exists and it falls back to the maximum (100).
func tail(xs []float64) (v, pct float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n < 11 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}
