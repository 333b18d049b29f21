// Command rtdbsim runs a firm-RTDBS simulation — optionally replicated
// across deterministic seeds — and prints a metrics report. It exposes
// the main knobs of the paper's model:
//
//	rtdbsim -preset baseline -policy pmm -rate 0.06 -hours 10
//	rtdbsim -preset contention -policy minmax -mpl 10 -rate 0.07
//	rtdbsim -preset sorts -policy max -rate 0.10 -seed 7
//	rtdbsim -preset baseline -policy pmm -rate 0.06 -reps 8 -json
//	rtdbsim -preset baseline -policy pmm -rate 0.06 -reps 8 -cache /tmp/rs
//	rtdbsim -preset baseline -policy pmm -precision 0.05 -max-reps 64
//
// With -reps N the configuration is replicated N times (replicate 0 at
// -seed, the rest at seeds derived from it) on a -workers pool, and the
// report carries mean ± confidence-interval aggregates. With -json the
// run emits a machine-readable document instead of text.
//
// With -cache DIR every replicate is first looked up in the
// content-addressed result store at DIR and stored there after running,
// so reruns of the same configuration (same canonical config, seed and
// simulation epoch) skip simulation entirely. With -precision P the
// fixed -reps is replaced by adaptive replication: replicates run in
// rounds until the miss-ratio CI half-width falls within P of the mean
// (-reps then sets the first round, -max-reps the cap).
//
// With -trace FILE the run additionally emits a Chrome trace-event JSON
// of replicate 0 — query lifecycle spans, admission-queue depth, pool
// occupancy, CPU/disk utilization and broker-quota timelines in
// simulated time — loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing; -trace-csv FILE dumps the raw timeline samples,
// -trace-window a:b bounds kernel-level event recording, and -progress
// streams live per-replicate completion lines with an ETA to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"pmm"
	"pmm/internal/prof"
)

func main() {
	var (
		preset  = flag.String("preset", "baseline", "workload preset: baseline | contention | sorts | changes | multiclass | overload")
		policy  = flag.String("policy", "pmm", "allocation policy: max | minmax | proportional | pmm | fairpmm")
		mpl     = flag.Int("mpl", 0, "MPL limit N for minmax/proportional (0 = unlimited)")
		rate    = flag.Float64("rate", 0, "arrival rate of the first class in queries/sec (0 = preset default)")
		small   = flag.Float64("small", 0.4, "Small-class arrival rate (multiclass preset only)")
		hours   = flag.Float64("hours", 10, "simulated hours")
		seed    = flag.Int64("seed", 1, "random seed (replicate 0; further replicates derive from it)")
		disks   = flag.Int("disks", 0, "number of disks (0 = preset default)")
		memory  = flag.Int("memory", 0, "buffer pool pages M (0 = preset default)")
		pmmTr   = flag.Bool("pmm-trace", false, "print the PMM decision trace (replicate 0)")
		reps    = flag.Int("reps", 1, "replicates with derived seeds; > 1 reports mean ± CI (first round size with -precision)")
		workers = flag.Int("workers", 0, "max parallel simulations (0 = GOMAXPROCS)")
		asJSON  = flag.Bool("json", false, "emit a JSON document with per-replicate and aggregated results")
		conf    = flag.Float64("confidence", 0.95, "confidence level of aggregate intervals")
		profile = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file (go tool pprof)")
		memprof = flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
		cache   = flag.String("cache", "", "directory of a content-addressed result store; replicates found there are not re-simulated")
		prec    = flag.Float64("precision", 0, "adaptive replication: run replicates until the miss-ratio CI half-width is within this fraction of the mean (0 = fixed -reps)")
		maxReps = flag.Int("max-reps", 32, "replicate cap per point under -precision")
		tenants = flag.Int("tenants", 0, "replicate the preset into this many broker-coupled cells (0/1 = single-tenant)")
		shards  = flag.Int("shards", 0, "worker threads advancing cells in parallel (multi-tenant only; results identical for any value)")
		sync    = flag.Float64("sync", 0, "broker epoch length in simulated seconds (0 = default 1.0; multi-tenant only)")
		clients = flag.Int("clients", 0, "simulated client population of the overload preset (0 = 100000; count-batched, any N costs one timer per class)")
		admit   = flag.Int("admit", -1, "admission-queue bound: arrivals beyond this many waiting queries are rejected (-1 = preset default, 0 = unbounded)")
		trOut   = flag.String("trace", "", "write a Chrome trace-event JSON of replicate 0 to this file (load in Perfetto / chrome://tracing)")
		trCSV   = flag.String("trace-csv", "", "write the replicate-0 timeline samples as CSV to this file")
		trWin   = flag.String("trace-window", "", "record kernel-level events only inside this simulated-time window, as seconds a:b (timelines and spans are always full-run)")
		prog    = flag.Bool("progress", false, "stream live per-replicate progress with an ETA to stderr")
	)
	flag.Parse()
	stopProfile, err := prof.StartCPU(*profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProfile()
	stopMemProfile, err := prof.StartMem(*memprof)
	if err != nil {
		stopProfile()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopMemProfile()
	// fail flushes the profiles before exiting, since os.Exit skips defers.
	fail := func(err error) {
		stopMemProfile()
		stopProfile()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var cfg pmm.Config
	switch *preset {
	case "baseline":
		cfg = pmm.BaselineConfig()
	case "contention":
		cfg = pmm.DiskContentionConfig()
	case "sorts":
		cfg = pmm.ExternalSortConfig()
	case "changes":
		cfg = pmm.WorkloadChangeConfig()
	case "multiclass":
		cfg = pmm.MulticlassConfig(*small)
	case "overload":
		cfg = pmm.OverloadConfig(*clients)
	default:
		stopProfile()
		fmt.Fprintf(os.Stderr, "unknown preset %q\n", *preset)
		os.Exit(2)
	}
	switch strings.ToLower(*policy) {
	case "max":
		cfg.Policy = pmm.PolicyConfig{Kind: pmm.PolicyMax}
	case "minmax":
		cfg.Policy = pmm.PolicyConfig{Kind: pmm.PolicyMinMax, MPLLimit: *mpl}
	case "proportional":
		cfg.Policy = pmm.PolicyConfig{Kind: pmm.PolicyProportional, MPLLimit: *mpl}
	case "pmm":
		cfg.Policy = pmm.PolicyConfig{Kind: pmm.PolicyPMM}
	case "fairpmm":
		cfg.Policy = pmm.PolicyConfig{Kind: pmm.PolicyFairPMM}
	default:
		stopProfile()
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policy)
		os.Exit(2)
	}
	if !(*rate >= 0) || math.IsInf(*rate, 1) {
		fail(fmt.Errorf("-rate must be a finite non-negative number of queries/sec (0 = preset default), got %g", *rate))
	}
	if !(*conf > 0 && *conf < 1) {
		fail(fmt.Errorf("-confidence must lie strictly between 0 and 1, got %g", *conf))
	}
	if *reps < 1 {
		fail(fmt.Errorf("-reps must be at least 1, got %d", *reps))
	}
	if *disks < 0 {
		fail(fmt.Errorf("-disks must be non-negative (0 = preset default), got %d", *disks))
	}
	if *memory < 0 {
		fail(fmt.Errorf("-memory must be non-negative (0 = preset default), got %d", *memory))
	}
	if *clients < 0 {
		fail(fmt.Errorf("-clients must be non-negative (0 = 100000), got %d", *clients))
	}
	// A non-positive -hours would reach the config as an unset Duration
	// and silently run the 10-hour default.
	if !(*hours > 0) || math.IsInf(*hours, 1) {
		fail(fmt.Errorf("-hours must be a finite positive number of simulated hours, got %g", *hours))
	}
	if *workers < 0 {
		fail(fmt.Errorf("-workers must be non-negative (0 = GOMAXPROCS), got %d", *workers))
	}
	if *tenants < 0 {
		fail(fmt.Errorf("-tenants must be non-negative (0/1 = single-tenant), got %d", *tenants))
	}
	if *shards < 0 {
		fail(fmt.Errorf("-shards must be non-negative, got %d", *shards))
	}
	if !(*sync >= 0) || math.IsInf(*sync, 1) {
		fail(fmt.Errorf("-sync must be a finite non-negative number of simulated seconds (0 = default 1.0), got %g", *sync))
	}
	if *admit < -1 {
		fail(fmt.Errorf("-admit must be -1 (preset default), 0 (unbounded) or a positive bound, got %d", *admit))
	}
	if !(*prec >= 0) || math.IsInf(*prec, 1) {
		fail(fmt.Errorf("-precision must be a finite non-negative fraction (0 = fixed -reps), got %g", *prec))
	}
	if *maxReps < 1 {
		fail(fmt.Errorf("-max-reps must be at least 1, got %d", *maxReps))
	}
	if *rate > 0 {
		cfg.Classes[0].ArrivalRate = *rate
		if len(cfg.Phases) > 0 {
			for pi := range cfg.Phases {
				if cfg.Phases[pi].Rates[0] > 0 {
					cfg.Phases[pi].Rates[0] = *rate
				}
			}
		}
	}
	cfg.Duration = *hours * 3600
	cfg.Seed = *seed
	if *disks > 0 {
		cfg.Disk = pmm.DefaultDiskParams()
		cfg.Disk.NumDisks = *disks
	}
	if *memory > 0 {
		cfg.MemoryPages = *memory
	}
	if *admit >= 0 {
		cfg.AdmitQueue = *admit
	}
	if *tenants > 1 {
		cfg.Tenants = *tenants
		cfg.Shards = *shards
		cfg.SyncInterval = *sync
	}

	spec := pmm.SweepSpec{Base: cfg, Reps: *reps, Workers: *workers, Confidence: *conf}
	var progress *pmm.SweepProgress
	if *prog {
		progress = pmm.NewSweepProgress(os.Stderr)
		spec.Progress = progress
	}
	var store *pmm.ResultStore
	if *cache != "" {
		var err error
		store, err = pmm.OpenResultStore(*cache)
		if err != nil {
			fail(err)
		}
		defer store.Close()
		spec.Cache = store
	}
	if *prec > 0 {
		spec.Stop = &pmm.StopRule{RelPrecision: *prec, MaxReps: *maxReps}
	}
	points, err := pmm.Sweep(spec)
	if err != nil {
		fail(err)
	}
	runs, agg := points[0].Reps, points[0].Agg
	res := runs[0]
	tel := telemetry(points[0], store, *prec, *maxReps)
	tel.Sweep = progress.Trace()

	if *trOut != "" || *trCSV != "" {
		if err := writeTrace(cfg, *trOut, *trCSV, *trWin); err != nil {
			fail(err)
		}
	}

	if *asJSON {
		emitJSON(cfg, *preset, *seed, runs, agg, tel)
		return
	}

	fmt.Printf("policy            %s\n", res.Policy)
	fmt.Printf("simulated         %.0f s\n", res.Duration)
	if len(runs) > 1 {
		printAggregate(cfg, runs, agg)
		printTelemetry(tel)
		printTrace(os.Stdout, *pmmTr, res)
		return
	}
	fmt.Printf("arrived           %d\n", res.Arrived)
	if res.Rejected > 0 {
		fmt.Printf("rejected          %d (%.2f%% loss at the admission queue, avg queue delay %.1f s)\n",
			res.Rejected, 100*res.LossRatio, res.AvgQueueDelay)
	}
	fmt.Printf("terminated        %d (completed %d, missed %d)\n", res.Terminated, res.Completed, res.Missed)
	fmt.Printf("miss ratio        %.2f%% (±%.2f%% at 90%%)\n", 100*res.MissRatio, 100*res.MissRatioHW90)
	for _, c := range res.PerClass {
		fmt.Printf("  class %-8s  %d terminated, %.2f%% missed", c.Name, c.Terminated, 100*c.MissRatio)
		if c.Rejected > 0 {
			fmt.Printf(", %d rejected", c.Rejected)
		}
		fmt.Println()
	}
	fmt.Printf("avg waiting       %.1f s\n", res.AvgWait)
	fmt.Printf("avg execution     %.1f s\n", res.AvgExec)
	fmt.Printf("avg response      %.1f s\n", res.AvgResponse)
	fmt.Printf("observed MPL      %.2f\n", res.AvgMPL)
	fmt.Printf("disk utilization  %.1f%% avg, %.1f%% max; CPU %.1f%%\n",
		100*res.AvgDiskUtil, 100*res.MaxDiskUtil, 100*res.CPUUtil)
	fmt.Printf("mem fluctuations  %.2f per query\n", res.AvgFluctuations)
	fmt.Printf("I/O amplification %.2f (pages: %d read, %d spooled out, %d spooled in)\n",
		res.AvgIOAmplification, res.IOBreakdown.RelRead, res.IOBreakdown.SpoolWrite, res.IOBreakdown.SpoolRead)
	printTelemetry(tel)
	printTrace(os.Stdout, *pmmTr, res)
}

// writeTrace reruns replicate 0's exact configuration with the trace
// layer attached — the run is bit-identical to the untraced one, so the
// exported timelines describe exactly the replicate the report covers —
// and writes the requested Chrome JSON and/or CSV files.
func writeTrace(cfg pmm.Config, jsonPath, csvPath, window string) error {
	win, err := parseWindow(window)
	if err != nil {
		return err
	}
	_, tr, err := pmm.RunTraced(cfg, win)
	if err != nil {
		return err
	}
	if jsonPath != "" {
		if err := writeTo(jsonPath, tr.WriteChrome); err != nil {
			return err
		}
	}
	if csvPath != "" {
		if err := writeTo(csvPath, tr.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

// writeTo creates path and streams emit into it.
func writeTo(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseWindow parses a -trace-window "a:b" pair of simulated seconds;
// "" leaves kernel-event recording unbounded.
func parseWindow(s string) (pmm.TraceWindow, error) {
	if s == "" {
		return pmm.TraceWindow{}, nil
	}
	a, b, ok := strings.Cut(s, ":")
	var lo, hi float64
	var err1, err2 error
	if ok {
		lo, err1 = strconv.ParseFloat(a, 64)
		hi, err2 = strconv.ParseFloat(b, 64)
	}
	if !ok || err1 != nil || err2 != nil || hi <= lo {
		return pmm.TraceWindow{}, fmt.Errorf("bad -trace-window %q: want simulated seconds a:b with b > a", s)
	}
	return pmm.TraceWindow{A: lo, B: hi}, nil
}

// cacheTelemetry reports how the result store served this run.
type cacheTelemetry struct {
	Path string `json:"path"`
	// Hits/Misses are this run's replicates served from / absent in the
	// store; misses equal the simulations actually performed.
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	// Entries/Evictions snapshot the store after the run.
	Entries   int   `json:"entries"`
	Evictions int64 `json:"evictions"`
}

// stopTelemetry reports the adaptive-replication outcome.
type stopTelemetry struct {
	Precision float64 `json:"precision"`
	MaxReps   int     `json:"maxReps"`
	RepsUsed  int     `json:"repsUsed"`
}

// runTelemetry combines both for output, plus the sweep-execution
// trace when -progress was active.
type runTelemetry struct {
	Cache    *cacheTelemetry `json:"cache,omitempty"`
	Stopping *stopTelemetry  `json:"stopping,omitempty"`
	Sweep    *pmm.SweepTrace `json:"sweep,omitempty"`
}

// telemetry assembles cache and stopping telemetry for the run.
func telemetry(p pmm.PointResult, store *pmm.ResultStore, prec float64, maxReps int) runTelemetry {
	var tel runTelemetry
	if store != nil {
		st := store.Stats()
		tel.Cache = &cacheTelemetry{
			Path: st.Path, Hits: p.CacheHits, Misses: p.CacheMisses,
			Entries: st.Entries, Evictions: st.Evictions,
		}
	}
	if prec > 0 {
		tel.Stopping = &stopTelemetry{Precision: prec, MaxReps: maxReps, RepsUsed: len(p.Reps)}
	}
	return tel
}

// printTelemetry renders cache/stopping telemetry in the text report.
func printTelemetry(tel runTelemetry) {
	if c := tel.Cache; c != nil {
		fmt.Printf("result store      %s: %d hits, %d misses (simulated), %d entries\n",
			c.Path, c.Hits, c.Misses, c.Entries)
	}
	if s := tel.Stopping; s != nil {
		fmt.Printf("replicates used   %d of max %d (target %.1f%% relative half-width)\n",
			s.RepsUsed, s.MaxReps, 100*s.Precision)
	}
	if t := tel.Sweep; t != nil {
		fmt.Printf("sweep execution   %d replicates in %d round(s), %.2f s simulating, %d served from cache\n",
			t.TotalReps, t.Rounds, t.WallSeconds, t.CacheHits)
	}
}

// printAggregate renders the replicated report: mean ± CI per metric.
func printAggregate(cfg pmm.Config, runs []*pmm.Results, agg pmm.Summary) {
	ci := func(s pmm.Stat, scale float64, unit string) string {
		return fmt.Sprintf("%.2f%s ± %.2f%s", scale*s.Mean, unit, scale*s.HalfWidth, unit)
	}
	fmt.Printf("replicates        %d (seeds derived from %d, %.0f%% CIs)\n",
		agg.Reps, cfg.Seed, 100*agg.Confidence)
	fmt.Printf("miss ratio        %s\n", ci(agg.MissRatio, 100, "%"))
	for _, c := range agg.PerClass {
		fmt.Printf("  class %-8s  %s missed, %.0f±%.0f terminated\n",
			c.Name, ci(c.MissRatio, 100, "%"), c.Terminated.Mean, c.Terminated.HalfWidth)
	}
	fmt.Printf("terminated        %s\n", ci(agg.Terminated, 1, ""))
	fmt.Printf("avg waiting       %s s\n", ci(agg.AvgWait, 1, ""))
	fmt.Printf("avg execution     %s s\n", ci(agg.AvgExec, 1, ""))
	fmt.Printf("avg response      %s s\n", ci(agg.AvgResponse, 1, ""))
	fmt.Printf("observed MPL      %s\n", ci(agg.AvgMPL, 1, ""))
	fmt.Printf("disk utilization  %s avg; CPU %s\n", ci(agg.AvgDiskUtil, 100, "%"), ci(agg.CPUUtil, 100, "%"))
	fmt.Printf("mem fluctuations  %s per query\n", ci(agg.AvgFluctuations, 1, ""))
	fmt.Println("per replicate     seed, miss%:")
	for i, r := range runs {
		fmt.Printf("  rep %-3d  seed %-20d  %.2f%%\n", i, pmm.ReplicateSeed(cfg.Seed, i), 100*r.MissRatio)
	}
}

// printTrace writes the PMM decision trace to w when enabled: per batch,
// the columns fig6 prints, and a mark where a workload change reset PMM.
func printTrace(w io.Writer, enabled bool, res *pmm.Results) {
	if !enabled || len(res.PMMTrace) == 0 {
		return
	}
	fmt.Fprintln(w, "\nPMM trace (time, mode, target, realized MPL, batch miss%, util%, curve):")
	for _, pt := range res.PMMTrace {
		target := fmt.Sprintf("%d", pt.Target)
		if pt.Target == 0 {
			target = "inf"
		}
		curve := pt.Curve
		if curve == "" {
			curve = "-"
		}
		reset := ""
		if pt.Restart {
			reset = "  [workload change: reset]"
		}
		fmt.Fprintf(w, "  %7.0f  %-6s  %4s  %6.2f  %5.1f%%  %5.1f%%  %s%s\n",
			pt.Time, pt.Mode, target, pt.Realized, 100*pt.MissRatio, 100*pt.Util, curve, reset)
	}
}

// replicateJSON is the per-replicate slice of the JSON document.
type replicateJSON struct {
	Rep         int     `json:"rep"`
	Seed        int64   `json:"seed"`
	Arrived     int     `json:"arrived"`
	Rejected    int     `json:"rejected,omitempty"`
	Terminated  int     `json:"terminated"`
	Missed      int     `json:"missed"`
	MissRatio   float64 `json:"missRatio"`
	LossRatio   float64 `json:"lossRatio,omitempty"`
	AvgMPL      float64 `json:"avgMPL"`
	AvgDiskUtil float64 `json:"avgDiskUtil"`
	CPUUtil     float64 `json:"cpuUtil"`
	AvgResponse float64 `json:"avgResponse"`
}

// emitJSON writes the machine-readable report: the run's identity, the
// per-point aggregate (mean/CI), every replicate, and — when a result
// store or adaptive replication was active — their telemetry.
func emitJSON(cfg pmm.Config, preset string, seed int64, runs []*pmm.Results, agg pmm.Summary, tel runTelemetry) {
	doc := struct {
		Preset     string          `json:"preset"`
		Policy     string          `json:"policy"`
		Duration   float64         `json:"duration"`
		Seed       int64           `json:"seed"`
		Reps       int             `json:"reps"`
		Cache      *cacheTelemetry `json:"cache,omitempty"`
		Stopping   *stopTelemetry  `json:"stopping,omitempty"`
		SweepTrace *pmm.SweepTrace `json:"sweepTrace,omitempty"`
		Aggregate  pmm.Summary     `json:"aggregate"`
		Replicates []replicateJSON `json:"replicates"`
	}{
		Preset:     preset,
		Policy:     runs[0].Policy,
		Duration:   runs[0].Duration,
		Seed:       seed,
		Reps:       len(runs),
		Cache:      tel.Cache,
		Stopping:   tel.Stopping,
		SweepTrace: tel.Sweep,
		Aggregate:  agg,
	}
	for i, r := range runs {
		doc.Replicates = append(doc.Replicates, replicateJSON{
			Rep: i, Seed: pmm.ReplicateSeed(seed, i),
			Arrived: r.Arrived, Rejected: r.Rejected, Terminated: r.Terminated, Missed: r.Missed,
			MissRatio: r.MissRatio, LossRatio: r.LossRatio, AvgMPL: r.AvgMPL,
			AvgDiskUtil: r.AvgDiskUtil, CPUUtil: r.CPUUtil, AvgResponse: r.AvgResponse,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
