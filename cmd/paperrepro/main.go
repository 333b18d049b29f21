// Command paperrepro regenerates every table and figure of the paper's
// evaluation section (§5) and prints them as text tables, one row per
// plotted point. With -out it also writes the rendering to a file.
//
//	paperrepro            # full horizons (10 simulated hours per run)
//	paperrepro -quick     # 1/6 horizons, coarser grids (for smoke runs)
//	paperrepro -only fig3,fig11
//	paperrepro -reps 5    # 5 replicates per point; cells become mean±CI
//	paperrepro -json      # machine-readable report documents
//	paperrepro -cache ~/.pmm-results   # warm reruns skip simulation
//	paperrepro -precision 0.05 -max-reps 64  # adaptive replication
//	paperrepro -progress  # live per-point progress + ETA on stderr
//	paperrepro -trace baseline.json    # Perfetto trace of a baseline run
//
// Every figure grid runs through the shared replicated-sweep engine
// (pmm.Sweep): -reps replicates each point at deterministically derived
// seeds and -workers bounds parallelism without affecting results. With
// -json the figure tables are emitted as one JSON array of report
// documents (id, title, columns, row objects keyed by column) —
// mirroring rtdbsim's machine-readable aggregates.
//
// With -cache DIR every (point, replicate) is served from the
// content-addressed result store at DIR when present and stored there
// after simulation, so regenerating a figure after a config-only change
// re-simulates just the points it touched. With -precision P each
// point replicates until its miss-ratio CI is within P of the mean
// (figures with a headline policy pair stop the pair on its paired-gap
// CI instead); cache and stopping telemetry lands in the figure
// footers and -json documents.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"pmm"
	"pmm/internal/exp"
	"pmm/internal/prof"
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "shorter horizons and coarser grids")
		horizon = flag.Float64("horizon", 0, "override simulated seconds per run (0 = defaults)")
		seed    = flag.Int64("seed", 1, "random seed")
		only    = flag.String("only", "", "comma-separated report ids (e.g. fig3,table7); runs only the experiments that produce them; empty = all")
		out     = flag.String("out", "", "also write the reports to this file")
		reps    = flag.Int("reps", 1, "replicates per sweep point; > 1 reports mean ± CI cells (first round size with -precision)")
		workers = flag.Int("workers", 0, "max parallel simulations (0 = GOMAXPROCS)")
		asJSON  = flag.Bool("json", false, "emit the reports as a JSON array instead of text tables")
		profile = flag.String("cpuprofile", "", "write a CPU profile of the whole reproduction to this file (go tool pprof)")
		memprof = flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
		cache   = flag.String("cache", "", "directory of a content-addressed result store; cached replicates are not re-simulated")
		prec    = flag.Float64("precision", 0, "adaptive replication: replicate each point until its miss-ratio CI half-width is within this fraction of the mean (0 = fixed -reps)")
		maxReps = flag.Int("max-reps", 32, "replicate cap per point under -precision")
		tenants = flag.Int("tenants", 0, "add the multi-tenant partitioned report with this many broker-coupled baseline cells (report id: tenants)")
		shards  = flag.Int("shards", 0, "worker threads for partitioned runs (results identical for any value)")
		clients = flag.Int("clients", 0, "client population of the open-system overload report (0 = 100000; count-batched — report id: overload)")
		trOut   = flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) of a short baseline PMM run at -seed to this file")
		prog    = flag.Bool("progress", false, "stream live per-point sweep progress with an ETA to stderr")
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

	// Malformed flags fail here, before any experiment runs: each would
	// otherwise fall back to a default and print a normal report.
	if *reps < 1 {
		fail(fmt.Errorf("-reps must be at least 1, got %d", *reps))
	}
	if *workers < 0 {
		fail(fmt.Errorf("-workers must be non-negative (0 = GOMAXPROCS), got %d", *workers))
	}
	if !(*horizon >= 0) || math.IsInf(*horizon, 1) {
		fail(fmt.Errorf("-horizon must be a finite non-negative number of simulated seconds (0 = defaults), got %g", *horizon))
	}
	if !(*prec >= 0) || math.IsInf(*prec, 1) {
		fail(fmt.Errorf("-precision must be a finite non-negative fraction (0 = fixed -reps), got %g", *prec))
	}
	if *maxReps < 1 {
		fail(fmt.Errorf("-max-reps must be at least 1, got %d", *maxReps))
	}
	if *tenants < 0 {
		fail(fmt.Errorf("-tenants must be non-negative, got %d", *tenants))
	}
	if *shards < 0 {
		fail(fmt.Errorf("-shards must be non-negative, got %d", *shards))
	}
	if *clients < 0 {
		fail(fmt.Errorf("-clients must be non-negative (0 = 100000), got %d", *clients))
	}

	var ids []string
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}

	opts := exp.Options{
		Seed: *seed, Quick: *quick, Horizon: *horizon,
		Reps: *reps, Workers: *workers,
		Precision: *prec, MaxReps: *maxReps,
		Tenants: *tenants, Shards: *shards, Clients: *clients,
	}
	// An -only list naming a report no driver can produce fails here,
	// before any simulation runs.
	if err := exp.Check(opts, ids); err != nil {
		fail(err)
	}
	if *prog {
		opts.Progress = pmm.NewSweepProgress(os.Stderr)
	}
	if *cache != "" {
		store, err := pmm.OpenResultStore(*cache)
		if err != nil {
			fail(err)
		}
		defer store.Close()
		opts.Store = store
	}

	if *trOut != "" {
		if err := writeBaselineTrace(*trOut, *seed); err != nil {
			fail(err)
		}
	}

	start := time.Now()
	selected, err := exp.Run(opts, ids)
	if err != nil {
		fail(err)
	}

	var b strings.Builder
	if *asJSON {
		docs := make([]exp.Doc, 0, len(selected))
		for _, rep := range selected {
			docs = append(docs, rep.Doc())
		}
		enc := json.NewEncoder(&b)
		enc.SetIndent("", "  ")
		if err := enc.Encode(docs); err != nil {
			fail(err)
		}
		fmt.Print(b.String())
	} else {
		for _, rep := range selected {
			b.WriteString(rep.Render())
			b.WriteByte('\n')
		}
		fmt.Print(b.String())
		fmt.Printf("(%d reports in %.0f s)\n", len(selected), time.Since(start).Seconds())
	}

	if *out != "" {
		if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
			fail(err)
		}
	}
}

// writeBaselineTrace runs 30 simulated minutes of the §5 baseline
// workload under PMM with the trace layer attached and writes the
// Chrome trace-event JSON — a Perfetto-loadable view of the simulated
// system behind the figures (query spans, queue depth, pool occupancy,
// CPU/disk timelines). Kept short deliberately: full-horizon kernel
// traces run to gigabytes.
func writeBaselineTrace(path string, seed int64) error {
	cfg := pmm.BaselineConfig()
	cfg.Policy = pmm.PolicyConfig{Kind: pmm.PolicyPMM}
	cfg.Seed = seed
	cfg.Duration = 1800
	_, tr, err := pmm.RunTraced(cfg, pmm.TraceWindow{})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
