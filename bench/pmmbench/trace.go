package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"pmm"
)

// span is one call into a layer's public entry point, timed from the
// benchmark's side. Spans of one replicate share a job id; a job's
// child spans name it as their parent.
type span struct {
	name   string
	job    int // -1 outside any replicate job
	worker int
	cycle  int
	start  time.Duration // since the measured phase began
	dur    time.Duration
}

// recorder collects one goroutine's spans; nothing is shared, so
// recording takes no lock.
type recorder struct {
	origin        time.Time
	worker, cycle int
	job           int
	spans         []span
}

func (rc *recorder) time(name string, f func()) {
	t0 := time.Now()
	f()
	rc.spans = append(rc.spans, span{name: name, job: rc.job, worker: rc.worker,
		cycle: rc.cycle, start: t0.Sub(rc.origin), dur: time.Since(t0)})
}

// tracedStats accumulates what the traced cycles measured.
type tracedStats struct {
	spans []span
	steps uint64 // kernel events over all traced cycles
	bytes int    // encoded result bytes of one cycle
	store pmm.ResultStoreStats
}

// tracedCycles repeats the cycle with the benchmark driving every
// replicate itself, with the seeds and worker count pmm.Sweep uses,
// spans around each layer call and a CPU profile of the whole phase.
// It then sets every per-layer metric; untraced holds the untraced
// cycle's passes.
func (r *run) tracedCycles(start time.Time, untraced []passRecord) ([]passRecord, error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	ts := &tracedStats{}
	var passes []passRecord
	cycles := 0
	for c := 1; c == 1 || r.more(c, start); c++ {
		ps, ok := r.tracedCycle(ts, start, c)
		passes = append(passes, ps...)
		cycles++
		if !ok {
			break
		}
	}
	pprof.StopCPUProfile()

	set := r.setter()
	n := float64(cycles)
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	layers, samples := foldLayers(p)
	total := 0.0
	for _, s := range layers {
		total += s
	}
	share := func(l string) float64 { return 100 * layers[l] / max(total, 1e-9) }
	for _, d := range perLayer {
		if l, ok := strings.CutSuffix(d.name, ".self_pct"); ok {
			set(d.name, share(l))
		}
	}
	set("trace.samples", float64(samples))
	set("trace.profile_s", total/n)
	if share("other") > 5 {
		fmt.Fprintf(os.Stderr, "pmmbench: %.1f%% of profile time is in no known layer\n", share("other"))
	}
	wallOf := func(p passRecord) float64 { return p.WallS }
	set("trace.overhead_s", sum(perPass(passes, wallOf))-sum(perPass(untraced, wallOf)))

	var jobs []float64
	var kernelS float64
	for _, s := range ts.spans {
		switch s.name {
		case "job":
			jobs = append(jobs, s.dur.Seconds())
		case "kernel.run":
			kernelS += s.dur.Seconds()
		}
	}
	set("sim.events", float64(ts.steps)/n)
	set("sim.mevents_per_s", float64(ts.steps)/1e6/kernelS)
	passWall := 0.0
	for _, p := range passes {
		passWall += p.WallS
	}
	tailV, tailPct := tail(jobs)
	perCycle := len(r.points) * r.w.spec.Reps
	set("runner.jobs", float64(perCycle))
	set("runner.job_samples", float64(len(jobs)))
	set("runner.job_p50_s", median(jobs))
	set("runner.job_tail_s", tailV)
	set("runner.job_tail_pct", tailPct)
	set("runner.busy_frac", sum(jobs)/(passWall*float64(r.w.spec.Workers)))
	gets, puts, err := r.storeRoundTrip()
	if err != nil {
		return nil, err
	}
	set("store.get_us", median(gets))
	set("store.put_us", median(puts))
	set("store.object_kb", float64(ts.bytes)/float64(perCycle)/1024)
	set("store.hits", float64(ts.store.Hits))
	set("store.misses", float64(ts.store.Misses))
	set("store.puts", float64(ts.store.Puts))
	set("store.put_errors", float64(ts.store.PutErrors))
	set("store.evictions", float64(ts.store.Evictions))
	// The untraced cycle has one sample per pass, so these are its totals.
	set("go.alloc_mb", sum(perPass(untraced, func(p passRecord) float64 { return p.AllocMB })))
	set("go.gc_cpu_s", sum(perPass(untraced, func(p passRecord) float64 { return p.GCCPUS })))
	set("go.gc_cycles", sum(perPass(untraced, func(p passRecord) float64 { return float64(p.GCs) })))
	set("go.mallocs", sum(perPass(untraced, func(p passRecord) float64 { return float64(p.Mallocs) })))
	set("go.peak_rss_mb", peakRSSMB())
	r.modelMetrics(set)
	r.hostFigures(untraced)
	r.rec.Host["ref_s"] = refSeconds()
	for k, v := range r.rec.Host {
		set("host."+k, v)
	}

	fmt.Printf("%-16s trace: %d cycles, %d profile samples (%.1f%% in no known layer), job tail at p%.4g of %d jobs, spans in %s\n",
		r.w.name, cycles, samples, share("other"), tailPct, len(jobs), r.spanFile())
	return passes, writeSpans(r.spanFile(), ts.spans)
}

// storeRoundTrip writes the first cycle's results to a fresh result store
// and reads them back, timing every Put and Get in microseconds. It runs
// after the profile stops, so that every workload, warm or cold, reports
// the cost of storing and serving its own results.
func (r *run) storeRoundTrip() (gets, puts []float64, err error) {
	store, err := pmm.OpenResultStore(filepath.Join(r.dir, "round-trip"))
	if err != nil {
		return nil, nil, err
	}
	defer r.closeStore(store)
	var keys []pmm.ResultKey
	for p, cfg := range r.points {
		for rep, res := range r.first[p] {
			c := cloneConfig(cfg)
			c.Seed = pmm.ReplicateSeed(r.o.seed, rep)
			k := resultKey(c)
			t0 := time.Now()
			if err := store.Put(k, res); err != nil {
				return nil, nil, err
			}
			puts = append(puts, float64(time.Since(t0).Nanoseconds())/1e3)
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		t0 := time.Now()
		_, hit := store.Get(k)
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/1e3)
		r.g.check(hit, "round trip: stored result %x missing", k[:6])
	}
	return gets, puts, nil
}

// resultKey is the store key pmm.Sweep uses for cfg.
func resultKey(cfg pmm.Config) pmm.ResultKey {
	var k pmm.ResultKey
	// ConfigKey is hex of a SHA-256, exactly the key's size.
	_, _ = hex.Decode(k[:], []byte(pmm.ConfigKey(cfg)))
	return k
}

// refSeconds is the median of a few calibration passes: it tells how
// fast the host ran during a traced run.
func refSeconds() float64 {
	cal := newCalibrator()
	var ws []float64
	for i := 0; i < 5; i++ {
		ws = append(ws, cal.pass().wall)
	}
	return median(ws)
}

func (r *run) spanFile() string {
	return filepath.Join(r.o.dir, "trace-"+r.w.name+".json")
}

// tracedCycle runs the cycle again, pass by pass: every replicate of a
// pass on the workload's worker count, then each point's aggregate, all
// under spans. c numbers the repeat.
func (r *run) tracedCycle(ts *tracedStats, origin time.Time, c int) ([]passRecord, bool) {
	store, err := r.openStore(c)
	if !r.g.check(err == nil, "open store: %v", err) {
		return nil, false
	}
	defer r.closeStore(store)
	before := store.Stats()

	nw, nr := r.w.spec.Workers, r.w.spec.Reps
	recs := make([]*recorder, nw+1) // the last one is this goroutine's
	for i := range recs {
		recs[i] = &recorder{origin: origin, worker: i, cycle: c, job: -1}
	}
	type job struct{ id, point, rep int }
	var reps [][]*pmm.Results
	var passes []passRecord
	failed := 0
	id := c * len(r.points) * nr
	for i, spec := range r.w.passes(r.o.seed) {
		cfgs := points(spec)
		pr := make([][]*pmm.Results, len(cfgs))
		for p := range pr {
			pr[p] = make([]*pmm.Results, nr)
		}
		steps := make([]uint64, nw)
		errs := make([]error, nw)
		ch := make(chan job)
		h0 := sampleHost()
		var wg sync.WaitGroup
		for wk := 0; wk < nw; wk++ {
			wg.Add(1)
			go func(rc *recorder, wk int) {
				defer wg.Done()
				for j := range ch {
					rc.job = j.id
					var st uint64
					var err error
					rc.time("job", func() {
						pr[j.point][j.rep], st, err = tracedJob(rc, store, cfgs[j.point], j.rep)
					})
					rc.job = -1
					steps[wk] += st
					if err != nil && errs[wk] == nil {
						errs[wk] = err
					}
				}
			}(recs[wk], wk)
		}
		for p := range cfgs {
			for rep := 0; rep < nr; rep++ {
				ch <- job{id, p, rep}
				id++
			}
		}
		close(ch)
		wg.Wait()
		for _, rs := range pr {
			recs[nw].time("pmm.Aggregate", func() { pmm.Aggregate(rs, 0.95) })
		}
		passes = append(passes, newPass(i, c, true, h0.to(sampleHost())))
		reps = append(reps, pr...)
		r.g.attempted += len(cfgs) * nr
		for wk, err := range errs {
			ts.steps += steps[wk]
			if err != nil {
				failed++
				r.g.fail("traced pass %d: %v", i, err)
			}
		}
	}
	for _, rc := range recs {
		ts.spans = append(ts.spans, rc.spans...)
	}
	if failed > 0 {
		return passes, false
	}
	after := store.Stats()
	ts.store = pmm.ResultStoreStats{
		Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
		Puts: after.Puts - before.Puts, PutErrors: after.PutErrors - before.PutErrors,
		Evictions: after.Evictions - before.Evictions,
	}
	// The traced replicates must reproduce the untraced digest. One check
	// suffices; repeating it every cycle would fill the profile with the
	// benchmark's own encoding work.
	if c == 1 {
		ts.bytes = r.checkCycle(reps, "traced")
	}
	return passes, true
}

// tracedJob runs one replicate as pmm.Sweep would: a store lookup, and on
// a miss a build, a kernel run, result assembly and a store write.
func tracedJob(rc *recorder, store *pmm.ResultStore, cfg pmm.Config, rep int) (res *pmm.Results, steps uint64, err error) {
	cfg = cloneConfig(cfg)
	cfg.Seed = pmm.ReplicateSeed(cfg.Seed, rep)
	var key pmm.ResultKey
	hit := false
	rc.time("store.get", func() {
		key = resultKey(cfg)
		res, hit = store.Get(key)
	})
	if hit {
		return res, 0, nil
	}
	if cfg.Tenants > 1 {
		// The partitioned path builds its cells internally; only the
		// whole run is visible from outside.
		rc.time("pmm.Run", func() { res, err = pmm.Run(cfg) })
	} else {
		var sys *pmm.System
		rc.time("pmm.New", func() { sys, err = pmm.New(cfg) })
		if err != nil {
			return nil, 0, err
		}
		rc.time("kernel.run", func() { sys.Kernel().Run(cfg.Duration) })
		steps = sys.Kernel().Steps()
		rc.time("system.results", func() { res = sys.Run() })
	}
	if err != nil {
		return nil, 0, err
	}
	// A failed write is counted in the store's stats, as in pmm.Sweep.
	rc.time("store.put", func() { _ = store.Put(key, res) })
	return res, steps, nil
}

// writeSpans writes the spans as Chrome trace events (load the file in
// Perfetto): one track per worker, job ids and parents in args.
func writeSpans(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		args := map[string]any{"cycle": s.cycle}
		if s.job >= 0 {
			args["job"] = s.job
			if s.name != "job" {
				args["parent"] = fmt.Sprintf("job %d", s.job)
			}
		}
		events[i] = event{Name: s.name, Ph: "X", Ts: float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur.Nanoseconds()) / 1e3, Pid: 1, Tid: s.worker, Args: args}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
