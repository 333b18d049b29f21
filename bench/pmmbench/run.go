package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"pmm"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 21

// options configure one workload run.
type options struct {
	seed int64
	// seconds bounds the measured phase: whole cycles run while one more
	// still fits, and at least one always runs.
	seconds float64
	trace   bool
	// dir holds the run's result stores and the span file.
	dir string
}

// passRecord is what one pass cost the host.
type passRecord struct {
	Pass    int     `json:"pass"`
	Cycle   int     `json:"cycle"`
	Traced  bool    `json:"traced"`
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	AllocMB float64 `json:"alloc_mb"`
	GCCPUS  float64 `json:"gc_cpu_s"`
	GCs     uint64  `json:"gc_cycles"`
	Mallocs uint64  `json:"mallocs"`
	// RefS and RefCPUS are the mean of the calibration passes just
	// before and after this one (untraced runs only).
	RefS    float64 `json:"ref_s,omitempty"`
	RefCPUS float64 `json:"ref_cpu_s,omitempty"`
	// Pages is the simulated page I/O of the pass's replicates.
	Pages float64 `json:"pages"`
}

func newPass(pass, cycle int, traced bool, d hostDelta) passRecord {
	return passRecord{Pass: pass, Cycle: cycle, Traced: traced, WallS: d.wall, CPUS: d.cpu,
		AllocMB: d.allocMB, GCCPUS: d.gcCPU, GCs: d.gcs, Mallocs: d.mallocs}
}

// runRecord is the full outcome of one workload run.
type runRecord struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Digest    string           `json:"sim_digest"`
	Metrics   map[string]value `json:"metrics"`
	Passes    []passRecord     `json:"passes"`
	// Host holds the raw host figures of the untraced passes: wall_s,
	// cpu_s, sim_h_per_s and the calibration pass ref_s.
	Host     map[string]float64 `json:"host"`
	SetupsS  []float64          `json:"setups_s"`
	Failures []string           `json:"failures,omitempty"`
}

// gate counts operations and checks against the number that failed.
type gate struct {
	attempted, failed int
	failures          []string
}

func (g *gate) check(ok bool, format string, args ...any) bool {
	g.attempted++
	if !ok {
		g.fail(format, args...)
	}
	return ok
}

func (g *gate) fail(format string, args ...any) {
	g.failed++
	if len(g.failures) < 20 {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

// run is the state of one workload run.
type run struct {
	w      workload
	o      options
	dir    string
	points []pmm.Config
	g      gate
	rec    runRecord

	// ref is the digest of the first cycle, which every later one must
	// reproduce.
	ref string
	// warm is the store the prep sweep filled (warm workloads only).
	warm *pmm.ResultStore
	// first holds the first cycle's replicates, point by point.
	first [][]*pmm.Results
	// cal brackets every untraced pass with calibration passes; last is
	// the most recent one. nil in traced runs.
	cal  *calibrator
	last hostDelta
}

// runWorkload measures one workload. Errors are environmental (no
// scratch directory, no profile); simulation failures land in the gate.
func runWorkload(w workload, o options) (*runRecord, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.dir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := &run{w: w, o: o, dir: dir, points: points(w.spec)}
	r.rec = runRecord{Workload: w.name, Seed: o.seed, Trace: o.trace, Metrics: map[string]value{}}

	if w.warm {
		if err := r.prepWarm(); err != nil {
			return nil, err
		}
		defer r.warm.Close()
	}
	if err := r.measureSetup(); err != nil {
		return nil, err
	}

	start := time.Now()
	var passes []passRecord
	if o.trace {
		// One untraced cycle gives the reference digest, the Go runtime
		// counters and the wall time the traced cycles are charged
		// against.
		ps, ok := r.untracedCycle(0)
		passes = ps
		if ok {
			traced, err := r.tracedCycles(start, ps)
			if err != nil {
				return nil, err
			}
			passes = append(passes, traced...)
		}
	} else {
		r.cal = newCalibrator()
		r.last = r.cal.pass()
		for c := 0; r.more(c, start); c++ {
			ps, ok := r.untracedCycle(c)
			passes = append(passes, ps...)
			if !ok {
				break
			}
		}
		r.endToEnd(passes)
	}
	r.rec.Passes = passes
	r.rec.Digest = r.ref
	r.rec.Attempted, r.rec.Failed, r.rec.Failures = r.g.attempted, r.g.failed, r.g.failures
	r.rec.Correct = r.g.failed == 0
	return &r.rec, nil
}

// prepWarm fills the warm workload's store with one untimed sweep of the
// grid. Its simulated results are the reference every measured cycle
// must read back byte for byte.
func (r *run) prepWarm() error {
	store, err := pmm.OpenResultStore(filepath.Join(r.dir, "warm"))
	if err != nil {
		return err
	}
	r.warm = store
	spec := r.w.spec
	spec.Base.Seed = r.o.seed
	spec.Cache = store
	pts, err := pmm.Sweep(spec)
	if err != nil {
		return fmt.Errorf("prep sweep: %w", err)
	}
	var reps [][]*pmm.Results
	for _, pt := range pts {
		reps = append(reps, pt.Reps)
	}
	r.checkCycle(reps, "prep")
	return nil
}

// more reports whether cycle c should run: the first always does, later
// ones while one more of average length still ends within o.seconds.
func (r *run) more(c int, start time.Time) bool {
	if c == 0 {
		return true
	}
	spent := time.Since(start).Seconds()
	return spent*float64(c+1)/float64(c) <= r.o.seconds
}

// openStore opens the store a cycle writes to: the filled one for warm
// workloads, a fresh directory otherwise.
func (r *run) openStore(c int) (*pmm.ResultStore, error) {
	if r.warm != nil {
		return r.warm, nil
	}
	return pmm.OpenResultStore(filepath.Join(r.dir, "cycle-"+strconv.Itoa(c)))
}

// closeStore releases a store openStore returned.
func (r *run) closeStore(s *pmm.ResultStore) {
	if s != r.warm {
		s.Close()
		os.RemoveAll(s.Path())
	}
}

// measureSetup times what a run pays before its first simulated event,
// setupReps times: opening its result store (the filled one for a warm
// run, a fresh one otherwise) plus building every point of the grid,
// each tenant cell separately.
func (r *run) measureSetup() error {
	for i := 0; i < setupReps; i++ {
		path := filepath.Join(r.dir, "setup-"+strconv.Itoa(i))
		if r.warm != nil {
			path = r.warm.Path()
		}
		t0 := time.Now()
		store, err := pmm.OpenResultStore(path)
		for _, cfg := range r.points {
			cfg.Seed = r.o.seed
			cells := max(cfg.Tenants, 1)
			cfg.Tenants, cfg.Shards, cfg.SyncInterval = 0, 0, 0
			for c := 0; c < cells && err == nil; c++ {
				_, err = pmm.New(cfg)
			}
		}
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.rec.SetupsS = append(r.rec.SetupsS, time.Since(t0).Seconds())
		store.Close()
		if r.warm == nil {
			os.RemoveAll(path)
		}
	}
	return nil
}

// untracedCycle runs every pass through pmm.Sweep, the path users run,
// and checks the output. ok is false when a sweep failed.
func (r *run) untracedCycle(c int) (passes []passRecord, ok bool) {
	store, err := r.openStore(c)
	if !r.g.check(err == nil, "open store: %v", err) {
		return nil, false
	}
	defer r.closeStore(store)
	before := store.Stats()
	repeat := max(r.w.repeat, 1)
	var reps [][]*pmm.Results
	for i, spec := range r.w.passes(r.o.seed) {
		spec.Cache = store
		jobs := len(points(spec)) * spec.Reps * repeat
		h0 := sampleHost()
		var pts []pmm.PointResult
		var err error
		for k := 0; k < repeat && err == nil; k++ {
			pts, err = pmm.Sweep(spec)
		}
		pass := newPass(i, c, false, h0.to(sampleHost()).per(repeat))
		if r.cal != nil {
			next := r.cal.pass()
			pass.RefS, pass.RefCPUS = bracket(r.last, next)
			r.last = next
		}
		r.g.attempted += jobs // the replicate jobs themselves
		if err != nil {
			passes = append(passes, pass)
			r.g.failed += jobs
			r.g.fail("pass %d: %v", i, err)
			return passes, false
		}
		for _, pt := range pts {
			reps = append(reps, pt.Reps)
			for _, res := range pt.Reps {
				pass.Pages += pages(res)
			}
		}
		passes = append(passes, pass)
	}
	if r.warm != nil && r.ref != "" {
		st := store.Stats()
		want := int64(len(r.points) * r.w.spec.Reps * repeat)
		r.g.check(st.Misses == before.Misses && st.Hits-before.Hits == want,
			"warm cycle: %d hits, %d misses, want %d hits and no miss",
			st.Hits-before.Hits, st.Misses-before.Misses, want)
	}
	r.checkCycle(reps, "untraced")
	return passes, true
}

// checkCycle applies the invariants to every replicate of a cycle and
// checks that it reproduced the first cycle's digest. It returns the
// size of the cycle's results as the store encodes them.
func (r *run) checkCycle(reps [][]*pmm.Results, what string) int {
	r.g.check(len(reps) == len(r.points), "%s cycle: %d points, want %d", what, len(reps), len(r.points))
	for p, rs := range reps {
		r.g.check(len(rs) == r.w.spec.Reps, "%s point %d: %d replicates, want %d", what, p, len(rs), r.w.spec.Reps)
		for i, res := range rs {
			err := invariants(res)
			r.g.check(err == nil, "%s point %d replicate %d: %v", what, p, i, err)
		}
	}
	d, n := digestReps(reps)
	if r.ref == "" {
		r.ref, r.first = d, reps
	} else {
		r.g.check(d == r.ref, "%s cycle digest %.12s differs from reference %.12s", what, d, r.ref)
	}
	return n
}

// invariants checks the model's bookkeeping on one replicate.
func invariants(res *pmm.Results) error {
	if res == nil {
		return fmt.Errorf("missing result")
	}
	if res.Terminated != res.Completed+res.Missed {
		return fmt.Errorf("terminated %d != completed %d + missed %d", res.Terminated, res.Completed, res.Missed)
	}
	var term, missed, rejected int
	for _, c := range res.PerClass {
		term += c.Terminated
		missed += c.Missed
		rejected += c.Rejected
		if !unit(c.MissRatio) {
			return fmt.Errorf("class %s miss ratio %g outside [0,1]", c.Name, c.MissRatio)
		}
	}
	if term != res.Terminated || missed != res.Missed || rejected != res.Rejected {
		return fmt.Errorf("per-class sums (%d, %d, %d) != totals (%d, %d, %d)",
			term, missed, rejected, res.Terminated, res.Missed, res.Rejected)
	}
	if len(res.Events) != res.Terminated {
		return fmt.Errorf("%d termination events for %d terminations", len(res.Events), res.Terminated)
	}
	ratios := []float64{res.MissRatio, res.LossRatio, res.CPUUtil, res.AvgDiskUtil, res.MaxDiskUtil}
	ratios = append(ratios, res.MissBySlackQuartile[:]...)
	for _, x := range ratios {
		if !unit(x) {
			return fmt.Errorf("ratio %g outside [0,1]", x)
		}
	}
	return nil
}

func unit(x float64) bool { return x >= 0 && x <= 1 }

// digestReps is a SHA-256 over the JSON encoding of every replicate in
// grid order, which is also the form the result store keeps. It returns
// the digest and the number of encoded bytes.
func digestReps(reps [][]*pmm.Results) (string, int) {
	h := sha256.New()
	n := 0
	for _, rs := range reps {
		for _, res := range rs {
			b, err := json.Marshal(res)
			if err != nil {
				// Results hold only plain values; a NaN is the one thing
				// that cannot encode, and it fails the digest check.
				b = []byte(err.Error())
			}
			n += len(b)
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), n
}

// perPass returns, for each pass of a cycle, the median of f over its
// repeats in the run.
func perPass(passes []passRecord, f func(passRecord) float64) []float64 {
	var byPass [][]float64
	for _, p := range passes {
		for len(byPass) <= p.Pass {
			byPass = append(byPass, nil)
		}
		byPass[p.Pass] = append(byPass[p.Pass], f(p))
	}
	meds := make([]float64, len(byPass))
	for i, xs := range byPass {
		meds[i] = median(xs)
	}
	return meds
}

// endToEnd sets the end-to-end metrics. The cost of sweeping the grid
// once is the sum over a cycle's passes of each pass's median, in units
// of the calibration passes bracketing it, per million simulated pages;
// the raw host figures go to the record's host block.
func (r *run) endToEnd(passes []passRecord) {
	mpages := sum(perPass(passes, func(p passRecord) float64 { return p.Pages })) / 1e6
	set := r.setter()
	set("wall_per_mpage", sum(perPass(passes, func(p passRecord) float64 { return p.WallS / p.RefS }))/mpages)
	set("cpu_per_mpage", sum(perPass(passes, func(p passRecord) float64 { return p.CPUS / p.RefCPUS }))/mpages)
	set("setup_s", median(r.rec.SetupsS))
	var refs []float64
	for _, p := range passes {
		refs = append(refs, p.RefS)
	}
	r.hostFigures(passes)
	r.rec.Host["ref_s"] = median(refs)
}

// hostFigures records the raw host cost of sweeping the grid once.
func (r *run) hostFigures(passes []passRecord) {
	hours := 0.0
	for _, cfg := range r.points {
		hours += simHours(cfg) * float64(r.w.spec.Reps)
	}
	wall := sum(perPass(passes, func(p passRecord) float64 { return p.WallS }))
	r.rec.Host = map[string]float64{
		"wall_s":      wall,
		"cpu_s":       sum(perPass(passes, func(p passRecord) float64 { return p.CPUS })),
		"sim_h_per_s": hours / wall,
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// setter returns a function recording a metric under its declared unit.
func (r *run) setter() func(string, float64) {
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	return func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.rec.Metrics[name] = value{Value: v, Unit: units[name]}
	}
}

// modelMetrics sets the simulated-model metrics from the first cycle:
// sums of counts and means of ratios over every replicate.
func (r *run) modelMetrics(set func(string, float64)) {
	var arrived, term, missed, rejected, restarts, brokers int
	var lruHit, lruAll uint64
	var read, spooled int64
	var cpu, disk, amp, mpl float64
	n := 0
	for _, rs := range r.first {
		for _, res := range rs {
			n++
			arrived += res.Arrived
			term += res.Terminated
			missed += res.Missed
			rejected += res.Rejected
			restarts += res.PMMRestarts
			brokers += res.BrokerExchanges
			lruHit += res.LRUHits
			lruAll += res.LRUHits + res.LRUMisses
			read += res.IOBreakdown.RelRead
			spooled += res.IOBreakdown.SpoolWrite
			cpu += res.CPUUtil
			disk += res.AvgDiskUtil
			amp += res.AvgIOAmplification
			mpl += res.AvgMPL
		}
	}
	set("model.arrived", float64(arrived))
	set("model.terminated", float64(term))
	set("model.rejected", float64(rejected))
	set("model.miss_pct", 100*float64(missed)/float64(term))
	set("model.cpu_util", cpu/float64(n))
	set("model.disk_util", disk/float64(n))
	set("model.lru_hit_ratio", float64(lruHit)/float64(lruAll))
	set("model.pages_read", float64(read))
	set("model.pages_spooled", float64(spooled))
	set("model.io_amplification", amp/float64(n))
	set("model.avg_mpl", mpl/float64(n))
	set("model.pmm_restarts", float64(restarts))
	set("model.broker_exchanges", float64(brokers))
	if len(r.ref) >= 12 {
		d, _ := strconv.ParseUint(r.ref[:12], 16, 64) // hex from digestReps
		set("model.digest48", float64(d))
	}
}
