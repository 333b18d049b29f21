package main

import (
	"encoding/json"
	"os"
	"testing"
)

// tinyHorizon keeps every workload to a fraction of a second.
const tinyHorizon = 300

// TestWorkloadsSmoke runs every workload at a tiny horizon, untraced and
// traced, and checks that every declared metric is emitted and every
// correctness check passes.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads(tinyHorizon) {
		for _, traced := range []bool{false, true} {
			o := options{seed: 1, seconds: 0.001, trace: traced, dir: t.TempDir()}
			rec, err := runWorkload(w, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed: %v",
					w.name, traced, rec.Correct, rec.Failed, rec.Attempted, rec.Failures)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := rec.Metrics[d.name]
				if !ok || v.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, traced, d.name, v, d.unit)
				}
			}
			for _, name := range []string{"wall_per_mpage", "cpu_per_mpage", "setup_s"} {
				if v, ok := rec.Metrics[name]; ok && !(v.Value > 0) {
					t.Errorf("%s: %s = %g, want > 0", w.name, name, v.Value)
				}
			}
			if len(rec.Digest) != 64 {
				t.Errorf("%s: digest %q", w.name, rec.Digest)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric and
// workload tables the program emits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	ws := workloads(0)
	if len(b.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, program has %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

func TestFoldAttribution(t *testing.T) {
	cases := []struct{ fn, file, want string }{
		{"pmm/internal/sim.(*Kernel).Step", "/src/internal/sim/kernel.go", "sim.kernel"},
		{"pmm/internal/sim.(*Gate).Release", "/src/internal/sim/gate.go", "sim.sync"},
		{"pmm/internal/sim.newThing", "/src/internal/sim/lane.go", "sim.kernel"},
		{"pmm/internal/rtdbs.(*shardedRun).exchange", "/src/internal/rtdbs/sharded.go", "rtdbs.sharded"},
		{"pmm/internal/rtdbs.(*System).arrive", "/src/internal/rtdbs/system.go", "rtdbs"},
		{"pmm/internal/core.(*PMM).Allocate", "/src/internal/core/pmm.go", "policy"},
		{"pmm/internal/catalog.Build", "/src/internal/catalog/catalog.go", "workload"},
		{"pmm/internal/runner.runJobs.func1", "/src/internal/runner/runner.go", "runner"},
		{"pmm/internal/stats.(*Welford).Add", "/src/internal/stats/welford.go", "other"},
		{"pmm.Run", "/src/pmm.go", "other"},
	}
	for _, c := range cases {
		if got := fileLayer(funcPackage(c.fn), c.file); got != c.want {
			t.Errorf("%s in %s: layer %q, want %q", c.fn, c.file, got, c.want)
		}
	}
	if got := funcPackage("main.(*run).tracedCycle"); got != "main" {
		t.Errorf("funcPackage(main...) = %q", got)
	}
}

func TestJudge(t *testing.T) {
	wall := metricDef{"wall_s", "s", "lower", 0.10}
	steady := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10}
	scale := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	noisy := []float64{8, 12, 9, 11, 10, 8, 12, 9, 11, 10}
	cases := []struct {
		name string
		b, h []float64
		want string
	}{
		{"gain", steady, scale(steady, 0.8), "gain"},
		{"same", steady, steady, "no regression"},
		{"slower", steady, scale(steady, 1.2), "regression"},
		{"noisy", noisy, scale(noisy, 1.05), "unresolved"},
		{"too few pairs", steady[:5], scale(steady[:5], 0.8), "no regression"},
	}
	for _, c := range cases {
		if _, got := judge(wall, c.b, c.h); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
