package pmm_test

import (
	"reflect"
	"testing"

	"pmm"
)

// nopSink is a kernel trace sink that records nothing. Any attached sink
// turns service elision off (a sink must observe every event), so a run
// with one takes the queued completion path at every resource start.
type nopSink struct{}

func (nopSink) Dispatch(float64, uint64, uint8, int32)    {}
func (nopSink) Cancel(float64, uint64)                    {}
func (nopSink) WaitBegin(float64, string, int32, float64) {}
func (nopSink) WaitEnd(float64, string, int32)            {}
func (nopSink) TaskName(int32, string)                    {}

// TestElisionConformance pins service elision to the queued path it
// replaces: every preset runs once with elision off (a no-op sink
// attached) and once with it on, and the two runs must agree on every
// result and on the kernel's step count, which includes the events
// elision skipped.
func TestElisionConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	withPolicy := func(cfg pmm.Config, kind pmm.PolicyKind) pmm.Config {
		cfg.Policy = pmm.PolicyConfig{Kind: kind}
		return cfg
	}
	baseline := pmm.BaselineConfig()
	baseline.Duration = 1500
	baseline.Classes[0].ArrivalRate = 0.06

	sorts := pmm.ExternalSortConfig()
	sorts.Duration = 3000
	sorts.Classes[0].ArrivalRate = 0.08

	overload := pmm.OverloadConfig(0)
	overload.Duration = 1500

	contention := pmm.DiskContentionConfig()
	contention.Duration = 1500

	// The preset's 2–6 hour phases shrunk 24-fold, so a short run
	// crosses every Medium/Small switch.
	changes := pmm.WorkloadChangeConfig()
	changes.Duration = 3000
	for i := range changes.Phases {
		changes.Phases[i].Duration /= 24
	}

	cases := []struct {
		name       string
		cfg        pmm.Config
		wantElided bool
	}{
		{"baseline/Max", withPolicy(baseline, pmm.PolicyMax), true},
		{"baseline/MinMax", withPolicy(baseline, pmm.PolicyMinMax), true},
		{"baseline/Proportional", withPolicy(baseline, pmm.PolicyProportional), true},
		{"baseline/PMM", withPolicy(baseline, pmm.PolicyPMM), true},
		{"sorts/PMM", withPolicy(sorts, pmm.PolicyPMM), true},
		{"overload/PMM", withPolicy(overload, pmm.PolicyPMM), false},
		{"contention/MinMax", withPolicy(contention, pmm.PolicyMinMax), false},
		{"changes/PMM", withPolicy(changes, pmm.PolicyPMM), false},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			run := func(sink bool) (*pmm.Results, uint64, uint64) {
				sys, err := pmm.New(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if sink {
					sys.Kernel().SetSink(nopSink{})
				}
				r := sys.Run()
				return r, sys.Kernel().Steps(), sys.Kernel().Elided()
			}
			off, offSteps, offElided := run(true)
			on, onSteps, onElided := run(false)
			if offElided != 0 {
				t.Fatalf("%d completions elided with a sink attached", offElided)
			}
			if c.wantElided && onElided == 0 {
				t.Errorf("no completion elided")
			}
			if onSteps != offSteps {
				t.Errorf("steps = %d with elision, %d without", onSteps, offSteps)
			}
			if !reflect.DeepEqual(on, off) {
				t.Errorf("results differ with elision on")
			}
		})
	}

	// Multi-tenant cells are built inside the sharded runner, so the
	// elision-off run attaches a recording trace to every cell instead.
	t.Run("tenants/shards=2", func(t *testing.T) {
		t.Parallel()
		cfg := pmm.MultiTenantConfig(3)
		cfg.Shards = 2
		cfg.Duration = 900
		cfg.Policy = pmm.PolicyConfig{Kind: pmm.PolicyPMM}
		on, err := pmm.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		off, _, err := pmm.RunTraced(cfg, pmm.TraceWindow{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(on, off) {
			t.Errorf("results differ with elision on")
		}
	})
}
