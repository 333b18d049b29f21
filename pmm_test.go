package pmm_test

import (
	"math"
	"strings"
	"testing"

	"pmm"
)

// Preset assembly and determinism coverage lives in presets_test.go.

func TestRunBaselineEndToEnd(t *testing.T) {
	cfg := pmm.BaselineConfig()
	cfg.Duration = 1200
	cfg.Classes[0].ArrivalRate = 0.05
	cfg.Policy = pmm.PolicyConfig{Kind: pmm.PolicyPMM}
	res, err := pmm.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminated == 0 {
		t.Fatal("nothing terminated")
	}
	if res.Policy != "PMM" {
		t.Fatalf("policy %q", res.Policy)
	}
	if res.Duration != 1200 {
		t.Fatalf("duration %g", res.Duration)
	}
}

func TestPolicyNames(t *testing.T) {
	cases := map[string]pmm.PolicyConfig{
		"Max":          {Kind: pmm.PolicyMax},
		"MinMax":       {Kind: pmm.PolicyMinMax},
		"MinMax-10":    {Kind: pmm.PolicyMinMax, MPLLimit: 10},
		"Proportional": {Kind: pmm.PolicyProportional},
		"PMM":          {Kind: pmm.PolicyPMM},
	}
	for want, pol := range cases {
		if got := (pmm.Config{Policy: pol}).PolicyName(); got != want {
			t.Errorf("PolicyName = %q, want %q", got, want)
		}
	}
}

func TestScaledConfigScalesEverything(t *testing.T) {
	base := pmm.DiskContentionConfig()
	half := pmm.ScaledConfig(0.5)
	if half.MemoryPages != 1280 { // 2560/2; the preset leaves 0 = default
		t.Fatalf("memory %d", half.MemoryPages)
	}
	if half.Groups[0].SizeRange[0] != base.Groups[0].SizeRange[0]/2 {
		t.Fatalf("sizes %v", half.Groups[0].SizeRange)
	}
	if half.Classes[0].ArrivalRate != base.Classes[0].ArrivalRate*2 {
		t.Fatalf("rate %g", half.Classes[0].ArrivalRate)
	}
}

func TestDefaultParamsExposed(t *testing.T) {
	if pmm.DefaultDiskParams().NumDisks != 10 {
		t.Fatal("disk defaults")
	}
	if pmm.DefaultPMMConfig().SampleSize != 30 {
		t.Fatal("PMM defaults")
	}
}

// TestConfigRejectsMalformed: malformed configurations come back from
// Run as an error naming the offending field — never a panic deep in
// the simulation, and never a run that cannot terminate. NaN must fail
// every check, so each is written as a negated comparison.
func TestConfigRejectsMalformed(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	phased := func(rate float64) func(*pmm.Config) {
		return func(c *pmm.Config) {
			c.Phases = []pmm.Phase{{Duration: 300, Rates: []float64{rate}}}
		}
	}
	cases := []struct {
		name, field string
		mutate      func(*pmm.Config)
	}{
		{"negative RelPerDisk", "RelPerDisk", func(c *pmm.Config) { c.Groups[0].RelPerDisk = -1 }},
		{"negative SizeRange", "SizeRange", func(c *pmm.Config) { c.Groups[0].SizeRange = [2]int{-10, -5} }},
		{"negative SlackRange", "SlackRange", func(c *pmm.Config) { c.Classes[0].SlackRange = [2]float64{-3, -1} }},
		{"infinite ArrivalRate", "ArrivalRate", func(c *pmm.Config) { c.Classes[0].ArrivalRate = inf }},
		{"NaN ArrivalRate", "ArrivalRate", func(c *pmm.Config) { c.Classes[0].ArrivalRate = nan }},
		{"infinite phase rate", "Phases", phased(inf)},
		{"NaN phase rate", "Phases", phased(nan)},
		{"NaN Duration", "Duration", func(c *pmm.Config) { c.Duration = nan }},
		{"infinite Duration", "Duration", func(c *pmm.Config) { c.Duration = inf }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := pmm.BaselineConfig()
			cfg.Duration = 600
			tc.mutate(&cfg)
			_, err := pmm.Run(cfg)
			if err == nil {
				t.Fatal("Run accepted the config")
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %q does not name %s", err, tc.field)
			}
		})
	}
}
