package resultstore

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pmm/internal/catalog"
	"pmm/internal/core"
	"pmm/internal/disk"
	"pmm/internal/rtdbs"
	"pmm/internal/workload"
)

// testConfig is a baseline-like configuration built field by field.
func testConfig() rtdbs.Config {
	return rtdbs.Config{
		Seed:     1,
		Duration: 36000,
		Groups: []catalog.GroupSpec{
			{RelPerDisk: 4, SizeRange: [2]int{200, 800}},
			{RelPerDisk: 6, SizeRange: [2]int{80, 200}},
		},
		Classes: []workload.ClassSpec{{
			Name: "Medium", RelGroups: []int{0, 1},
			ArrivalRate: 0.06, SlackRange: [2]float64{2.5, 7.5},
		}},
		Policy: rtdbs.PolicyConfig{Kind: rtdbs.PolicyPMM},
	}
}

// TestKeyIgnoresConstructionOrder asserts the determinism guard of the
// ISSUE: the same logical configuration built two different ways —
// mutations applied in permuted order, defaults left implicit versus
// spelled out — hashes to the same key.
func TestKeyIgnoresConstructionOrder(t *testing.T) {
	// Way 1: rate first, then policy; defaults implicit.
	a := testConfig()
	a.Classes[0].ArrivalRate = 0.07
	a.Policy = rtdbs.PolicyConfig{Kind: rtdbs.PolicyPMM}

	// Way 2: policy first, then rate; defaults explicit.
	b := testConfig()
	b.Policy = rtdbs.PolicyConfig{Kind: rtdbs.PolicyPMM, PMM: core.DefaultConfig()}
	b.Classes[0].ArrivalRate = 0.07
	b.Duration = 36000
	b.CPUMips = 40
	b.MemoryPages = 2560
	b.FudgeFactor = 1.1
	b.TuplesPerPage = 40
	b.Disk = disk.DefaultParams()

	ka, kb := KeyFor(a), KeyFor(b)
	if ka != kb {
		t.Fatalf("keys differ for equivalent configs:\n%s\n%s\n--- a ---\n%s--- b ---\n%s",
			ka, kb, CanonicalText(a), CanonicalText(b))
	}

	// Stray parameters of an unselected policy must not perturb the key.
	c := testConfig()
	c.Classes[0].ArrivalRate = 0.07
	c.Policy = rtdbs.PolicyConfig{Kind: rtdbs.PolicyPMM}
	c.Policy.Fairness = core.FairnessConfig{Gain: 9, Window: 0.5, Weights: []float64{3}}
	c.Policy.MPLLimit = 0
	if KeyFor(c) != ka {
		t.Fatalf("unselected-policy parameters changed the key:\n%s", CanonicalText(c))
	}

	// Shards is a pure execution knob — results are identical for every
	// value — so it must never reach the key: a sweep run at shards=4
	// must hit a cache warmed at shards=1, for single- and multi-tenant
	// configs alike.
	d := testConfig()
	d.Classes[0].ArrivalRate = 0.07
	d.Shards = 4
	if KeyFor(d) != ka {
		t.Fatalf("Shards changed the key:\n%s", CanonicalText(d))
	}
	mt := testConfig()
	mt.Tenants = 3
	mt2 := mt
	mt2.Shards = 8
	if KeyFor(mt) != KeyFor(mt2) {
		t.Fatalf("Shards changed a multi-tenant key:\n%s", CanonicalText(mt2))
	}
	// A single-tenant config ignores SyncInterval entirely.
	st := testConfig()
	st.Classes[0].ArrivalRate = 0.07
	st.SyncInterval = 3
	if KeyFor(st) != ka {
		t.Fatalf("SyncInterval changed a single-tenant key:\n%s", CanonicalText(st))
	}
	// Population 0 and 1 are the same single-client source, and
	// parameters of an unselected modulation kind are stray state.
	pop := testConfig()
	pop.Classes[0].ArrivalRate = 0.07
	pop.Classes[0].Population = 1
	pop.Classes[0].Modulation = workload.Modulation{Kind: workload.ModNone, Period: 9, BurstFactor: 5}
	if KeyFor(pop) != ka {
		t.Fatalf("Population 1 / stray modulation params changed the key:\n%s", CanonicalText(pop))
	}
	// SyncStretch 1 is the fixed barrier, and single-tenant configs
	// ignore it like SyncInterval.
	mt3 := testConfig()
	mt3.Tenants = 3
	mt4 := mt3
	mt4.SyncStretch = 1
	if KeyFor(mt3) != KeyFor(mt4) {
		t.Fatalf("SyncStretch 1 changed a multi-tenant key:\n%s", CanonicalText(mt4))
	}
	ss := testConfig()
	ss.Classes[0].ArrivalRate = 0.07
	ss.SyncStretch = 8
	if KeyFor(ss) != ka {
		t.Fatalf("SyncStretch changed a single-tenant key:\n%s", CanonicalText(ss))
	}
}

// TestKeyDistinguishesBehavior asserts the converse: fields that do
// change the simulation change the key.
func TestKeyDistinguishesBehavior(t *testing.T) {
	base := testConfig()
	mutations := map[string]func(*rtdbs.Config){
		"seed":   func(c *rtdbs.Config) { c.Seed = 2 },
		"rate":   func(c *rtdbs.Config) { c.Classes[0].ArrivalRate = 0.08 },
		"memory": func(c *rtdbs.Config) { c.MemoryPages = 1280 },
		"policy": func(c *rtdbs.Config) { c.Policy.Kind = rtdbs.PolicyMax },
		"mpl": func(c *rtdbs.Config) {
			c.Policy = rtdbs.PolicyConfig{Kind: rtdbs.PolicyMinMax, MPLLimit: 10}
		},
		"pmmParam": func(c *rtdbs.Config) {
			p := core.DefaultConfig()
			p.UtilLow = 0.5
			c.Policy = rtdbs.PolicyConfig{Kind: rtdbs.PolicyPMM, PMM: p}
		},
		"phases": func(c *rtdbs.Config) {
			c.Phases = []rtdbs.Phase{{Duration: 100, Rates: []float64{0.05}}}
		},
		"pace":    func(c *rtdbs.Config) { c.PaceFactor = 1 },
		"tenants": func(c *rtdbs.Config) { c.Tenants = 4 },
		"syncInterval": func(c *rtdbs.Config) {
			c.Tenants = 4
			c.SyncInterval = 2.5
		},
		"syncStretch": func(c *rtdbs.Config) {
			c.Tenants = 4
			c.SyncStretch = 8
		},
		"admitQueue": func(c *rtdbs.Config) { c.AdmitQueue = 64 },
		"population": func(c *rtdbs.Config) { c.Classes[0].Population = 1000 },
		"modulation": func(c *rtdbs.Config) {
			c.Classes[0].Modulation = workload.Modulation{
				Kind: workload.ModDiurnal, Period: 3600, Amplitude: 0.5,
			}
		},
		"modParam": func(c *rtdbs.Config) {
			c.Classes[0].Modulation = workload.Modulation{
				Kind: workload.ModDiurnal, Period: 3600, Amplitude: 0.7,
			}
		},
	}
	k0 := KeyFor(base)
	for name, mutate := range mutations {
		c := base
		c.Classes = append([]workload.ClassSpec(nil), c.Classes...)
		mutate(&c)
		if KeyFor(c) == k0 {
			t.Errorf("mutation %q did not change the key", name)
		}
	}
}

// TestKeyGolden pins the cross-run stability of the canonical hash: the
// key of a fixed configuration must never drift between runs, machines
// or Go versions, or warm stores silently stop hitting. If this fails
// because the canonical format or the simulation epoch changed
// intentionally, update the constant — that IS the cache invalidation.
func TestKeyGolden(t *testing.T) {
	const want = "cd21e594f0b59db96de7959e79d8bd118545652ab38526768acdbfe146c73b3a"
	got := KeyFor(testConfig()).String()
	if got != want {
		t.Fatalf("golden key drifted:\n got %s\nwant %s\ncanonical text:\n%s",
			got, want, CanonicalText(testConfig()))
	}
}

// TestCanonicalCoversAllConfigFields is a tripwire: if any of the
// structs that feed the canonical serialization grows a field,
// CanonicalText silently would not include it and configurations
// differing only in the new field would collide. Update
// CanonicalText, bump the epoch or format version, and then adjust the
// expected counts here.
func TestCanonicalCoversAllConfigFields(t *testing.T) {
	fields := map[string]struct {
		typ  reflect.Type
		want int
	}{
		"rtdbs.Config":        {reflect.TypeOf(rtdbs.Config{}), 17},
		"rtdbs.PolicyConfig":  {reflect.TypeOf(rtdbs.PolicyConfig{}), 4},
		"rtdbs.Phase":         {reflect.TypeOf(rtdbs.Phase{}), 2},
		"disk.Params":         {reflect.TypeOf(disk.Params{}), 7},
		"catalog.GroupSpec":   {reflect.TypeOf(catalog.GroupSpec{}), 2},
		"workload.ClassSpec":  {reflect.TypeOf(workload.ClassSpec{}), 7},
		"workload.Modulation": {reflect.TypeOf(workload.Modulation{}), 7},
		"core.Config":         {reflect.TypeOf(core.Config{}), 6},
		"core.FairnessConfig": {reflect.TypeOf(core.FairnessConfig{}), 3},
	}
	for name, f := range fields {
		if got := f.typ.NumField(); got != f.want {
			t.Errorf("%s has %d fields, canonical serialization was written for %d — "+
				"update resultstore.CanonicalText for the new field and bump the format/epoch",
				name, got, f.want)
		}
	}
}

// TestCanonicalTextShape sanity-checks the serialization itself: the
// epoch salt leads the text and class names are length-prefixed so no
// crafted name can forge field boundaries.
func TestCanonicalTextShape(t *testing.T) {
	txt := CanonicalText(testConfig())
	header := fmt.Sprintf("pmm-result %d:%s\nepoch %d:%s\n",
		len(formatVersion), formatVersion, len(rtdbs.SimEpoch), rtdbs.SimEpoch)
	if !strings.HasPrefix(txt, header) {
		t.Fatalf("missing version/epoch header:\n%s", txt)
	}
	if !strings.Contains(txt, "6:Medium") {
		t.Fatalf("class name not length-prefixed:\n%s", txt)
	}
}
