package rtdbs

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"pmm/internal/sim"
)

// tenantConfig is a small multi-tenant run: `tenants` cells of the
// scaled-down baseline, rebalanced by the broker every simulated second.
func tenantConfig(policy PolicyConfig, tenants, shards int, duration float64) Config {
	cfg := baselineConfig(policy, 0.06, duration)
	cfg.MemoryPages = 800 // memory-constrained so the broker matters
	cfg.Tenants = tenants
	cfg.Shards = shards
	cfg.SyncInterval = 1.0
	return cfg
}

// TestShardedConformance is the tentpole guarantee: the same
// multi-tenant configuration produces byte-identical Results — every
// aggregate, every event, and the shard digest — for every worker
// count, including the sequential Shards=1 schedule. GOMAXPROCS is
// raised to 4 so that the Shards=3 run really has three participants on
// a host with fewer CPUs, where the coordinator would clamp it.
func TestShardedConformance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, pol := range []PolicyConfig{
		{Kind: PolicyMinMax},
		{Kind: PolicyPMM},
	} {
		base, err := Simulate(tenantConfig(pol, 3, 1, 900), nil)
		if err != nil {
			t.Fatal(err)
		}
		if base.ShardDigest == "" {
			t.Fatal("multi-tenant run produced no shard digest")
		}
		if base.Terminated < 20 {
			t.Fatalf("only %d terminations — run too short to be meaningful", base.Terminated)
		}
		for _, shards := range []int{2, 3, 4, 8} {
			got, err := Simulate(tenantConfig(pol, 3, shards, 900), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.ShardDigest != base.ShardDigest {
				t.Errorf("policy %d shards=%d: digest %s != shards=1 digest %s",
					pol.Kind, shards, got.ShardDigest, base.ShardDigest)
			}
			if !reflect.DeepEqual(got, base) {
				t.Errorf("policy %d shards=%d: results differ from shards=1", pol.Kind, shards)
			}
		}
	}
}

// TestShardedStress fuzzes the deterministic merge over randomized
// topologies: random tenant counts, budgets, epoch lengths, and
// policies, each run at shards ∈ {1, 2, 4}, asserting identical
// digests and aggregates. Run with -race, this also exercises the
// window-parallel path for data races (cells must share nothing).
// GOMAXPROCS is raised to 4 so that shards=4 is not clamped to the
// host's CPU count.
func TestShardedStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	if testing.Short() {
		t.Skip("stress test")
	}
	rng := rand.New(rand.NewSource(7))
	policies := []PolicyConfig{
		{Kind: PolicyMax},
		{Kind: PolicyMinMax},
		{Kind: PolicyMinMax, MPLLimit: 4},
		{Kind: PolicyProportional},
		{Kind: PolicyPMM},
	}
	for trial := 0; trial < 6; trial++ {
		pol := policies[rng.Intn(len(policies))]
		cfg := baselineConfig(pol, 0.04+0.04*rng.Float64(), 400+200*rng.Float64())
		cfg.Seed = rng.Int63()
		cfg.Tenants = 2 + rng.Intn(3)
		cfg.MemoryPages = 600 + 200*rng.Intn(4)
		cfg.SyncInterval = []float64{0.5, 1, 2, 5}[rng.Intn(4)]
		cfg.Disk.NumDisks = 4 + 2*rng.Intn(3)

		var base *Results
		for _, shards := range []int{1, 2, 4} {
			c := cfg
			c.Shards = shards
			got, err := Simulate(c, nil)
			if err != nil {
				t.Fatalf("trial %d shards=%d: %v", trial, shards, err)
			}
			if base == nil {
				base = got
				continue
			}
			if got.ShardDigest != base.ShardDigest {
				t.Errorf("trial %d (tenants=%d sync=%g policy=%d) shards=%d: digest mismatch",
					trial, cfg.Tenants, cfg.SyncInterval, pol.Kind, shards)
			}
			if !reflect.DeepEqual(got, base) {
				t.Errorf("trial %d shards=%d: results differ", trial, shards)
			}
		}
	}
}

// TestShardedGoldenDigest pins the combined event order of a fixed
// partitioned run, exactly as golden_test.go pins single-kernel runs:
// any change to cell construction, seed derivation, broker arithmetic,
// or barrier scheduling shows up here as a digest change and must be
// intentional (and bump SimEpoch).
func TestShardedGoldenDigest(t *testing.T) {
	const want = "ede89f418c37dca437f7189a1ab60d1efa46bef915de110654d9d5bfbb8f480b"
	r, err := Simulate(tenantConfig(PolicyConfig{Kind: PolicyMinMax}, 2, 2, 600), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.ShardDigest != want {
		t.Fatalf("partitioned golden digest changed:\n got %s\nwant %s\n"+
			"(terminated=%d missed=%d) — if intentional, update the constant and bump SimEpoch",
			r.ShardDigest, want, r.Terminated, r.Missed)
	}
}

// TestShardedBrokerInvariants checks the broker's conservation law and
// floor guarantee on the live pools: after a run, cell budgets sum to
// exactly Tenants×MemoryPages and no pool is under its reservations.
func TestShardedBrokerInvariants(t *testing.T) {
	cfg := tenantConfig(PolicyConfig{Kind: PolicyMinMax}, 3, 2, 600)
	r, err := newSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := r.run()
	sum := 0
	for _, c := range r.cells {
		if c.sys.pool.Total() < c.sys.pool.Reserved() {
			t.Errorf("cell %d: total %d < reserved %d",
				c.id, c.sys.pool.Total(), c.sys.pool.Reserved())
		}
		sum += c.sys.pool.Total()
	}
	if want := cfg.Tenants * 800; sum != want {
		t.Errorf("cell budgets sum to %d, want exactly %d", sum, want)
	}
	if r.epochs == 0 {
		t.Error("broker never ran an epoch")
	}
	// Merged counts must equal the cell totals.
	term := 0
	for _, c := range r.cells {
		term += c.sys.met.terminated
	}
	if res.Terminated != term || len(res.Events) != term {
		t.Errorf("merged %d terminations, %d events; cells terminated %d",
			res.Terminated, len(res.Events), term)
	}
	// The merged event stream must be time-ordered with deterministic
	// (time, shard) tie-breaks.
	for i := 1; i < len(res.Events); i++ {
		a, b := res.Events[i-1], res.Events[i]
		if a.Time > b.Time || (a.Time == b.Time && a.Shard > b.Shard) {
			t.Fatalf("event %d out of merge order: (%g,%d) before (%g,%d)",
				i, a.Time, a.Shard, b.Time, b.Shard)
		}
	}
}

// TestShardedBarrierAllocFree: once warm, the broker's work at a
// barrier allocates nothing — a whole exchange (reports, message sort,
// rebalance, replan) and the scarce rebalance, which sorts cells by
// remainder. The cells receive no queries, since a cell's policy
// allocates a grant slice whenever it has queries to replan, at
// barriers and at every arrival and departure alike; demand reports
// above the budget drive the scarce path instead.
func TestShardedBarrierAllocFree(t *testing.T) {
	cfg := tenantConfig(PolicyConfig{Kind: PolicyMinMax}, 3, 1, 600)
	cfg.Classes[0].ArrivalRate = 0
	r, err := newSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]sim.Partition, len(r.cells))
	for i, c := range r.cells {
		parts[i] = c
	}
	coord := sim.NewCoordinator(parts, 1, r.exchange)
	defer coord.Close()
	coord.Run(300)
	now := coord.Now()
	if n := testing.AllocsPerRun(100, func() { r.exchange(now) }); n != 0 {
		t.Errorf("warmed exchange allocates %v times", n)
	}
	// Every cell asks for more than the whole budget, so the broker
	// must share it out proportionally.
	msgs := make([]sim.Message, len(r.cells))
	for i, c := range r.cells {
		reserved := c.sys.pool.Reserved()
		msgs[i] = sim.Message{Shard: c.id, A: int64(reserved), B: int64(reserved + r.budget + i)}
	}
	if n := testing.AllocsPerRun(100, func() { r.rebalance(msgs) }); n != 0 {
		t.Errorf("scarce rebalance allocates %v times", n)
	}
}

// TestSimulateSingleTenant checks the dispatch fallback: Tenants ∈
// {0, 1} takes the classic single-kernel path — no shard digest, and
// identical results to constructing the System directly.
func TestSimulateSingleTenant(t *testing.T) {
	cfg := baselineConfig(PolicyConfig{Kind: PolicyMinMax}, 0.06, 600)
	for _, tenants := range []int{0, 1} {
		c := cfg
		c.Tenants = tenants
		c.Shards = 4 // must be ignored on this path
		got, err := Simulate(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.ShardDigest != "" {
			t.Fatalf("tenants=%d: unexpected shard digest %q", tenants, got.ShardDigest)
		}
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := sys.Run()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tenants=%d: Simulate differs from direct System run", tenants)
		}
	}
}
