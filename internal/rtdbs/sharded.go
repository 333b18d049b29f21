package rtdbs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"pmm/internal/sim"
	"pmm/internal/trace"
	"pmm/internal/workload"
)

// Multi-tenant partitioned execution. Tenants > 1 replicates the
// configured topology into independent cells — one complete RTDBS
// (CPU, disk farm, buffer pool, workload sources, admission controller,
// policy instance) per tenant, each on its own kernel with its own
// splitmix64 seed stream — coupled only through a global memory broker:
// the paper's memory-admission gate lifted to cross-cell scope. The
// combined buffer budget is Tenants × MemoryPages; at every epoch
// boundary k·SyncInterval the broker collects per-cell demand reports,
// folds them in the deterministic (time, seq, shard) message order, and
// rebalances cell budgets, flooring each quota at the cell's current
// reservations (granted memory is never clawed back mid-flight; it
// returns to the broker as queries release it and the next report shows
// the lower demand).
//
// Because cells cannot interact between epochs, SyncInterval is an
// exact conservative lookahead: the sim.Coordinator advances every cell
// kernel to the next epoch boundary — concurrently across Shards worker
// threads — and runs the broker at the barrier. Shards is therefore a
// pure execution knob: any value, including 1, produces bit-for-bit
// identical simulations, which the conformance tests pin.

// msgDemandReport is the one cross-cell message kind: A carries the
// cell's reserved pages (its quota floor), B its demand.
const msgDemandReport = 1

// cell is one tenant's complete system plus its partition adapter.
type cell struct {
	id  int32
	sys *System
	run *shardedRun
}

// Kernel implements sim.Partition.
func (c *cell) Kernel() *sim.Kernel { return c.sys.k }

// Horizon implements sim.Partition: the next broker epoch boundary. All
// cells share it, so windows are global barriers. The boundary is
// computed multiplicatively from the epoch counter — not by repeated
// addition — so it is exact for any epoch count.
func (c *cell) Horizon() float64 { return c.run.horizon() }

// report returns the cell's quota floor (pages currently reserved by
// admitted queries) and its demand: the pages needed for every present
// query to hold max(current allocation, admission minimum). Demand is
// deliberately the admission floor, not the maximum-benefit allocation —
// the broker guarantees admission capacity and leaves benefit-driven
// topping-up to each cell's own policy, mirroring how the paper
// separates admission from allocation.
func (c *cell) report() (reserved, demand int) {
	reserved = c.sys.pool.Reserved()
	for _, q := range c.sys.ctrl.present {
		want := q.Alloc
		if q.MinMem > want {
			want = q.MinMem
		}
		demand += want
	}
	return reserved, demand
}

// shardedRun drives one multi-tenant simulation.
type shardedRun struct {
	cfg    Config
	cells  []*cell
	budget int // Tenants × MemoryPages
	epochs int // broker exchanges completed

	// Adaptive lookahead (Config.SyncStretch): the barrier sits at
	// SyncInterval·(ticks+stride). stride doubles — up to SyncStretch —
	// after every exchange in which no cell changed its demand class,
	// and snaps back to 1 when any cell flips, so idle or unconstrained
	// systems pay fewer barriers while contended ones keep the fine
	// interval. Both counters are integers and the boundary is computed
	// multiplicatively, so it stays exact for any epoch count.
	ticks       int
	stride      int
	constrained []bool // demand class per cell at the last exchange
	seen        bool   // constrained[] holds a real previous exchange

	// Per-epoch scratch, reused so the barrier allocates nothing in
	// steady state.
	msgs   []sim.Message
	quotas []int
	needs  []int
	order  []int
}

// newSharded builds the cells of a multi-tenant run. Each cell is a
// full System constructed from the tenant-local view of the config
// (single-tenant, MemoryPages of budget, its own derived seed); cell
// construction order is the cell ID order, so the whole topology is a
// pure function of the canonical config.
func newSharded(cfg Config) (*shardedRun, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &shardedRun{cfg: cfg, budget: cfg.Tenants * cfg.MemoryPages}
	for i := 0; i < cfg.Tenants; i++ {
		cc := cfg
		cc.Tenants, cc.Shards, cc.SyncInterval, cc.SyncStretch = 0, 0, 0, 0
		cc.Seed = workload.ShardSeed(cfg.Seed, i)
		sys, err := New(cc)
		if err != nil {
			return nil, fmt.Errorf("rtdbs: cell %d: %w", i, err)
		}
		r.cells = append(r.cells, &cell{id: int32(i), sys: sys, run: r})
	}
	n := len(r.cells)
	r.stride = 1
	r.constrained = make([]bool, n)
	r.msgs = make([]sim.Message, 0, n)
	r.quotas = make([]int, n)
	r.needs = make([]int, n)
	r.order = make([]int, n)
	return r, nil
}

// horizon is the next epoch boundary shared by every cell.
func (r *shardedRun) horizon() float64 {
	return r.cfg.SyncInterval * float64(r.ticks+r.stride)
}

// run simulates the configured horizon and merges the cell results.
func (r *shardedRun) run() *Results {
	parts := make([]sim.Partition, len(r.cells))
	for i, c := range r.cells {
		parts[i] = c
	}
	coord := sim.NewCoordinator(parts, r.cfg.Shards, r.exchange)
	defer coord.Close()
	coord.Run(r.cfg.Duration)
	return r.merge(coord.Now())
}

// exchange is the broker barrier: every cell has advanced to exactly
// time now. Cells emit demand-report messages, the messages are put in
// the deterministic (time, seq, shard) order, the broker folds them
// into new quotas, and each cell applies its quota and replans — all in
// that fixed order, so the outcome is independent of how the preceding
// window was scheduled across workers.
func (r *shardedRun) exchange(now float64) {
	r.msgs = r.msgs[:0]
	for _, c := range r.cells {
		reserved, demand := c.report()
		r.msgs = append(r.msgs, sim.Message{
			At: now, Seq: uint64(r.epochs), Shard: c.id,
			Kind: msgDemandReport, A: int64(reserved), B: int64(demand),
		})
	}
	sim.SortMessages(r.msgs)
	r.rebalance(r.msgs)
	// Traced cells record their post-exchange quota — one counter sample
	// plus one exchange instant per cell per barrier. The barrier runs
	// single-threaded with every cell parked on `now`, so writing to the
	// cells' collectors here is race-free.
	for i, m := range r.msgs {
		if tr := r.cells[m.Shard].sys.tr; tr != nil {
			tr.quota.Sample(now, float64(r.quotas[i]))
			tr.c.AddInstant(tr.exchT, trace.InstExchange, int64(r.epochs), now, float64(r.quotas[i]))
		}
	}
	// Replan every cell at every epoch, in cell order: cells whose
	// quota grew admit waiting queries now, cells whose quota shrank
	// converge as queries depart. The wakes this schedules fire at the
	// barrier time as the first events of the next window.
	for _, c := range r.cells {
		c.sys.ctrl.replan()
	}
	r.ticks += r.stride
	r.epochs++
	if r.cfg.SyncStretch > 1 {
		// A cell's demand class: memory-constrained iff the broker could
		// not cover its reported demand. Computed from the same sorted
		// messages and final quotas every worker schedule produces, so
		// the stride sequence — and with it every barrier time — is
		// identical for any Shards value.
		changed := !r.seen
		for i, m := range r.msgs {
			c := int(m.B) > r.quotas[i]
			if !r.seen || c != r.constrained[m.Shard] {
				changed = true
			}
			r.constrained[m.Shard] = c
		}
		r.seen = true
		if changed {
			r.stride = 1
		} else if r.stride < r.cfg.SyncStretch {
			r.stride *= 2
			if r.stride > r.cfg.SyncStretch {
				r.stride = r.cfg.SyncStretch
			}
		}
	}
}

// rebalance computes and applies new cell quotas from the sorted
// demand reports. Each quota is floored at the cell's reservations;
// the remaining budget covers unmet demand — in full when it fits,
// otherwise proportionally by largest remainder (ties to the lower
// cell ID) — and any surplus is spread evenly. The quotas always sum
// to exactly the global budget.
func (r *shardedRun) rebalance(msgs []sim.Message) {
	n := len(msgs)
	quotas, needs := r.quotas[:n], r.needs[:n]
	totalFloor, totalNeed := 0, 0
	for i, m := range msgs {
		floor := int(m.A)
		need := int(m.B) - floor
		if need < 0 {
			need = 0
		}
		quotas[i], needs[i] = floor, need
		totalFloor += floor
		totalNeed += need
	}
	extra := r.budget - totalFloor
	if extra < 0 {
		panic(fmt.Sprintf("rtdbs: broker over-commit: %d reserved > %d budget",
			totalFloor, r.budget))
	}
	if totalNeed <= extra {
		// Demand fits: satisfy it and spread the surplus evenly, one
		// leftover page each to the lowest cell IDs.
		left := extra - totalNeed
		per, rem := left/n, left%n
		for i := range quotas {
			quotas[i] += needs[i] + per
			if i < rem {
				quotas[i]++
			}
		}
	} else {
		// Scarce: distribute extra proportionally to unmet need with
		// largest-remainder rounding, remainder ties to lower cell IDs.
		given := 0
		order := r.order[:n]
		for i := range quotas {
			share := extra * needs[i] / totalNeed
			quotas[i] += share
			given += share
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			ra := extra * needs[order[a]] % totalNeed
			rb := extra * needs[order[b]] % totalNeed
			if ra != rb {
				return ra > rb
			}
			return order[a] < order[b]
		})
		for j := 0; j < extra-given; j++ {
			quotas[order[j]]++
		}
	}
	for i, m := range msgs {
		c := r.cells[m.Shard]
		if quotas[i] != c.sys.pool.Total() {
			c.sys.pool.SetTotal(quotas[i])
		}
	}
}

// merge folds the cell results into one Results, in cell-ID order.
// Count-like fields sum; the mean/variance accumulators merge exactly
// (Welford merge, not weighted means); utilizations average across
// cells except MaxDiskUtil, which stays a maximum; termination events
// interleave by (time, cell) with within-cell order preserved.
func (r *shardedRun) merge(now float64) *Results {
	cfg := r.cfg
	agg := newMetrics(len(cfg.Classes))
	var events []TermEvent
	var lruHits, lruMisses uint64
	var cpuUtil, avgDisk, maxDisk, avgMPL float64
	var pmmRestarts int
	res := &Results{Policy: cfg.PolicyName(), Duration: now}
	for _, c := range r.cells {
		m := c.sys.met
		agg.arrived += m.arrived
		agg.terminated += m.terminated
		agg.completed += m.completed
		agg.missed += m.missed
		agg.rejected += m.rejected
		agg.missedNoAdm += m.missedNoAdm
		for ci := range agg.classTerm {
			agg.classTerm[ci] += m.classTerm[ci]
			agg.classMissed[ci] += m.classMissed[ci]
			agg.classRejected[ci] += m.classRejected[ci]
		}
		agg.queueDelay.Merge(m.queueDelay)
		agg.wait.Merge(m.wait)
		agg.exec.Merge(m.exec)
		agg.resp.Merge(m.resp)
		agg.fluct.Merge(m.fluct)
		agg.ioAmp.Merge(m.ioAmp)
		agg.execOverSA.Merge(m.execOverSA)
		agg.missedIOProg.Merge(m.missedIOProg)
		for qi := range agg.slackQTerm {
			agg.slackQTerm[qi] += m.slackQTerm[qi]
			agg.slackQMiss[qi] += m.slackQMiss[qi]
		}
		for _, ev := range m.events {
			ev.Shard = c.id
			events = append(events, ev)
		}
		hits, misses, _ := c.sys.pool.Stats()
		lruHits += hits
		lruMisses += misses
		res.IOBreakdown.RelRead += c.sys.env.IOBreakdown.RelRead
		res.IOBreakdown.SpoolWrite += c.sys.env.IOBreakdown.SpoolWrite
		res.IOBreakdown.SpoolRead += c.sys.env.IOBreakdown.SpoolRead
		cpuUtil += c.sys.cpu.Meter().Utilization(0, 0)
		zero := make([]float64, c.sys.disks.NumDisks())
		avgDisk += c.sys.disks.AvgUtilization(0, zero)
		if d := c.sys.disks.MaxUtilization(0, zero); d > maxDisk {
			maxDisk = d
		}
		avgMPL += c.sys.ctrl.mplMeter.Average(0, 0)
		if c.sys.pmm != nil {
			pmmRestarts += c.sys.pmm.Restarts()
		}
	}
	// Interleave cell event streams into one time line: stable sort on
	// (time, cell) keeps each cell's internal order and breaks
	// same-instant ties by cell ID — the same total order for any
	// worker schedule.
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Time != events[j].Time {
			return events[i].Time < events[j].Time
		}
		return events[i].Shard < events[j].Shard
	})
	nc := float64(len(r.cells))
	res.Arrived = agg.arrived
	res.Terminated = agg.terminated
	res.Completed = agg.completed
	res.Missed = agg.missed
	res.Rejected = agg.rejected
	if agg.terminated > 0 {
		res.MissRatio = float64(agg.missed) / float64(agg.terminated)
	}
	if agg.arrived > 0 {
		res.LossRatio = float64(agg.rejected) / float64(agg.arrived)
	}
	res.MissRatioHW90 = missCI(events)
	res.AvgQueueDelay = agg.queueDelay.Mean()
	res.AvgWait = agg.wait.Mean()
	res.AvgExec = agg.exec.Mean()
	res.AvgResponse = agg.resp.Mean()
	res.AvgFluctuations = agg.fluct.Mean()
	res.AvgIOAmplification = agg.ioAmp.Mean()
	res.AvgExecOverSA = agg.execOverSA.Mean()
	res.MissedNeverAdmitted = agg.missedNoAdm
	res.AvgMissedIOProgress = agg.missedIOProg.Mean()
	res.AvgMPL = avgMPL
	res.CPUUtil = cpuUtil / nc
	res.AvgDiskUtil = avgDisk / nc
	res.MaxDiskUtil = maxDisk
	for ci, cl := range cfg.Classes {
		cr := ClassResult{
			Name: cl.Name, Terminated: agg.classTerm[ci],
			Missed: agg.classMissed[ci], Rejected: agg.classRejected[ci],
		}
		if cr.Terminated > 0 {
			cr.MissRatio = float64(cr.Missed) / float64(cr.Terminated)
		}
		res.PerClass = append(res.PerClass, cr)
	}
	for qi := range res.MissBySlackQuartile {
		if agg.slackQTerm[qi] > 0 {
			res.MissBySlackQuartile[qi] = float64(agg.slackQMiss[qi]) / float64(agg.slackQTerm[qi])
		}
	}
	res.LRUHits, res.LRUMisses = lruHits, lruMisses
	res.Events = events
	res.PMMRestarts = pmmRestarts
	res.BrokerExchanges = r.epochs
	res.ShardDigest = r.digest()
	return res
}

// digest fingerprints the combined run at the model level: per-cell
// arrival/termination counters, exact per-disk state (served requests,
// sequential hits, bitwise busy time), CPU busy time, buffer-pool
// traffic, and the full termination stream, folded in cell-ID order.
// Two runs of the same canonical config match digests exactly — for
// any Shards value — or one of them simulated different behavior.
// Kernel step counts are not folded: the digest covers model-visible
// state only.
func (r *shardedRun) digest() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, c := range r.cells {
		put(uint64(c.id))
		put(uint64(c.sys.met.arrived))
		put(uint64(c.sys.met.terminated))
		put(uint64(c.sys.met.completed))
		put(uint64(c.sys.met.missed))
		put(uint64(c.sys.met.rejected))
		for i := 0; i < c.sys.disks.NumDisks(); i++ {
			d := c.sys.disks.Disk(i)
			put(d.Served())
			put(d.SeqHits())
			put(math.Float64bits(d.Meter().BusyTime()))
		}
		put(math.Float64bits(c.sys.cpu.Meter().BusyTime()))
		hits, misses, _ := c.sys.pool.Stats()
		put(hits)
		put(misses)
		put(uint64(len(c.sys.met.events)))
		for _, ev := range c.sys.met.events {
			put(math.Float64bits(ev.Time))
			put(uint64(ev.Class))
			if ev.Missed {
				put(1)
			} else {
				put(0)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Simulate runs one configuration to completion: the classic
// single-kernel System for single-tenant configs (on arena a, which may
// be nil), the partitioned multi-tenant path for Tenants > 1 (cells own
// private arenas; a is unused). This is the one entry point the runner
// and the public API dispatch through.
func Simulate(cfg Config, a *sim.Arena) (*Results, error) {
	if cfg.Tenants > 1 {
		r, err := newSharded(cfg)
		if err != nil {
			return nil, err
		}
		return r.run(), nil
	}
	sys, err := NewWithArena(cfg, a)
	if err != nil {
		return nil, err
	}
	return sys.Run(), nil
}
