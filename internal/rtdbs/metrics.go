package rtdbs

import (
	"pmm/internal/core"
	"pmm/internal/query"
	"pmm/internal/stats"
)

// TermEvent is one query termination, for time-series analyses
// (miss-ratio-over-time plots, per-interval averages, batch-means CIs).
type TermEvent struct {
	Time   float64
	Class  int
	Missed bool
	// Shard is the cell the query ran in (0 for single-tenant runs).
	Shard int32
}

// Metrics accumulates run statistics.
type Metrics struct {
	arrived    int
	terminated int
	completed  int
	missed     int
	rejected   int // arrivals shed at the bounded admission queue

	classTerm     []int
	classMissed   []int
	classRejected []int

	wait       stats.Welford // admission wait, completed queries
	exec       stats.Welford // execution time, completed queries
	resp       stats.Welford // response time, completed queries
	fluct      stats.Welford // allocation changes per query, all terminations
	ioAmp      stats.Welford // IOCount/ReadIOs, completed queries
	queueDelay stats.Welford // arrival→first grant, every admitted query

	execOverSA   stats.Welford // exec/StandAlone, completed queries
	missedIOProg stats.Welford // IOCount/ReadIOs at abort, missed queries
	missedNoAdm  int           // missed without ever holding memory
	slackQTerm   [4]int        // terminations by slack-ratio quartile
	slackQMiss   [4]int        // misses by slack-ratio quartile

	events []TermEvent
}

func newMetrics(numClasses int) *Metrics {
	return &Metrics{
		classTerm:     make([]int, numClasses),
		classMissed:   make([]int, numClasses),
		classRejected: make([]int, numClasses),
	}
}

// recordRejection counts one arrival shed at the bounded admission
// queue. Rejections never enter the termination event stream — they
// carry no query state — so the miss-ratio time series stays a property
// of admitted work.
func (m *Metrics) recordRejection(class int) {
	m.rejected++
	m.classRejected[class]++
}

// recordTermination folds one finished query into the statistics.
func (m *Metrics) recordTermination(q *query.Query, completed bool) {
	m.terminated++
	m.classTerm[q.Class]++
	if completed {
		m.completed++
		m.wait.Add(q.AdmitTime - q.Arrival)
		m.exec.Add(q.FinishTime - q.AdmitTime)
		m.resp.Add(q.FinishTime - q.Arrival)
		if q.ReadIOs > 0 {
			m.ioAmp.Add(float64(q.IOCount) / float64(q.ReadIOs))
		}
		if q.StandAlone > 0 {
			m.execOverSA.Add((q.FinishTime - q.AdmitTime) / q.StandAlone)
		}
	} else {
		m.missed++
		m.classMissed[q.Class]++
		if !q.Admitted {
			m.missedNoAdm++
		}
		if q.ReadIOs > 0 {
			m.missedIOProg.Add(float64(q.IOCount) / float64(q.ReadIOs))
		}
	}
	m.fluct.Add(float64(q.Fluctuations))
	qi := slackQuartile(q.SlackRatio)
	m.slackQTerm[qi]++
	if !completed {
		m.slackQMiss[qi]++
	}
	m.events = append(m.events, TermEvent{Time: q.FinishTime, Class: q.Class, Missed: !completed})
}

// slackQuartile buckets a slack ratio drawn from [2.5, 7.5].
func slackQuartile(s float64) int {
	q := int((s - 2.5) / 1.25)
	if q < 0 {
		q = 0
	}
	if q > 3 {
		q = 3
	}
	return q
}

// ClassResult summarizes one workload class.
type ClassResult struct {
	Name       string
	Terminated int
	Missed     int
	MissRatio  float64
	// Rejected counts class arrivals shed at the bounded admission
	// queue (0 unless Config.AdmitQueue > 0).
	Rejected int
}

// Results is the summary of one simulation run.
type Results struct {
	// Policy is the allocation algorithm's display name.
	Policy string
	// Duration is the simulated horizon in seconds.
	Duration float64

	Arrived    int
	Terminated int
	Completed  int
	Missed     int
	// Rejected counts arrivals shed at the bounded admission queue
	// (Config.AdmitQueue); rejected arrivals never become queries.
	Rejected int
	// MissRatio is missed/terminated — the paper's primary metric.
	MissRatio float64
	// LossRatio is rejected/arrived — the open-system shed fraction.
	LossRatio float64
	// AvgQueueDelay is the mean arrival→first-grant delay over every
	// admitted query (AvgWait restricts to completed ones).
	AvgQueueDelay float64
	// MissRatioHW90 is the 90% batch-means half-width of MissRatio.
	MissRatioHW90 float64

	PerClass []ClassResult

	// AvgWait, AvgExec and AvgResponse are the Table 7 timings, averaged
	// over completed queries, in seconds.
	AvgWait, AvgExec, AvgResponse float64

	// AvgDiskUtil is the mean utilization across disks; MaxDiskUtil the
	// busiest disk; CPUUtil the processor.
	AvgDiskUtil, MaxDiskUtil, CPUUtil float64

	// AvgMPL is the time-averaged observed multiprogramming level.
	AvgMPL float64

	// AvgFluctuations is the mean number of memory-allocation changes
	// per query (Figure 7).
	AvgFluctuations float64

	// AvgIOAmplification is the mean IOCount/ReadIOs over completed
	// queries: 1.0 means one-pass execution, ~3 means full spooling.
	AvgIOAmplification float64

	// AvgExecOverSA is the mean execution-time/stand-alone ratio of
	// completed queries (1.0 = ran as if alone at max memory).
	AvgExecOverSA float64
	// MissedNeverAdmitted counts missed queries that never held memory.
	MissedNeverAdmitted int
	// AvgMissedIOProgress is the mean I/O progress (issued I/Os over
	// operand-read I/Os) of missed queries at abort time.
	AvgMissedIOProgress float64
	// MissBySlackQuartile is the miss ratio within each quartile of the
	// slack-ratio range, tightest deadlines first.
	MissBySlackQuartile [4]float64

	// LRUHits/LRUMisses are buffer-cache counters for the unreserved pool.
	LRUHits, LRUMisses uint64

	// IOBreakdown decomposes page traffic by purpose across all queries.
	IOBreakdown query.IOStats

	// Events lists every termination in time order.
	Events []TermEvent

	// PMMTrace is the controller's per-batch decision trace (PMM only;
	// nil for multi-tenant runs, where each cell has its own PMM).
	PMMTrace []core.TracePoint
	// PMMRestarts counts workload-change resets (PMM only; summed over
	// cells for multi-tenant runs).
	PMMRestarts int

	// BrokerExchanges counts broker barriers executed (multi-tenant runs
	// only).
	BrokerExchanges int

	// ShardDigest fingerprints a partitioned run's combined outcome:
	// a SHA-256 over every cell's kernel step count and termination
	// events, folded in cell-ID order. Equal configurations produce
	// equal digests for every Shards value — the conformance tests pin
	// it. Empty for single-tenant runs.
	ShardDigest string
}

// ClassMissRatio returns the miss ratio of the named class, or -1 when
// the class terminated no queries.
func (r *Results) ClassMissRatio(name string) float64 {
	for _, c := range r.PerClass {
		if c.Name == name {
			return c.MissRatio
		}
	}
	return -1
}

// MissRatioBetween returns the miss ratio over terminations in [t0, t1),
// optionally restricted to one class (class < 0 means all). It returns
// the ratio and the number of terminations considered.
func (r *Results) MissRatioBetween(t0, t1 float64, class int) (ratio float64, n int) {
	missed := 0
	for _, ev := range r.Events {
		if ev.Time < t0 || ev.Time >= t1 {
			continue
		}
		if class >= 0 && ev.Class != class {
			continue
		}
		n++
		if ev.Missed {
			missed++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(missed) / float64(n), n
}

// missCI computes the 90% batch-means half-width over the miss series.
func missCI(events []TermEvent) float64 {
	if len(events) < 20 {
		return 0
	}
	obs := make([]float64, len(events))
	for i, ev := range events {
		if ev.Missed {
			obs[i] = 1
		}
	}
	return stats.NewBatchMeans(obs, 10).HalfWidth(0.90)
}
