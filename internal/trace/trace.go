// Package trace is the deterministic observability layer: typed,
// simulation-time records collected by a pure observer of the kernel's
// (time, seq) event stream plus system-level spans, instants, and
// counter timelines, exported as Chrome trace-event JSON (Perfetto)
// or CSV. See doc.go for the full contract.
package trace

// TrackID identifies one registered track (a counter timeline, a span
// lane, or an instant lane) within a Collector.
type TrackID int32

// Track kinds, fixed at registration.
const (
	// TrackCounter is a piecewise-constant numeric timeline (queue
	// depth, utilization, quota). Exported as Chrome "C" events.
	TrackCounter uint8 = iota
	// TrackSpan holds begin/end ranges (query lifecycle phases).
	// Exported as Chrome "X" complete events.
	TrackSpan
	// TrackInstant holds point events (rejections, grants, IO ops).
	// Exported as Chrome "i" instant events.
	TrackInstant
)

// Span kinds for the rtdbs query lifecycle.
const (
	// SpanWait covers arrival → admission (time in the admission queue).
	SpanWait uint8 = iota
	// SpanExec covers admission → termination (execution).
	SpanExec
)

// Span flags.
const (
	// FlagMissed marks a query that terminated past its deadline.
	FlagMissed uint8 = 1 << iota
	// FlagCompleted marks a query that ran to completion (missed
	// queries may be aborted before completing, depending on policy).
	FlagCompleted
)

// Instant kinds.
const (
	// InstReject is an admission-door rejection (bounded queue full).
	InstReject uint8 = iota
	// InstGrant is a memory-grant transition for a query; Val carries
	// the new grant in buffers (0 = suspended).
	InstGrant
	// InstFluctuation is a mid-run memory-allotment fluctuation.
	InstFluctuation
	// InstIO is one operator-level disk IO; Val carries the running
	// per-query IO count.
	InstIO
	// InstExchange is a broker quota exchange at a sync barrier; Val
	// carries the cell's post-exchange quota.
	InstExchange
)

// Kernel event kinds mirror internal/sim's typed event kinds by value
// (sim asserts the correspondence at compile time); Cancel is an extra
// trace-only kind recorded when an interrupt ends a hold.
const (
	_ uint8 = iota // 0 and 3 are retired; the other kinds keep their recorded values
	KindTurn
	KindWake
	_
	KindInterrupt
	KindComplete
	KindCompleteQ
	KindCancel
)

// KernelEventName returns a short human-readable name for a kernel
// event kind.
func KernelEventName(kind uint8) string {
	switch kind {
	case KindTurn:
		return "turn"
	case KindWake:
		return "wake"
	case KindInterrupt:
		return "interrupt"
	case KindComplete:
		return "complete"
	case KindCompleteQ:
		return "complete-q"
	case KindCancel:
		return "cancel"
	}
	return "?"
}

// Sink receives the kernel-level event stream. It is the interface
// internal/sim holds (nil-checked on every hot path); *Collector is the
// only production implementation. A Sink must be a pure observer: it
// may not schedule events, draw random numbers, or otherwise feed back
// into the simulation, so the (time, seq) stream is bit-identical
// whether a sink is attached or not.
type Sink interface {
	// Dispatch observes one executed kernel event: the clock, the
	// event's globally unique sequence number, its typed kind, and the
	// kind's payload (a task or completer registry index).
	Dispatch(at float64, seq uint64, kind uint8, arg int32)
	// Cancel observes an interrupt ending a hold whose wake, sequence
	// number seq, has not fired.
	Cancel(at float64, seq uint64)
	// WaitBegin observes a task queueing at a named gate.
	WaitBegin(at float64, gate string, task int32, prio float64)
	// WaitEnd observes the task leaving the gate's queue (released,
	// entering service, or interrupted out).
	WaitEnd(at float64, gate string, task int32)
	// TaskName registers the spawn name of kernel-local task id.
	TaskName(id int32, name string)
}

// KernelEvent is one recorded kernel-level event.
type KernelEvent struct {
	At   float64
	Seq  uint64
	Kind uint8
	Arg  int32
}

// GateEvent is one recorded gate-queue transition. Begin events carry
// the waiter's priority in Prio.
type GateEvent struct {
	At    float64
	Prio  float64
	Gate  TrackID
	Task  int32
	Begin bool
}

// Span is one recorded begin/end range on a span track.
type Span struct {
	Begin, End float64
	Aux        float64 // kind-specific payload (e.g. fluctuation count)
	ID         int64   // entity id (query number)
	Track      TrackID
	Class      int32 // workload class, -1 when not applicable
	Kind       uint8
	Flags      uint8
}

// Instant is one recorded point event on an instant track.
type Instant struct {
	At    float64
	Val   float64
	ID    int64
	Track TrackID
	Kind  uint8
}

// Sample is one recorded counter value.
type Sample struct {
	At    float64
	Val   float64
	Track TrackID
}

type trackInfo struct {
	name string
	kind uint8
}

// Collector accumulates trace records for one simulation run (one
// kernel). It implements Sink for the kernel-level stream and offers
// typed record methods for the system layer. Record methods never
// format strings and append fixed-size structs to reusable slices, so
// steady-state recording is allocation-free once capacity is warm
// (Reset keeps capacity). A Collector is not safe for concurrent use;
// sharded runs give each cell its own and merge at export (see Trace).
type Collector struct {
	Shard int32 // shard index for multi-cell runs (0 for single runs)

	winA, winB float64 // kernel-event window [winA, winB)
	windowed   bool

	kernel  []KernelEvent
	gates   []GateEvent
	spans   []Span
	insts   []Instant
	samples []Sample

	tracks    []trackInfo
	trackByID map[string]TrackID
	taskNames []string
	gateIDs   map[string]TrackID
}

// NewCollector returns an empty collector for shard 0.
func NewCollector() *Collector {
	return &Collector{
		trackByID: make(map[string]TrackID),
		gateIDs:   make(map[string]TrackID),
	}
}

// SetWindow restricts kernel-level event recording to simulated times
// in [a, b). System-level spans, instants, and counter samples are
// always recorded in full (they are orders of magnitude sparser) and
// filtered at export instead. b ≤ a disables kernel recording.
func (c *Collector) SetWindow(a, b float64) {
	c.winA, c.winB, c.windowed = a, b, true
}

// Window returns the kernel-event window and whether one is set.
func (c *Collector) Window() (a, b float64, ok bool) {
	return c.winA, c.winB, c.windowed
}

func (c *Collector) inWindow(at float64) bool {
	return !c.windowed || (at >= c.winA && at < c.winB)
}

// Reset discards all records but keeps track registrations and slice
// capacity, so a collector can be reused across replicates without
// re-allocating.
func (c *Collector) Reset() {
	c.kernel = c.kernel[:0]
	c.gates = c.gates[:0]
	c.spans = c.spans[:0]
	c.insts = c.insts[:0]
	c.samples = c.samples[:0]
	c.taskNames = c.taskNames[:0]
}

// Track registers (or looks up) a track by name. Registering the same
// name twice returns the same id; the kind of the first registration
// wins.
func (c *Collector) Track(name string, kind uint8) TrackID {
	if id, ok := c.trackByID[name]; ok {
		return id
	}
	id := TrackID(len(c.tracks))
	c.tracks = append(c.tracks, trackInfo{name: name, kind: kind})
	c.trackByID[name] = id
	return id
}

// TrackName returns the registered name of id.
func (c *Collector) TrackName(id TrackID) string { return c.tracks[id].name }

// Counter registers a counter track and returns a sampling handle that
// internal/sim meters can hold without knowing the Collector API.
func (c *Collector) Counter(name string) *Counter {
	return &Counter{c: c, id: c.Track(name, TrackCounter)}
}

// Counter is a handle to one counter track. The zero value is invalid;
// obtain one from Collector.Counter. internal/sim's meters hold a
// nil-checked *Counter so sampling costs one append when tracing and
// one pointer compare when not.
type Counter struct {
	c  *Collector
	id TrackID
}

// Sample records value v on the counter at simulated time at.
func (ct *Counter) Sample(at, v float64) {
	ct.c.samples = append(ct.c.samples, Sample{At: at, Val: v, Track: ct.id})
}

// Sample records a counter value directly by track id.
func (c *Collector) Sample(tr TrackID, at, v float64) {
	c.samples = append(c.samples, Sample{At: at, Val: v, Track: tr})
}

// AddSpan records a begin/end range on a span track.
func (c *Collector) AddSpan(tr TrackID, kind uint8, id int64, class int32, begin, end, aux float64, flags uint8) {
	c.spans = append(c.spans, Span{
		Begin: begin, End: end, Aux: aux, ID: id,
		Track: tr, Class: class, Kind: kind, Flags: flags,
	})
}

// AddInstant records a point event on an instant track.
func (c *Collector) AddInstant(tr TrackID, kind uint8, id int64, at, val float64) {
	c.insts = append(c.insts, Instant{At: at, Val: val, ID: id, Track: tr, Kind: kind})
}

// Dispatch implements Sink.
func (c *Collector) Dispatch(at float64, seq uint64, kind uint8, arg int32) {
	if !c.inWindow(at) {
		return
	}
	c.kernel = append(c.kernel, KernelEvent{At: at, Seq: seq, Kind: kind, Arg: arg})
}

// Cancel implements Sink.
func (c *Collector) Cancel(at float64, seq uint64) {
	if !c.inWindow(at) {
		return
	}
	c.kernel = append(c.kernel, KernelEvent{At: at, Seq: seq, Kind: KindCancel})
}

// WaitBegin implements Sink.
func (c *Collector) WaitBegin(at float64, gate string, task int32, prio float64) {
	if !c.inWindow(at) {
		return
	}
	c.gates = append(c.gates, GateEvent{At: at, Prio: prio, Gate: c.gateTrack(gate), Task: task, Begin: true})
}

// WaitEnd implements Sink.
func (c *Collector) WaitEnd(at float64, gate string, task int32) {
	if !c.inWindow(at) {
		return
	}
	c.gates = append(c.gates, GateEvent{At: at, Gate: c.gateTrack(gate), Task: task})
}

// gateTrack interns a gate name. The map hit path allocates nothing.
func (c *Collector) gateTrack(gate string) TrackID {
	if id, ok := c.gateIDs[gate]; ok {
		return id
	}
	id := c.Track("gate "+gate, TrackSpan)
	c.gateIDs[gate] = id
	return id
}

// TaskName implements Sink.
func (c *Collector) TaskName(id int32, name string) {
	for int32(len(c.taskNames)) <= id {
		c.taskNames = append(c.taskNames, "")
	}
	c.taskNames[id] = name
}

// taskName returns the recorded spawn name of task id, or "".
func (c *Collector) taskName(id int32) string {
	if int(id) < len(c.taskNames) {
		return c.taskNames[id]
	}
	return ""
}

// Counts reports how many records of each kind the collector holds.
func (c *Collector) Counts() (kernel, gates, spans, instants, samples int) {
	return len(c.kernel), len(c.gates), len(c.spans), len(c.insts), len(c.samples)
}

// Kernel returns the recorded kernel events in dispatch order. The
// slice is the collector's backing store — callers must not mutate it.
func (c *Collector) Kernel() []KernelEvent { return c.kernel }

// Gates returns the recorded gate wait begin/end events in order.
func (c *Collector) Gates() []GateEvent { return c.gates }

// Spans returns the recorded lifecycle spans in completion order.
func (c *Collector) Spans() []Span { return c.spans }

// Instants returns the recorded point events in emission order.
func (c *Collector) Instants() []Instant { return c.insts }

// Samples returns the recorded counter samples in emission order.
func (c *Collector) Samples() []Sample { return c.samples }

// Trace is a complete run trace: one collector per shard (a single-run
// trace has exactly one). Export methods merge shards into one file
// with a deterministic track order.
type Trace struct {
	Shards []*Collector
}

// Single wraps one collector as a complete trace.
func Single(c *Collector) *Trace { return &Trace{Shards: []*Collector{c}} }
