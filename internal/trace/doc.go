// Package trace is the simulation's deterministic observability layer.
//
// It sits below internal/sim in the dependency order (sim imports
// trace, never the reverse) and collects three kinds of telemetry from
// one simulation run:
//
//   - Kernel events. internal/sim's Kernel holds a nil-checked
//     trace.Sink and reports every dispatched event (task turns, timed
//     wakes, interrupts, service completions), every hold an interrupt
//     cancels, and every gate-queue transition. The
//     sink is a pure observer of the kernel's (time, seq) stream: it
//     may not schedule events or draw random numbers, so attaching one
//     cannot change the simulation — golden-digest tests pin that runs
//     are bit-identical with tracing on and off. With no sink attached
//     the hooks cost a pointer compare; the kernel hot paths stay
//     0 allocs/op either way (CI-guarded benchmarks
//     BenchmarkTraceDisabled / BenchmarkTraceEnabled).
//
//   - System records. internal/rtdbs emits per-query lifecycle spans
//     (admission-queue wait, execution, missed/completed flags),
//     instants (rejections, memory grants, allotment fluctuations,
//     per-operator IOs, broker quota exchanges), and counter timelines
//     (admission-queue depth, multiprogramming level, reserved pool
//     buffers, CPU and per-disk utilization, the offered arrival-rate
//     envelope, per-cell broker quotas) into the same Collector via
//     typed record methods.
//
//   - Export. A Trace (one Collector per shard) serializes to Chrome
//     trace-event JSON — WriteChrome emits "M"/"X"/"C"/"i" phases with
//     timestamps in microseconds of *simulated* time, loadable directly
//     into Perfetto or chrome://tracing, one process per shard and one
//     named thread per track — or to flat CSV counter timelines
//     (WriteCSV) for the figure drivers.
//
// Recording is allocation-light by design: every record is a fixed-size
// struct appended to a reusable slice, no strings are formatted at
// record time (names resolve at export), and Collector.Reset keeps
// capacity so a warm collector records with zero steady-state
// allocations. Kernel events — the only high-volume stream — can be
// restricted to a simulated-time window with SetWindow
// (rtdbsim -trace-window=a:b); system records are always kept.
//
// A Collector is single-goroutine, matching the kernel it observes.
// Sharded runs (rtdbs.Config.Tenants with Shards workers) give each
// cell its own Collector — cells advance concurrently — and merge them
// only at export, where shards map to Chrome processes. Export order is
// deterministic for a deterministic simulation, so traced reruns emit
// byte-identical files.
package trace
