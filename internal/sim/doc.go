// Package sim is a deterministic discrete-event simulation kernel with
// process-oriented semantics, in the style of the DeNet simulation
// language the original paper used.
//
// The kernel owns a virtual clock and an event queue ordered by
// (time, insertion sequence).  Processes cooperate with the kernel:
// exactly one of {kernel, some process} runs at any instant, so
// simulations are fully deterministic for a fixed seed and schedule.
//
// The scheduling core is allocation-free in steady state and built
// around a hierarchical timing wheel rather than a priority heap: event
// records are pooled and recycled, timed events hang in intrusive
// per-bucket lists on a multi-level wheel (power-of-two bucket widths,
// cascading overflow levels, a far-future heap beyond the outermost
// horizon), a two-entry front register bank serves sparse schedules
// without touching the wheel at all, and zero-delay events — process
// turns, wakes, gate grants — bypass everything through a
// same-timestamp FIFO fast lane.  Scheduling and cancellation are O(1);
// the wheel advances by draining whole buckets, sorted in one batched
// pass.  See kernel.go and wheel.go for the ordering argument; the
// observable contract is unchanged: events fire in exact
// (time, sequence) order.
//
// Events are typed, not closures.  The kernel's own events (task
// wakes, park wakes, interrupts, completions) carry a 3-bit kind and a
// 29-bit task/completion index packed into one int32 in the event
// slot, and Step dispatches them through a single switch — firing an
// event is array index + direct call, with no closure environment kept
// alive.  Task turns go further and use no slot at all: the fast-lane
// entry itself names the task.  Kernel.At is the closure escape hatch
// (kind 0) for tests, workload sources and controllers.
//
// Memory placement is caller-controlled.  NewKernel heap-allocates;
// NewKernelIn builds the kernel and its queue backings from an Arena —
// bump-allocated slabs (SlabFor, AllocFrom) that a sweep worker Resets
// between replicates, so steady-state replicates run entirely on
// recycled memory.  Inline-process frames and operator scratch are
// allocated from the same arena by their owners.
//
// Processes block with Hold (advance local time), Park (wait for an
// external Wake), or by queueing on a Server.  Any blocked process can be
// Interrupted — used by firm real-time deadlines to abort queries — in
// which case the blocking call reports the interruption so the process
// can unwind and release resources.  Each representation (goroutine
// Proc, inline frame machine) arms the same waits through the same
// taskCore, so the two produce bit-for-bit identical event sequences.
//
// # Elision
//
// A resource that starts service on an idle channel can often prove
// that its completion will be the very next event. Then the completion
// event, the caller's wake and its resumed turn exist only to route the
// caller back through the queue. Kernel.Elide(at, events) makes that
// proof. The completion at at = now+service is next when all five
// conditions hold:
//
//  1. no trace sink is attached;
//  2. the zero-delay lane holds no live entry;
//  3. the earliest timed event lies strictly after at (an equal time
//     carries a lower sequence number and wins);
//  4. at ≤ the until of the Run in progress;
//  5. the service time is positive and the caller has no pending
//     interrupt (the caller checks this one).
//
// On success the clock is set to exactly now+service, the float
// expression the queued path files the completion under. The caller
// applies the completion's state changes and continues in the same
// turn, with the service reported as finished: (entered=false, ok=true)
// from Server.StartUse and the disk's Start methods. Steps counts the
// events skipped, 2 per CPU burst (completion and turn) and 3 per disk
// access (completion, hold wake and turn), so Steps, results and golden
// digests are identical with elision on or off. Elided counts the
// completions run inline. There is no switch: attaching a sink turns
// elision off, which is how the conformance tests compare the two paths.
//
// # Partitioned execution
//
// A simulation too large for one kernel can be sharded across several
// (partition.go).  Each Partition owns a private kernel — no event,
// process, or resource is shared — and declares a Horizon: the earliest
// simulated time at which it might need to interact with another
// partition (the conservative lookahead of classic parallel
// discrete-event simulation).  A Coordinator advances all partitions in
// lock-step windows: each window runs every kernel to the minimum
// horizon (Kernel.Run fires events with time ≤ the bound and parks the
// clock exactly on it), then a caller-supplied exchange callback
// performs the cross-partition interaction at the barrier.  Within a
// window partitions are independent by construction, so the Coordinator
// may step them on parallel worker goroutines — a persistent Pool of
// parked workers created once and recruited per window with
// non-blocking sends, allocation-free in steady state; determinism is
// preserved because no kernel is ever observed mid-window and the
// exchange runs single-threaded at the barrier.
//
// Cross-partition interactions are carried by Message values ordered by
// SortMessages under the (At, Seq, Shard) key — a total order fixed by
// the simulation content alone.  The combined system is therefore
// bit-for-bit deterministic for any worker count, including workers=1:
// the parallelism is an execution knob, never a semantic one.  The
// rtdbs layer builds on this to run multi-tenant configurations as one
// cell per partition, coupled only through the global memory broker at
// window barriers.
//
// # Trace sinks
//
// Kernel.SetSink attaches a trace.Sink that observes every dispatched
// event (with its time, sequence number, typed kind, and payload),
// every successful timer cancel, and every gate-queue transition
// (enqueue, release, service entry, interrupt removal), plus the spawn
// name of each registered task.  The sink contract is strict: a sink is
// a pure observer of the (time, seq) stream and must not schedule
// events, spawn processes, draw random numbers, or mutate any simulated
// state — under that contract, attaching a sink cannot change the
// simulation, and runs are bit-for-bit identical with tracing on or
// off (pinned by the golden-digest trace tests).  All hooks are
// nil-checked single branches; with no sink attached the kernel's hot
// paths remain allocation-free (CI-guarded), and with a
// trace.Collector attached, recording appends fixed-size structs to
// warm slices, so steady-state tracing is allocation-free too.
// BusyMeter.Trace and TimeWeighted.Trace optionally mirror meter
// transitions onto counter timelines under the same pure-observer
// rules.
package sim
