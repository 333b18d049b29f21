// Package sim is a deterministic discrete-event simulation kernel with
// process-oriented semantics, in the style of the DeNet simulation
// language the original paper used.
//
// The kernel owns a virtual clock and an event queue ordered by
// (time, insertion sequence).  Processes cooperate with the kernel:
// exactly one of {kernel, some process} runs at any instant, so
// simulations are fully deterministic for a fixed seed and schedule.
//
// The scheduling core is allocation-free in steady state: event
// records are pooled and recycled, timed events wait in two 4-ary
// min-heaps ordered by (time, sequence), and zero-delay events —
// process turns, wakes, gate grants — bypass the heaps through a
// same-timestamp FIFO fast lane.  Firm-deadline aborts (AtInterrupt)
// have a heap of their own, since they sit pending for a query's whole
// life and rarely fire; every other timed event goes to the main heap,
// and the next timed event is the smaller of the two roots.  Run and
// Step select each event once, through the same body.  Cancellation
// leaves a tombstone that the heaps drop at their roots, and they
// compact themselves once tombstones outnumber live entries; while no
// tombstone can be pending, a root read does not check the event's
// slot.  See kernel.go and queue.go.
//
// The CPU and disk queues are Gates, which keep their waiters in
// (priority, arrival) order, so the Earliest-Deadline pick is the head
// of the queue.  See gate.go.
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
// recycled memory.  Processes, their frames and operator scratch are
// allocated from the same arena by their owners.
//
// Every process is a Proc whose body is a stack of frames (see Frames
// below), started by Kernel.Spawn.  A process waits by arming one wait
// and parking: StartHold (advance local time), StartPark (wait for an
// external Wake), Gate.Enqueue, or Server.StartUse and the resource
// accesses built on it.  Each Start* call reports whether the wait was
// entered; if not, it finished within the call and the frame goes on in
// the same turn.  Any waiting process can be Interrupted — used by firm
// real-time deadlines to abort queries — in which case the wait's
// outcome reports the interruption so the process can unwind and
// release resources.  Script is a ready-made frame for ad-hoc processes
// in tests and tools.  Outside the partition pool (partition.go), the
// package starts no goroutine and makes no channel.
//
// # Frames
//
// A process's frames (inline.go) are resumable activation records with
// a program counter, stepped by the kernel on its own goroutine: a turn
// is a call into the top frame, and parking is returning from it. A
// frame's Step runs until it parks after arming exactly one wait, calls
// a child with Machine.Call, or returns a result with Machine.Return.
// The contract has one rule for children: enter a child only when it
// can block; the child's step 0 and its callers share one entry test.
// A child that per-block loops consult, such as an operator's memory or
// pacing check, exposes a method reporting whether its step 0 would
// return true at once, arming no wait and changing no state. Its step 0
// calls that method first, and a caller that finds it true continues
// with ok=true instead of entering. Skipping a child then changes no
// event, no sequence number and no step count, only the host work of a
// push, a Step and a pop.
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
// # Riding wakes
//
// When an idle disk's access is not elided, its caller still waits
// through a queued completion, but not through a second event. A plain
// hold for the service time would queue a wake at the completion's
// time with the very next sequence number, which nothing could ever
// overtake. Kernel.AtCompleteRide schedules the completion and parks
// the caller in a ride instead. A ride is a hold with no slot: it
// reserves that next sequence number and stays cancellable, so an
// interrupt resumes the caller at once and reports the reserved number
// to the sink as a cancel. The completer frees the disk, dispatches the
// next request, then calls Kernel.DeliverRide. If the ride is still
// armed, DeliverRide counts a step, reports the same evWake dispatch to
// the sink and resumes the caller. So Steps, sequence numbers, digests
// and the trace stream are those of the plain hold, and the path is the
// same with a sink attached or not. Elision is
// unchanged and still counts 3 events per disk access. The CPU needs no
// ride: its direct burst is uncancellable, and its completion resumes
// the caller directly.
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
// may step them on parallel worker goroutines — a persistent Pool,
// created once, of at most GOMAXPROCS participants including the
// caller.  The caller opens a window by bumping an atomic generation
// and waits on an atomic count of participants still inside it; each
// waiter spins for a bounded time before it parks on a channel, so
// back-to-back windows cost no goroutine wake.  Participants claim
// partitions from a shared atomic counter.  A window allocates nothing;
// determinism is preserved because no kernel is ever observed
// mid-window and the exchange runs single-threaded at the barrier.
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
