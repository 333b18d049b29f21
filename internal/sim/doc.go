// Package sim is a deterministic discrete-event simulation kernel with
// process-oriented semantics, in the style of the DeNet simulation
// language the original paper used.
//
// The kernel owns a virtual clock and an event queue ordered by
// (time, insertion sequence).  Processes cooperate with the kernel:
// exactly one of {kernel, some process} runs at any instant, so
// simulations are fully deterministic for a fixed seed and schedule.
//
// The scheduling core is allocation-free in steady state.  An event
// is a plain value — its time, its sequence number, and its kind packed
// with a payload — held whole in its queue entry: timed events wait in
// two 4-ary min-heaps ordered by (time, sequence), and zero-delay
// events — process turns, wakes, gate grants — bypass the heaps
// through a same-timestamp FIFO fast lane.  Firm-deadline aborts
// (AtInterrupt) have a heap of their own, since they sit pending for a
// query's whole life and rarely fire; every other timed event goes to
// the main heap, and the next timed event is the smaller of the two
// roots.  Run and Step select each event once, through the same body.
// No event is ever cancelled.  An interrupt that ends a hold leaves its
// wake queued, and a wake fires only while its process still waits in
// the hold that carries its sequence number (Proc.holding); otherwise
// it is dropped, firing nothing, counting no step and leaving the clock
// alone.  No production run drops one: only arrival sources hold, and
// deadline aborts interrupt queries.  See kernel.go and queue.go.
//
// The CPU and disk queues are Gates, which keep their waiters in
// (priority, arrival) order, so the Earliest-Deadline pick is the head
// of the queue.  See gate.go.
//
// Events are typed, not closures.  Every event (a task's turn, a
// hold's wake, a deadline abort, a service completion) carries a 3-bit
// kind and a 29-bit task or completer index packed into one int32 in
// its queue entry, and Step dispatches it through a single switch —
// firing an event is array index + direct call, with no closure
// environment kept alive.  Tests schedule ad-hoc callbacks through
// simtest.At, a completer registered per call.
//
// Simulation memory is recycled, not regrown.  NewKernel heap-allocates
// and recycles nothing; NewKernelIn builds the kernel and its queue
// backings from an Arena — typed slabs (SlabFor, AllocFrom) — and
// processes, their frames and operator state come from the same arena.
// Recycling works at two lifetimes:
//
//   - Within a replicate, an owner gives its state back when it ends
//     (FreeTo), and the next allocation of that type hands it out again,
//     zeroed apart from slice backing a Recycler keeps.  The kernel
//     retires a process whose root frame returned (Kernel.retire): its
//     record and frame stack go back for the next Spawn.  Query frames,
//     join and sort state do the same at their owners' ends, so an
//     arena stays at the size of the state alive at once, not of every
//     query the replicate ran.
//   - Across replicates and runs, Reset zeroes and rewinds every slab
//     and keeps the queue backings, and TakeArena and PutArena keep reset
//     arenas in a package-level pool: sweep workers take one at their
//     first simulated job and give it back when they exit, and one-shot
//     runs borrow one for their run.
//
// Reusing a process record is safe because events address processes by
// task id, never by pointer, and ids are never reused.  A retired
// process's registry slot points at a dead sentinel the kernel owns, so
// an event that outlives its process — a finished query's deadline
// abort, or the completion of a direct disk transfer whose interrupted
// rider has departed — finds a dead process and does nothing, whatever
// now lives in the record.  Three resource fields do hold a process
// across events: Server.direct (the caller of a direct CPU burst),
// Server.cur and package disk's Disk.cur (the waiter a dispatched
// request is serving).  Each is held only during an uncancellable
// section, which its process cannot leave, let alone finish, before the
// completion clears the field.  Anything else holding a *Proc must drop
// it when the process finishes.
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
// A child that per-block loops consult, such as an operator's memory
// wait, exposes a method reporting whether its step 0 would return true
// at once, arming no wait and changing no state. Its step 0 calls that
// method first, and a caller that finds it true continues with ok=true
// instead of entering. Skipping a child then changes no event, no
// sequence number and no step count, only the host work of a push, a
// Step and a pop.
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
//  2. the zero-delay lane is empty;
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
// the caller in a ride instead. A ride is a hold with no wake event of
// its own: it reserves that next sequence number and stays cancellable,
// so an interrupt resumes the caller at once and reports the reserved
// number to the sink as a cancel, as for a timed hold. The completer
// frees the disk, dispatches the next request, then calls
// Kernel.DeliverRide. If the ride is still armed, DeliverRide counts a
// step, reports the same evWake dispatch to the sink and resumes the
// caller. So Steps, sequence numbers, digests and the trace stream are
// those of the plain hold, and the path is the same with a sink
// attached or not. Elision is unchanged and still counts 3 events per
// disk access. The CPU needs no ride: its direct burst is
// uncancellable, and its completion resumes the caller directly.
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
// every hold an interrupt ends, and every gate-queue transition
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
