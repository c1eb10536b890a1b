//! Discrete-event simulator of the asynchronous message-passing model.
//!
//! The engine implements the model of Section 1.1 and Appendix B:
//!
//! * every message injected into a link is delivered after an adversarially chosen
//!   delay of at most one time unit `τ` ([`crate::delay::DelayModel`]; the
//!   composite [`Outage`](crate::delay::DelayModel::Outage) stress adversary may
//!   exceed it, parking deliveries in the scheduler's overflow heap),
//! * a node may have at most one un-acknowledged message per outgoing link; further
//!   messages queue locally and are injected when the acknowledgment returns (the
//!   acknowledgment discipline of Appendix B, which removes simultaneous-injection
//!   ambiguity and lets congestion cost time, as Lemma 2.2 requires),
//! * when several messages are queued on the same link they are transmitted in order
//!   of ascending priority (lowest stage first, Lemma 2.5), ties broken FIFO,
//! * time complexity is the completion time divided by `τ`; message complexity counts
//!   every injected message, with link acknowledgments reported separately.
//!
//! Those rules — what a send, an injection, a delivery, an acknowledgment and
//! a fault drop *do* — live in the effects core (`effects.rs`). This module
//! is the **loop** around it, which both engines run (`run_ticks`; the
//! sharded engine only hands it a dense-tick path), on the one data layout:
//! one scheduler, one link table indexed flat by directed-edge id, one
//! recycled [`PayloadArena`] (wheel slots and link queues move 4-byte
//! handles, never the messages) and one outbox buffer recycled across
//! activations, so there are no map lookups or per-event allocations on the
//! hot path.
//!
//! Each iteration takes every due event of the earliest pending tick from the
//! scheduler (ascending `seq`; events scheduled while processing the tick land
//! strictly later, so the batch is complete) and fires them one at a time in
//! that order: activate the destination, then replay the activation's effects
//! straight from its outbox. The global event queue is a bounded-horizon
//! **timing wheel** — `O(1)` per in-horizon event instead of the
//! `O(log n)` of the reference binary heap (selectable via [`SchedulerKind`];
//! both produce bit-identical schedules, see [`crate::scheduler`]) — and a
//! link's queue is one sorted `Vec` behind an inline head ([`crate::stage_queue`]).
//! Grouping a tick's events by destination before activating them was tried
//! and lost its A/B against this loop (DESIGN.md §10.2).

use crate::arena::{EvRef, PayloadArena};
use crate::delay::DelayModel;
use crate::effects::{Core, Home, Layout, LinkTable, Nodes};
use crate::fault::{FaultPlan, FaultState};
use crate::metrics::RunMetrics;
use crate::protocol::Protocol;
use crate::scheduler::{EventScheduler, HeapScheduler, TimingWheel};
use crate::trace::DeliveryTrace;
use crate::SchedulerKind;
use ds_graph::{Graph, NodeId};
use std::fmt;

/// Errors reported by the simulation engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A protocol attempted to send to a node that is not its neighbor.
    NotNeighbor { from: NodeId, to: NodeId },
    /// The asynchronous run exceeded the configured event budget (likely livelock).
    EventLimitExceeded { limit: u64 },
    /// The synchronous run exceeded the configured round budget.
    RoundLimitExceeded { limit: u64 },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NotNeighbor { from, to } => {
                write!(f, "node {from} attempted to send to non-neighbor {to}")
            }
            SimError::EventLimitExceeded { limit } => {
                write!(f, "asynchronous run exceeded the event limit of {limit}")
            }
            SimError::RoundLimitExceeded { limit } => {
                write!(f, "synchronous run exceeded the round limit of {limit}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Safety limits for a simulation run (either engine).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimLimits {
    /// Maximum number of message-delivery events before an asynchronous run is
    /// aborted.
    pub max_events: u64,
    /// Maximum number of rounds before a synchronous run is aborted.
    pub max_rounds: u64,
}

impl Default for SimLimits {
    fn default() -> Self {
        SimLimits { max_events: 50_000_000, max_rounds: 1_000_000 }
    }
}

/// Result of an asynchronous run.
#[derive(Debug)]
pub struct AsyncReport<P> {
    /// Time and message accounting.
    pub metrics: RunMetrics,
    /// The per-node protocol instances after the run (holding outputs and state).
    pub nodes: Vec<P>,
    /// Events scheduled beyond the timing wheel's horizon and parked in its
    /// overflow heap (0 for single-`τ` delay models and for the
    /// heap scheduler, which has no horizon). Kept out of [`RunMetrics`]
    /// deliberately: it describes the scheduler's internals, not the simulated
    /// execution, and so may differ between schedulers whose runs are
    /// otherwise bit-identical.
    pub overflow_events: u64,
    /// High-water mark of simultaneously live payload-arena handles. An
    /// engine internal like [`overflow_events`](AsyncReport::overflow_events):
    /// the arena's footprint, not the simulated execution.
    pub peak_live_handles: u64,
    /// Bytes backing the payload arena's slot storage at the end of the run
    /// (capacity). An engine internal.
    pub arena_bytes: u64,
    /// Size of the largest one-tick due batch the engine processed: the
    /// tick's deliveries plus the acknowledgments filed as events (see
    /// [`acks_scheduled`](AsyncReport::acks_scheduled)). An engine internal.
    pub max_batch: u64,
    /// Acknowledgments filed as scheduler events. Every delivery draws an
    /// acknowledgment (`metrics.acks`), but the engine files one only if a
    /// message waits behind it on its link before it fires; the rest stay
    /// parked on the link and cost no event (DESIGN.md §10.2). An engine
    /// internal: it counts the acks that found a message queued when they
    /// fired.
    pub acks_scheduled: u64,
    /// Always 0. The sharded engine's batched windows of several ticks per
    /// barrier were removed (DESIGN.md §6.3); the field stays because
    /// external readers (`benchmark/`) name it.
    pub batched_ticks: u64,
    /// Barriers whose phase 1 the sharded engine shipped to its worker pool
    /// (0 for the serial engines and for runs without worker threads). Also an
    /// engine internal, kept outside [`RunMetrics`] for the same reason.
    pub pool_dispatches: u64,
    /// Messages dropped by the fault adversary ([`crate::fault`]): deliveries
    /// whose tick found the link down or an endpoint crashed, plus queued
    /// messages drained when injecting onto a dead link. Always 0 without a
    /// [`FaultPlan`]. Unlike the scheduler internals above this *does*
    /// describe the simulated execution, and is identical across engines,
    /// shard counts and worker counts.
    pub dropped_events: u64,
    /// Fault-plan transitions applied during the run (one per link/node flip
    /// whose tick was reached; identical across engines). Always 0 without a
    /// [`FaultPlan`].
    pub fault_transitions: u64,
}

/// The reusable, allocation-heavy halves of a serial engine: everything
/// `run_engine_parts` builds per run except the protocol instances and the
/// event scheduler. [`crate::recycle::EngineSlab`] keeps one of these (plus a
/// [`TimingWheel`]) across runs so link tables, stage queues and the payload
/// arena are reshaped rather than reallocated.
///
/// None of the retained state can influence a schedule: between runs the
/// queues are empty and every spill slot is free (which slot a link takes
/// never affects its pop order), the arena holds no live handles (capacity and
/// free-list shape are invisible — handles are opaque and never feed a
/// scheduling decision), and [`EngineParts::adopt`] rewrites every field the next run
/// reads (link endpoints, done flags, the peak-live watermark) to exactly its
/// cold-start value.
pub(crate) struct EngineParts<M> {
    links: LinkTable,
    arena: PayloadArena<M>,
    done_flags: Vec<bool>,
}

// Manual impl: `derive` would demand `M: Default`, but empty parts need no
// message value.
impl<M> Default for EngineParts<M> {
    fn default() -> Self {
        EngineParts {
            links: LinkTable::default(),
            arena: PayloadArena::new(),
            done_flags: Vec::new(),
        }
    }
}

impl<M> EngineParts<M> {
    /// Reshapes the parts for a run on `graph`, asserting the previous run
    /// left them clean. Endpoints are rewritten unconditionally — adoption
    /// never trusts a hash to decide the link table still matches the
    /// topology — and the arena's watermark restarts at zero, so every field
    /// the engine reads equals a cold build's.
    ///
    /// # Panics
    ///
    /// Panics if the previous run left transient state behind (a non-idle
    /// link or a live arena handle).
    pub(crate) fn adopt(&mut self, graph: &Graph) {
        assert_eq!(self.arena.live(), 0, "recycled parts must hold no live arena handles");
        self.arena.reset_peak();
        self.links.adopt(graph);
        self.done_flags.clear();
        self.done_flags.resize(graph.node_count(), false);
    }

    /// Whether the parts hold no transient state — the recycling hygiene
    /// invariant ([`crate::recycle::EngineSlab::is_clean`]): every link idle,
    /// every arena handle returned, no spill slot held.
    pub(crate) fn is_clean(&self) -> bool {
        self.arena.live() == 0 && self.links.is_idle()
    }
}

/// The serial engine's node placement: one flat vector, indexed by node id.
struct Flat<P> {
    nodes: Vec<P>,
    done: Vec<bool>,
}

impl<P: Protocol> Nodes for Flat<P> {
    type Node = P;

    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    fn home(&mut self, v: NodeId) -> Home<'_, P> {
        Home { shard: 0, node: &mut self.nodes[v.index()], done: &mut self.done[v.index()] }
    }
}

/// The event loop both engines run: the start wave, then one iteration per
/// occupied tick, which applies the tick's fault transitions and fires its
/// due events in ascending `seq` through [`Core::fire`], merged with the
/// acknowledgments filed late at that tick ([`Core::fire_late`]). `dense`
/// sees every tick's due list first and may process it itself (the sharded
/// engine's pooled path, which must leave `due` empty and return `true`);
/// returning `false` leaves the tick to the loop. The acks still parked at
/// the end are released ([`Core::release_parked`]).
///
/// # Errors
///
/// As [`Core::fire`], and whatever `dense` returns.
pub(crate) fn run_ticks<'g, N, S, D>(
    core: &mut Core<'g, N::Node>,
    st: &mut Layout<N, S>,
    mut dense: D,
) -> Result<(), SimError>
where
    N: Nodes,
    S: EventScheduler<EvRef>,
    D: FnMut(
        &mut Core<'g, N::Node>,
        &mut Layout<N, S>,
        &mut Vec<(u64, EvRef)>,
    ) -> Result<bool, SimError>,
{
    core.start(st)?;
    let mut due: Vec<(u64, EvRef)> = Vec::new();
    while let Some(t) = st.sched.take_due(&mut due) {
        core.now = t;
        core.advance_faults(t);
        core.max_batch = core.max_batch.max(due.len() as u64);
        if !dense(core, st, &mut due)? {
            for (seq, ev) in due.drain(..) {
                core.fire_late(st, seq);
                core.fire(st, seq, ev)?;
            }
        }
        core.fire_late(st, u64::MAX);
    }
    core.release_parked(st);
    // Quiescence means no event is scheduled and no link queue is non-empty
    // (a queued message always has a filed ack or a drop pending to release
    // it), so
    // every arena handle must have been taken back. The recycled entry point
    // promotes this into a hard assertion on every run
    // ([`crate::recycle::run_async_recycled`]).
    debug_assert_eq!(st.arena.live(), 0, "a finished run must return every arena handle");
    Ok(())
}

/// Closes a run: [`Core::finish`] plus the scheduler's and the arena's
/// counters.
pub(crate) fn finish<P: Protocol, S: EventScheduler<EvRef>>(
    core: Core<'_, P>,
    nodes: Vec<P>,
    sched: &S,
    arena: &PayloadArena<P::Message>,
) -> (AsyncReport<P>, Option<DeliveryTrace>) {
    let (report, trace) = core.finish(nodes);
    let report = AsyncReport {
        overflow_events: sched.overflow_scheduled(),
        peak_live_handles: arena.peak_live() as u64,
        arena_bytes: arena.bytes() as u64,
        ..report
    };
    (report, trace)
}

/// Runs an asynchronous protocol on `graph` under the delay adversary `delay`
/// and, if given, a [`FaultPlan`] (drop semantics in [`crate::fault`]; `None`
/// runs on the intact topology), on the event scheduler `scheduler` selects.
/// All kinds produce bit-identical runs (asserted by `ds-verify`'s engine
/// contract, `ds_verify::check`); the heap is kept as the executable
/// reference for the timing wheel.
///
/// `make` constructs the per-node protocol instance.
///
/// [`SchedulerKind::Sharded`] runs the sharded engine *sequentially* here (one
/// coordinator, no worker threads: the serial loop over the sharded node
/// placement), because this signature does not require `P: Send`. The
/// execution is bit-identical either way; to actually spawn worker threads
/// use [`crate::sharded::run_async_sharded_faulted_with`] (or drive it
/// through `Session::scheduler`, whose protocols are `Send`).
///
/// # Errors
///
/// * [`SimError::NotNeighbor`] if a protocol sends to a non-neighbor.
/// * [`SimError::EventLimitExceeded`] if the run exceeds `limits.max_events`
///   deliveries (protection against livelocked protocols). The run stops at
///   the offending delivery: its activation is the last one that ran.
pub fn run_async_faulted<P, F>(
    graph: &Graph,
    delay: DelayModel,
    faults: Option<&FaultPlan>,
    make: F,
    limits: SimLimits,
    scheduler: SchedulerKind,
) -> Result<AsyncReport<P>, SimError>
where
    P: Protocol,
    F: FnMut(NodeId) -> P,
{
    run_on(graph, delay, faults, make, limits, scheduler, false).map(|(report, _)| report)
}

/// [`run_async_faulted`] with delivery tracing enabled: returns the report
/// plus the [`DeliveryTrace`] the happens-before checker (`ds-verify`)
/// consumes.
///
/// The traced run is **bit-identical** to the untraced one — tracing only
/// appends to a side buffer and never draws a sequence number or touches a
/// queue (asserted by the module tests and by the engine contract's traced
/// rows, `ds_verify::check`).
/// Dropped deliveries leave no trace record (they never happened, causally),
/// so the checker works unchanged under churn.
///
/// # Errors
///
/// Same as [`run_async_faulted`].
pub fn run_async_faulted_traced<P, F>(
    graph: &Graph,
    delay: DelayModel,
    faults: Option<&FaultPlan>,
    make: F,
    limits: SimLimits,
    scheduler: SchedulerKind,
) -> Result<(AsyncReport<P>, DeliveryTrace), SimError>
where
    P: Protocol,
    F: FnMut(NodeId) -> P,
{
    let (report, trace) = run_on(graph, delay, faults, make, limits, scheduler, true)?;
    Ok((report, trace.expect("tracing was enabled")))
}

fn run_on<P, F>(
    graph: &Graph,
    delay: DelayModel,
    faults: Option<&FaultPlan>,
    make: F,
    limits: SimLimits,
    scheduler: SchedulerKind,
    traced: bool,
) -> Result<(AsyncReport<P>, Option<DeliveryTrace>), SimError>
where
    P: Protocol,
    F: FnMut(NodeId) -> P,
{
    // Serial runs get freshly built parts, dropped with the scheduler after.
    let mut parts = EngineParts::default();
    match scheduler {
        SchedulerKind::TimingWheel => {
            parts.adopt(graph);
            let wheel = TimingWheel::new(delay.max_delay_ticks());
            run_engine_parts(graph, delay, faults, make, limits, wheel, traced, &mut parts)
                .map(|(report, trace, _wheel)| (report, trace))
        }
        SchedulerKind::BinaryHeap => {
            parts.adopt(graph);
            let heap = HeapScheduler::new();
            run_engine_parts(graph, delay, faults, make, limits, heap, traced, &mut parts)
                .map(|(report, trace, _heap)| (report, trace))
        }
        SchedulerKind::Sharded { shards, workers: _ } => {
            crate::sharded::run_core(graph, delay, faults, make, limits, shards, None, traced)
        }
    }
}

/// The serial engine over caller-owned [`EngineParts`]: the recyclable state
/// is moved out of `parts` for the run and moved back on success (with the
/// scheduler returned for the same reason). On error the parts are left in
/// their default (empty) state — a failed run's transient state is discarded
/// wholesale rather than cleaned, so recycling degrades to cold allocation
/// instead of risking a poisoned slab.
///
/// The caller must have called [`EngineParts::adopt`] for `graph` first.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_engine_parts<P, F, S>(
    graph: &Graph,
    delay: DelayModel,
    faults: Option<&FaultPlan>,
    make: F,
    limits: SimLimits,
    sched: S,
    traced: bool,
    parts: &mut EngineParts<P::Message>,
) -> Result<(AsyncReport<P>, Option<DeliveryTrace>, S), SimError>
where
    P: Protocol,
    F: FnMut(NodeId) -> P,
    S: EventScheduler<EvRef>,
{
    debug_assert_eq!(parts.links.len(), graph.directed_edge_count(), "adopt() must run first");
    debug_assert_eq!(parts.done_flags.len(), graph.node_count(), "adopt() must run first");
    let mut st = Layout {
        nodes: Flat {
            nodes: graph.nodes().map(make).collect(),
            done: std::mem::take(&mut parts.done_flags),
        },
        links: std::mem::take(&mut parts.links),
        arena: std::mem::take(&mut parts.arena),
        sched,
    };
    let faults = faults.map(|plan| FaultState::new(graph, plan));
    let mut core = Core::new(graph, delay, limits, traced.then_some(1), faults);
    run_ticks(&mut core, &mut st, |_, _, _| Ok(false))?;
    let (report, trace) = finish(core, st.nodes.nodes, &st.sched, &st.arena);
    // Hand the recyclable halves back for the next run.
    parts.links = st.links;
    parts.arena = st.arena;
    parts.done_flags = st.nodes.done;
    Ok((report, trace, st.sched))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MessageClass;
    use crate::protocol::Ctx;

    /// A fault-free run on the default scheduler.
    fn run<P: Protocol>(
        graph: &Graph,
        delay: DelayModel,
        make: impl FnMut(NodeId) -> P,
        limits: SimLimits,
    ) -> Result<AsyncReport<P>, SimError> {
        run_async_faulted(graph, delay, None, make, limits, SchedulerKind::default())
    }

    /// Asynchronous flooding: node 0 floods a token; each node records the hop count
    /// of the first copy it receives (which may exceed the true distance under
    /// adversarial delays — flooding is not a correct BFS, which is the point of the
    /// synchronizer). Borrows its neighbor slice from the graph.
    #[derive(Debug)]
    struct Flood<'g> {
        me: NodeId,
        neighbors: &'g [NodeId],
        hops: Option<u64>,
    }

    impl<'g> Flood<'g> {
        fn new(graph: &'g Graph, me: NodeId) -> Self {
            Flood { me, neighbors: graph.neighbors(me), hops: None }
        }
    }

    impl Protocol for Flood<'_> {
        type Message = u64;

        fn on_start(&mut self, ctx: &mut Ctx<u64>) {
            if self.me == NodeId(0) {
                self.hops = Some(0);
                for &u in self.neighbors {
                    ctx.send(u, 1);
                }
            }
        }

        fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Ctx<u64>) {
            if self.hops.is_none() {
                self.hops = Some(msg);
                for &u in self.neighbors {
                    ctx.send(u, msg + 1);
                }
            }
        }

        fn is_done(&self) -> bool {
            self.hops.is_some()
        }
    }

    #[test]
    fn flood_reaches_every_node_under_every_adversary() {
        let g = Graph::grid(4, 4);
        for delay in DelayModel::standard_suite(5) {
            let report =
                run(&g, delay.clone(), |v| Flood::new(&g, v), SimLimits::default()).unwrap();
            assert!(
                report.nodes.iter().all(|n| n.hops.is_some()),
                "all nodes reached under {delay:?}"
            );
            assert!(report.metrics.time_to_output.is_some());
            assert!(report.metrics.total_messages() > 0);
            assert_eq!(report.metrics.acks, report.metrics.events);
        }
    }

    #[test]
    fn uniform_delay_flood_time_matches_distance_bound() {
        let g = Graph::path(8);
        let report =
            run(&g, DelayModel::uniform(), |v| Flood::new(&g, v), SimLimits::default()).unwrap();
        // Under uniform unit delays every hop costs exactly one unit, so the last
        // node (distance 7) is done at time 7.
        let t = report.metrics.time_to_output.unwrap();
        assert!((t - 7.0).abs() < 1e-9, "time was {t}");
    }

    #[test]
    fn adversarial_delays_can_mislead_naive_flooding() {
        // On a cycle, make links incident to low-index nodes slow: the token then
        // reaches the far side the "long way around" first, giving wrong hop counts.
        // This demonstrates why a synchronizer is needed at all.
        let g = Graph::cycle(8);
        let report =
            run(&g, DelayModel::slow_cut(4), |v| Flood::new(&g, v), SimLimits::default()).unwrap();
        let hops: Vec<u64> = report.nodes.iter().map(|n| n.hops.unwrap()).collect();
        let true_dist = ds_graph::metrics::bfs_distances(&g, NodeId(0));
        let mismatches =
            hops.iter().zip(true_dist.iter()).filter(|(h, d)| **h != d.unwrap() as u64).count();
        assert!(mismatches > 0, "expected the adversary to distort naive flooding");
    }

    #[test]
    fn ack_discipline_serializes_a_link() {
        /// Node 0 sends `k` messages to node 1 at start; node 1 counts arrivals.
        #[derive(Debug)]
        struct Burst {
            me: NodeId,
            received: u64,
        }
        impl Protocol for Burst {
            type Message = ();
            fn on_start(&mut self, ctx: &mut Ctx<()>) {
                if self.me == NodeId(0) {
                    for _ in 0..5 {
                        ctx.send(NodeId(1), ());
                    }
                }
            }
            fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut Ctx<()>) {
                self.received += 1;
            }
            fn is_done(&self) -> bool {
                self.me == NodeId(0) || self.received == 5
            }
        }
        let g = Graph::path(2);
        let report =
            run(&g, DelayModel::uniform(), |me| Burst { me, received: 0 }, SimLimits::default())
                .unwrap();
        // Each of the 5 messages must wait for the previous message's ack: delivery i
        // completes at time 2i+1, so the last arrives at time 9.
        let t = report.metrics.time_to_output.unwrap();
        assert!((t - 9.0).abs() < 1e-9, "time was {t}");
        assert_eq!(report.metrics.total_messages(), 5);
    }

    #[test]
    fn priorities_order_queued_messages() {
        /// Node 0 queues a low-priority then a high-priority message; node 1 records
        /// the arrival order.
        #[derive(Debug)]
        struct Prio {
            me: NodeId,
            order: Vec<u8>,
        }
        impl Protocol for Prio {
            type Message = u8;
            fn on_start(&mut self, ctx: &mut Ctx<u8>) {
                if self.me == NodeId(0) {
                    ctx.send_with(NodeId(1), 9, 9, MessageClass::Algorithm);
                    ctx.send_with(NodeId(1), 1, 1, MessageClass::Algorithm);
                    ctx.send_with(NodeId(1), 5, 5, MessageClass::Algorithm);
                }
            }
            fn on_message(&mut self, _from: NodeId, msg: u8, _ctx: &mut Ctx<u8>) {
                self.order.push(msg);
            }
            fn is_done(&self) -> bool {
                self.me == NodeId(0) || self.order.len() == 3
            }
        }
        let g = Graph::path(2);
        let report = run(
            &g,
            DelayModel::uniform(),
            |me| Prio { me, order: Vec::new() },
            SimLimits::default(),
        )
        .unwrap();
        // All three messages are queued before the link transmits, so they are
        // delivered in ascending priority order regardless of send order.
        assert_eq!(report.nodes[1].order, vec![1, 5, 9]);
    }

    #[test]
    fn outage_model_exercises_the_overflow_heap_deterministically() {
        // The composite outage adversary assigns multi-τ delays, so deliveries
        // land beyond the wheel's one-τ horizon and must park in the overflow
        // heap — which no single-τ model ever reaches. The schedule must stay
        // byte-identical across repeat runs and across schedulers.
        let g = Graph::grid(6, 6);
        let delay = DelayModel::outage(11, 4, 2);
        let run = |scheduler: SchedulerKind| {
            let report = run_async_faulted(
                &g,
                delay.clone(),
                None,
                |v| Flood::new(&g, v),
                SimLimits::default(),
                scheduler,
            )
            .expect("outage run");
            let hops: Vec<Option<u64>> = report.nodes.iter().map(|n| n.hops).collect();
            (hops, report.metrics, report.overflow_events)
        };
        let (hops_a, metrics_a, overflow_a) = run(SchedulerKind::TimingWheel);
        assert!(hops_a.iter().all(Option::is_some), "flood completes despite outages");
        assert!(overflow_a > 0, "multi-τ delays must park events beyond the horizon");
        // Repeat run: bit-identical.
        let (hops_b, metrics_b, overflow_b) = run(SchedulerKind::TimingWheel);
        assert_eq!(hops_a, hops_b);
        assert_eq!(metrics_a, metrics_b);
        assert_eq!(overflow_a, overflow_b);
        // The heap scheduler has no horizon (overflow 0) but must produce the
        // exact same simulated execution.
        let (hops_h, metrics_h, overflow_h) = run(SchedulerKind::BinaryHeap);
        assert_eq!(hops_a, hops_h);
        assert_eq!(metrics_a, metrics_h);
        assert_eq!(overflow_h, 0);
    }

    #[test]
    fn single_unit_models_never_overflow() {
        let g = Graph::grid(4, 4);
        for delay in DelayModel::standard_suite(3) {
            let report =
                run(&g, delay.clone(), |v| Flood::new(&g, v), SimLimits::default()).unwrap();
            assert_eq!(report.overflow_events, 0, "{delay:?} stayed within one τ");
        }
    }

    #[test]
    fn serial_engines_report_zero_batching_and_pool_counters() {
        // `batched_ticks` and `pool_dispatches` are sharded-engine internals;
        // the wheel and heap engines must pin them at exactly zero so bench
        // consumers can rely on "0 means the feature was off or inapplicable".
        let g = Graph::grid(4, 4);
        for scheduler in [SchedulerKind::TimingWheel, SchedulerKind::BinaryHeap] {
            let report = run_async_faulted(
                &g,
                DelayModel::uniform(),
                None,
                |v| Flood::new(&g, v),
                SimLimits::default(),
                scheduler,
            )
            .unwrap();
            assert_eq!(report.batched_ticks, 0, "{scheduler:?}");
            assert_eq!(report.pool_dispatches, 0, "{scheduler:?}");
            assert_eq!(report.dropped_events, 0, "{scheduler:?}: no fault plan, no drops");
            assert_eq!(report.fault_transitions, 0, "{scheduler:?}");
        }
    }

    #[test]
    fn a_severed_link_drops_in_flight_messages_and_recovery_readmits() {
        use crate::fault::FaultPlan;
        // Node 0 floods a path of 3. Cutting link {0,1} just after start kills
        // the first hop mid-flight, so nodes 1 and 2 never learn anything ...
        let g = Graph::path(3);
        let cut = FaultPlan::new().link_down(1, NodeId(0), NodeId(1));
        let report = run_async_faulted(
            &g,
            DelayModel::uniform(),
            Some(&cut),
            |v| Flood::new(&g, v),
            SimLimits::default(),
            SchedulerKind::TimingWheel,
        )
        .unwrap();
        assert_eq!(report.nodes[1].hops, None);
        assert_eq!(report.nodes[2].hops, None);
        assert!(report.dropped_events > 0);
        assert_eq!(report.fault_transitions, 1);
        assert!(report.metrics.time_to_output.is_none(), "partial run has no completion time");
        // ... while a cut that heals within the first hop's flight time only
        // delays nothing: uniform delay is a full τ, the link is back at half
        // of it, and retransmission is not modeled — the dropped copy is lost
        // for good, but traffic injected after recovery flows again.
        let heal =
            FaultPlan::new().link_down(1, NodeId(1), NodeId(2)).link_up(2500, NodeId(1), NodeId(2));
        let report = run_async_faulted(
            &g,
            DelayModel::uniform(),
            Some(&heal),
            |v| Flood::new(&g, v),
            SimLimits::default(),
            SchedulerKind::TimingWheel,
        )
        .unwrap();
        // Node 1 still hears from node 0 (that link was never cut)...
        assert_eq!(report.nodes[1].hops, Some(1));
        // ...but its relay died on the severed link, and Flood never resends.
        assert_eq!(report.nodes[2].hops, None);
        assert_eq!(report.fault_transitions, 2);
    }

    #[test]
    fn a_node_crashed_at_tick_zero_never_starts() {
        use crate::fault::FaultPlan;
        let g = Graph::path(3);
        let plan = FaultPlan::new().node_crash(0, NodeId(0));
        let report = run_async_faulted(
            &g,
            DelayModel::uniform(),
            Some(&plan),
            |v| Flood::new(&g, v),
            SimLimits::default(),
            SchedulerKind::TimingWheel,
        )
        .unwrap();
        // The source never ran `on_start`: nothing was ever sent.
        assert!(report.nodes.iter().all(|n| n.hops.is_none()));
        assert_eq!(report.metrics.total_messages(), 0);
        assert_eq!(report.dropped_events, 0);
    }

    #[test]
    fn an_empty_fault_plan_changes_nothing() {
        use crate::fault::FaultPlan;
        let g = Graph::grid(4, 4);
        for delay in DelayModel::standard_suite(9) {
            let plain =
                run(&g, delay.clone(), |v| Flood::new(&g, v), SimLimits::default()).unwrap();
            let empty = FaultPlan::new();
            let faulted = run_async_faulted(
                &g,
                delay.clone(),
                Some(&empty),
                |v| Flood::new(&g, v),
                SimLimits::default(),
                SchedulerKind::TimingWheel,
            )
            .unwrap();
            let plain_hops: Vec<_> = plain.nodes.iter().map(|n| n.hops).collect();
            let faulted_hops: Vec<_> = faulted.nodes.iter().map(|n| n.hops).collect();
            assert_eq!(plain_hops, faulted_hops, "{delay:?}");
            assert_eq!(plain.metrics, faulted.metrics, "{delay:?}");
            assert_eq!(faulted.dropped_events, 0);
        }
    }

    #[test]
    fn event_limit_aborts_livelock() {
        #[derive(Debug)]
        struct PingPong {
            me: NodeId,
        }
        impl Protocol for PingPong {
            type Message = ();
            fn on_start(&mut self, ctx: &mut Ctx<()>) {
                if self.me == NodeId(0) {
                    ctx.send(NodeId(1), ());
                }
            }
            fn on_message(&mut self, from: NodeId, _msg: (), ctx: &mut Ctx<()>) {
                ctx.send(from, ());
            }
            fn is_done(&self) -> bool {
                false
            }
        }
        let g = Graph::path(2);
        let err = run(
            &g,
            DelayModel::uniform(),
            |me| PingPong { me },
            SimLimits { max_events: 100, ..SimLimits::default() },
        )
        .unwrap_err();
        assert_eq!(err, SimError::EventLimitExceeded { limit: 100 });
    }

    #[test]
    fn event_limit_aborts_at_the_offending_delivery() {
        use std::sync::atomic::{AtomicU64, Ordering};

        /// Every node greets every neighbor at start; all instances count
        /// their arrivals through one shared counter.
        #[derive(Debug)]
        struct Greeter<'a> {
            neighbors: &'a [NodeId],
            activations: &'a AtomicU64,
        }
        impl Protocol for Greeter<'_> {
            type Message = ();
            fn on_start(&mut self, ctx: &mut Ctx<()>) {
                for &u in self.neighbors {
                    ctx.send(u, ());
                }
            }
            fn on_message(&mut self, _: NodeId, _: (), _: &mut Ctx<()>) {
                self.activations.fetch_add(1, Ordering::Relaxed);
            }
            fn is_done(&self) -> bool {
                true
            }
        }

        // K9's start wave puts 72 deliveries on tick τ under uniform delays.
        let g = Graph::complete(9);
        let k = 10;
        for scheduler in [SchedulerKind::TimingWheel, SchedulerKind::BinaryHeap] {
            let activations = AtomicU64::new(0);
            let run = |limits| {
                let make = |v| Greeter { neighbors: g.neighbors(v), activations: &activations };
                run_async_faulted(&g, DelayModel::uniform(), None, make, limits, scheduler)
            };
            let full = run(SimLimits::default()).unwrap();
            assert!(full.max_batch >= 64, "{scheduler:?}: the wave must share one tick");
            activations.store(0, Ordering::Relaxed);
            let err = run(SimLimits { max_events: k, ..SimLimits::default() }).unwrap_err();
            assert_eq!(err, SimError::EventLimitExceeded { limit: k });
            // The delivery that breaks the budget is the last one to activate:
            // no later event of the same crowded tick runs.
            assert_eq!(activations.load(Ordering::Relaxed), k + 1, "{scheduler:?}");
        }
    }

    #[test]
    fn sending_to_non_neighbor_is_rejected() {
        #[derive(Debug)]
        struct Bad {
            me: NodeId,
        }
        impl Protocol for Bad {
            type Message = ();
            fn on_start(&mut self, ctx: &mut Ctx<()>) {
                if self.me == NodeId(0) {
                    ctx.send(NodeId(2), ());
                }
            }
            fn on_message(&mut self, _: NodeId, _: (), _: &mut Ctx<()>) {}
            fn is_done(&self) -> bool {
                true
            }
        }
        let g = Graph::path(3);
        let err =
            run(&g, DelayModel::uniform(), |me| Bad { me }, SimLimits::default()).unwrap_err();
        assert_eq!(err, SimError::NotNeighbor { from: NodeId(0), to: NodeId(2) });
    }
}
