//! The sharded asynchronous engine: the serial engine's loop and layout,
//! with a dense tick's protocol activations split over a persistent worker
//! pool — schedules **bit-identical** to the single-threaded timing wheel.
//!
//! # What is sharded
//!
//! The dense node-id space `0..n` is partitioned into `K` contiguous ranges
//! ("shards"). A shard owns only its nodes' protocol instances and done
//! flags, plus the buffers its phase 1 fills (`ShardWork`); that unit moves
//! to a pool worker by value and back, so the crate stays free of `unsafe`.
//! Everything else is the serial engine's, one of each: the
//! [`TimingWheel`], the link table indexed by directed-edge id, the payload
//! arena, and the loop (`async_engine::run_ticks`).
//!
//! # Sparse and dense ticks
//!
//! A tick with fewer than `PARALLEL_TICK_THRESHOLD` (128) due events, and
//! every tick of a run without a pool, fires each event through the effects
//! core's `Core::fire` exactly as the serial loop does — the only difference
//! is where `fire` finds the destination's protocol instance. A dense tick
//! with a pool runs in three steps:
//!
//! 1. **Bucketing (coordinator).** Every delivery of the tick that the fault
//!    adversary does not block has its payload *lent* out of the arena
//!    (`PayloadArena::lend`: the handle stays live) and is appended to its
//!    destination shard's inbox. Inboxes are in ascending global `seq`.
//! 2. **Phase 1 (pool).** Every shard with a non-empty inbox is shipped to
//!    the pool, which runs its activations in inbox order, capturing each
//!    activation's outbox verbatim. No sequence numbers are drawn and no
//!    link, wheel or arena is touched; shards share nothing.
//! 3. **Replay (coordinator).** The tick's due list is walked in global
//!    `seq` order — the serial processing order — merged with the
//!    acknowledgments the replay itself files late at this tick
//!    (`Core::fire_late`). An acknowledgment or a blocked delivery fires
//!    through `Core::fire`. A delivery activated in
//!    phase 1 reclaims its arena slot and replays its effects through the
//!    effects core (`begin_delivery`, one `send` per captured message,
//!    `end_delivery`), reading its outbox through one cursor per shard into
//!    that shard's captured outboxes.
//!
//! # The shard/merge contract
//!
//! Within one tick, an event's protocol activation reads and writes only the
//! destination node's state and draws no sequence numbers, while its engine
//! effects (sends, injections, acknowledgments) define the `seq` stream that
//! feeds the delay adversary. Deliveries of one tick are causally
//! independent across destination nodes — every delay is at least one tick,
//! acknowledgments never touch node state, and a node's own deliveries reach
//! it in ascending `seq` within its shard's inbox — so running the
//! activations first, per shard, and replaying their effects afterwards in
//! global `seq` order draws every sequence number through the serial
//! engine's code in the serial order. The arena sees the serial order of
//! frees and allocations too (a lent slot is reclaimed at the delivery's
//! replay, where the serial engine takes it). The schedule — every delivery,
//! every delay, every metric and every engine counter but
//! [`AsyncReport::pool_dispatches`] — is therefore bit-identical to
//! [`crate::SchedulerKind::TimingWheel`]'s for any shard count and any thread
//! interleaving (`ds-verify`'s engine contract, `ds_verify::check`, runs
//! every scenario at seven shard counts with and without worker threads,
//! and `tests/golden_schedule.rs` pins recorded digests; trace records keep
//! the destination's shard, so `ds-verify`'s happens-before checker tests
//! the contract).
//!
//! The one observable difference is the *intra-tick activation order across
//! different nodes* on dense ticks: a protocol that shares mutable state
//! between node instances (not a distributed algorithm, but e.g. a test
//! harness logging through a mutex) may record interleavings in shard order;
//! per-node observation sequences are identical. On an error (`SimError`)
//! the run aborts at the same event as the serial engine, but on a dense
//! tick phase 1 has already run every activation of the tick — the API
//! returns no nodes on error, so this is only observable through the escape
//! hatches above.
//!
//! # Threads and cost
//!
//! Worker threads are `W` **long-lived** threads in a [`crate::pool`]
//! `WorkerPool`, created once per run; at each dense tick the first idle
//! worker takes the next queued shard. Which worker runs a shard depends on
//! thread timing, but a shard's work unit is owned by one worker at a time
//! and the replay orders by `seq`, so the schedule does not. Pick `shards`
//! for partition granularity and `workers` for the host's core count
//! ([`ShardedOptions::workers`]; `0` means one worker per shard).
//! [`ThreadMode::Auto`] disables workers on single-core hosts. The replay is
//! serial — the price of a sequence-exact adversary — so speedup follows
//! Amdahl's law in the activation share of dense ticks; sparse ticks cost
//! what the serial engine costs plus a shard lookup per activation.
//! DESIGN.md §6 tabulates the costs, and [`AsyncReport::pool_dispatches`]
//! makes the hand-off rate observable per run.

use crate::arena::{EvRef, PayloadArena};
use crate::async_engine::{finish, run_ticks, AsyncReport, SimError, SimLimits};
use crate::delay::DelayModel;
use crate::effects::{Core, Home, Layout, LinkTable, Nodes};
use crate::fault::{FaultPlan, FaultState};
use crate::pool::{PanicPayload, WorkerPool};
use crate::protocol::{Ctx, Outgoing, Protocol};
use crate::scheduler::TimingWheel;
use crate::trace::DeliveryTrace;
use ds_graph::{DirectedEdgeId, Graph, NodeId};
use std::collections::VecDeque;

/// Minimum number of due events in a tick before its activations are
/// shipped to the worker pool; sparser ticks run the serial path, because
/// the hand-off (two channel operations per non-empty shard) would exceed
/// the activation work it parallelizes.
const PARALLEL_TICK_THRESHOLD: usize = 128;

/// When the sharded engine engages pool worker threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ThreadMode {
    /// Spawn workers iff `shards > 1` and the host exposes more than one core
    /// (the default): on a single core, time-slicing threads only adds
    /// overhead while the execution is identical anyway. The worker count is
    /// additionally capped by `std::thread::available_parallelism`.
    #[default]
    Auto,
    /// Always spawn the requested workers when `shards > 1` (used by the
    /// equivalence tests to exercise the cross-thread path — including
    /// multi-worker rendezvous — even on single-core hosts; no core cap).
    ForceOn,
    /// Never spawn workers: every tick runs the serial path.
    Off,
}

/// Options for [`run_async_sharded_faulted_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardedOptions {
    /// Number of shards (clamped to `1..=node_count`).
    pub shards: usize,
    /// Number of persistent pool workers the shards are spread over. `0`
    /// (the [`ShardedOptions::new`] default) means one worker per shard;
    /// other values are clamped to `1..=shards`, and [`ThreadMode::Auto`]
    /// additionally caps at the host's available parallelism. Schedules are
    /// bit-identical for every worker count.
    pub workers: usize,
    /// Worker-thread policy.
    pub threads: ThreadMode,
}

impl ShardedOptions {
    /// The default configuration for `shards` shards: one worker per shard,
    /// [`ThreadMode::Auto`].
    pub fn new(shards: usize) -> Self {
        ShardedOptions { shards, workers: 0, threads: ThreadMode::Auto }
    }
}

// ---------------------------------------------------------------------------
// Shards
// ---------------------------------------------------------------------------

/// Contiguous partition of the dense node-id space.
struct ShardLayout {
    /// Number of shards.
    k: usize,
    /// First global node id of each shard (length `k + 1`); the first
    /// `n % k` shards hold one node more than the rest.
    bounds: Vec<usize>,
    /// Shard of each node: one load instead of a division per activation.
    owner: Vec<u32>,
}

impl ShardLayout {
    fn new(n: usize, shards: usize) -> Self {
        let k = shards.clamp(1, n.max(1));
        let (base, rem) = (n / k, n % k);
        let mut bounds = Vec::with_capacity(k + 1);
        let mut owner = Vec::with_capacity(n);
        for s in 0..k {
            bounds.push(owner.len());
            owner.resize(owner.len() + base + usize::from(s < rem), s as u32);
        }
        bounds.push(n);
        ShardLayout { k, bounds, owner }
    }

    /// Shard owning node `v`.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    fn shard_of(&self, v: NodeId) -> usize {
        self.owner[v.index()] as usize
    }
}

/// One shard: what a pool worker needs for phase 1, moved to it by value.
pub(crate) struct ShardWork<P: Protocol> {
    /// First global node id of the shard.
    lo: usize,
    nodes: Vec<P>,
    done: Vec<bool>,
    /// This dense tick's deliveries to the shard's nodes as `(from, to,
    /// payload)`, ascending global `seq`; phase 1 drains it.
    inbox: Vec<(NodeId, NodeId, P::Message)>,
    /// Outbox length of each of this tick's activations, in inbox order.
    outbox_lens: VecDeque<u32>,
    /// Captured outbox messages of this tick's activations, in inbox order.
    /// With `outbox_lens` it is the shard's replay cursor: the replay pops
    /// both from the front.
    captured: VecDeque<Outgoing<P::Message>>,
    /// Recycled activation outbox buffer.
    outbox_buf: Vec<Outgoing<P::Message>>,
    /// How many of this shard's nodes became done during the current tick;
    /// the coordinator sums these into the core's done count.
    newly_done: usize,
}

/// Phase 1 for one shard, on a pool worker: run the inbox's activations,
/// capture their outboxes. This is the one place an activation runs outside
/// the effects core (the core lives on the coordinator; workers share
/// nothing), so it carries its own done-check.
// ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
fn phase1<P: Protocol>(w: &mut ShardWork<P>) {
    for (from, to, msg) in w.inbox.drain(..) {
        let local = to.index() - w.lo;
        let mut ctx = Ctx::with_buffer(to, std::mem::take(&mut w.outbox_buf));
        w.nodes[local].on_message(from, msg, &mut ctx);
        w.outbox_lens.push_back(ctx.queued() as u32);
        w.captured.extend(ctx.drain_outbox());
        w.outbox_buf = ctx.into_buffer();
        if !w.done[local] && w.nodes[local].is_done() {
            w.done[local] = true;
            w.newly_done += 1;
        }
    }
}

/// The sharded engine's node placement: every shard's [`ShardWork`].
struct Shards<P: Protocol> {
    layout: ShardLayout,
    /// `None` only while a shard is out on a pool worker (phase 1).
    works: Vec<Option<ShardWork<P>>>,
}

impl<P: Protocol> Shards<P> {
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    fn work(&mut self, s: usize) -> &mut ShardWork<P> {
        self.works[s].as_mut().expect("shard at home")
    }
}

impl<P: Protocol> Nodes for Shards<P> {
    type Node = P;

    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    fn home(&mut self, v: NodeId) -> Home<'_, P> {
        let s = self.layout.shard_of(v);
        let w = self.work(s);
        let local = v.index() - w.lo;
        Home { shard: s as u32, node: &mut w.nodes[local], done: &mut w.done[local] }
    }
}

/// The sharded engine's layout: the serial one over sharded node placement.
type ShardedLayout<P> = Layout<Shards<P>, TimingWheel<EvRef>>;

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Runs an asynchronous protocol on the sharded engine, under a [`FaultPlan`]
/// if one is given. The execution — schedule, outputs, metrics, drop counts —
/// is bit-identical to
/// [`run_async_faulted`](crate::async_engine::run_async_faulted) on the
/// timing wheel for every shard count and worker count.
///
/// # Errors
///
/// Same as [`run_async_faulted`](crate::async_engine::run_async_faulted).
pub fn run_async_sharded_faulted_with<P, F>(
    graph: &Graph,
    delay: DelayModel,
    faults: Option<&FaultPlan>,
    make: F,
    limits: SimLimits,
    opts: ShardedOptions,
) -> Result<AsyncReport<P>, SimError>
where
    P: Protocol + Send,
    P::Message: Send,
    F: FnMut(NodeId) -> P,
{
    run_pooled(graph, delay, faults, make, limits, opts, false).map(|(report, _)| report)
}

/// [`run_async_sharded_faulted_with`] with delivery tracing enabled: returns
/// the report plus the [`DeliveryTrace`] the happens-before checker
/// (`ds-verify`) consumes. The traced execution is bit-identical to the
/// untraced one — tracing happens entirely in the effects core on the
/// coordinator, so worker threads never touch it. Dropped deliveries leave no
/// trace record, exactly as on the serial engine.
///
/// # Errors
///
/// Same as [`run_async_faulted`](crate::async_engine::run_async_faulted).
pub fn run_async_sharded_faulted_traced_with<P, F>(
    graph: &Graph,
    delay: DelayModel,
    faults: Option<&FaultPlan>,
    make: F,
    limits: SimLimits,
    opts: ShardedOptions,
) -> Result<(AsyncReport<P>, DeliveryTrace), SimError>
where
    P: Protocol + Send,
    P::Message: Send,
    F: FnMut(NodeId) -> P,
{
    let (report, trace) = run_pooled(graph, delay, faults, make, limits, opts, true)?;
    Ok((report, trace.expect("tracing was enabled")))
}

/// Resolves the worker count, spins up the pool if there is one, and runs.
fn run_pooled<P, F>(
    graph: &Graph,
    delay: DelayModel,
    faults: Option<&FaultPlan>,
    make: F,
    limits: SimLimits,
    opts: ShardedOptions,
    traced: bool,
) -> Result<(AsyncReport<P>, Option<DeliveryTrace>), SimError>
where
    P: Protocol + Send,
    P::Message: Send,
    F: FnMut(NodeId) -> P,
{
    let k = opts.shards.clamp(1, graph.node_count().max(1));
    // `workers == 0` requests the pre-pool coupling: one worker per shard.
    let requested = if opts.workers == 0 { k } else { opts.workers };
    let workers = match opts.threads {
        ThreadMode::Off => 0,
        ThreadMode::ForceOn => {
            if k > 1 {
                requested.clamp(1, k)
            } else {
                0
            }
        }
        ThreadMode::Auto => {
            // ds-lint: allow(ambient-authority) — thread-count probe gates only
            // *whether* (and how many) workers spawn, never the schedule
            // (bit-identical for every worker count, pinned by the
            // engine contract's thread rows, `ds_verify::check`).
            let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
            if k > 1 && cores > 1 {
                requested.clamp(1, k).min(cores)
            } else {
                0
            }
        }
    };
    if workers == 0 {
        return run_core(graph, delay, faults, make, limits, k, None, traced);
    }
    WorkerPool::run(
        workers,
        |w: &mut ShardWork<P>| phase1(w),
        |pool| run_core(graph, delay, faults, make, limits, k, Some(pool), traced),
    )
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// The sharded engine: [`run_ticks`] over [`ShardedLayout`], with the pool's
/// dense-tick path. Without a pool it needs no `Send` bound, which is how
/// [`run_async_faulted`](crate::async_engine::run_async_faulted) runs
/// [`crate::SchedulerKind::Sharded`] sequentially.
// Every entry point funnels here with its full knob set; bundling the knobs
// into a struct would only move the argument list one call deeper.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_core<P, F>(
    graph: &Graph,
    delay: DelayModel,
    faults: Option<&FaultPlan>,
    mut make: F,
    limits: SimLimits,
    shards: usize,
    mut pool: Option<&mut WorkerPool<ShardWork<P>>>,
    traced: bool,
) -> Result<(AsyncReport<P>, Option<DeliveryTrace>), SimError>
where
    P: Protocol,
    F: FnMut(NodeId) -> P,
{
    let layout = ShardLayout::new(graph.node_count(), shards);
    let k = layout.k;
    let works = (0..k)
        .map(|s| {
            let (lo, hi) = (layout.bounds[s], layout.bounds[s + 1]);
            Some(ShardWork {
                lo,
                nodes: (lo..hi).map(|i| make(NodeId(i))).collect(),
                done: vec![false; hi - lo],
                inbox: Vec::new(),
                outbox_lens: VecDeque::new(),
                captured: VecDeque::new(),
                outbox_buf: Vec::new(),
                newly_done: 0,
            })
        })
        .collect();
    let mut links = LinkTable::default();
    links.adopt(graph);
    let mut st = Layout {
        nodes: Shards { layout, works },
        links,
        arena: PayloadArena::new(),
        sched: TimingWheel::new(delay.max_delay_ticks()),
    };
    let faults = faults.map(|plan| FaultState::new(graph, plan));
    let mut core = Core::new(graph, delay, limits, traced.then_some(k as u32), faults);
    // Dense ticks whose activations were shipped to the worker pool.
    let mut pool_dispatches = 0u64;
    run_ticks(&mut core, &mut st, |core, st, due| match pool.as_deref_mut() {
        Some(pool) if due.len() >= PARALLEL_TICK_THRESHOLD => {
            pool_dispatches += 1;
            bucket(core, st, due);
            let newly_done = dispatch(&mut st.nodes, pool);
            core.count_done(newly_done, core.now);
            replay(core, st, due)?;
            Ok(true)
        }
        _ => Ok(false),
    })?;

    let nodes = st.nodes.works.into_iter().flat_map(|w| w.expect("shard at home").nodes).collect();
    let (report, trace) = finish(core, nodes, &st.sched, &st.arena);
    Ok((AsyncReport { pool_dispatches, ..report }, trace))
}

/// Dense-tick step 1: lends every deliverable payload of the tick out of the
/// arena into its destination shard's inbox, in `seq` order. Acknowledgments
/// and fault-blocked deliveries stay behind for the replay's `Core::fire`
/// (fault flags are constant within a tick, so the replay sees the same
/// verdict).
// ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
fn bucket<P: Protocol>(core: &Core<'_, P>, st: &mut ShardedLayout<P>, due: &[(u64, EvRef)]) {
    for &(_, ev) in due {
        if ev.is_ack() {
            continue;
        }
        let state = st.links.link(ev.link as usize);
        let (from, to) = (state.from(), state.to());
        if core.blocks(DirectedEdgeId(ev.link), from, to) {
            continue;
        }
        let msg = st.arena.lend(ev.payload);
        let s = st.nodes.layout.shard_of(to);
        st.nodes.work(s).inbox.push((from, to, msg));
    }
}

/// Dense-tick step 2: ships every shard with a non-empty inbox to the pool,
/// collects them all, and returns how many nodes became done. A caught panic
/// is re-raised only after every outstanding shard answered, so no worker is
/// left sending into a dropped channel.
fn dispatch<P: Protocol>(shards: &mut Shards<P>, pool: &mut WorkerPool<ShardWork<P>>) -> usize {
    let mut outstanding = 0usize;
    for (s, slot) in shards.works.iter_mut().enumerate() {
        if !slot.as_ref().expect("shard at home").inbox.is_empty() {
            pool.dispatch(s, slot.take().expect("shard at home"));
            outstanding += 1;
        }
    }
    let mut panicked: Option<PanicPayload> = None;
    for _ in 0..outstanding {
        let (idx, work, panic) = pool.collect();
        shards.works[idx] = Some(work);
        panicked = panicked.or(panic);
    }
    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }
    (0..shards.layout.k).map(|s| std::mem::take(&mut shards.work(s).newly_done)).sum()
}

/// Dense-tick step 3: walks the tick's due list in global `seq` order,
/// firing the acks filed late at this tick in between. A delivery activated
/// in phase 1 reclaims its arena slot (where the serial engine takes it) and
/// replays its effects from its shard's cursor; every other event fires in
/// full. `run_ticks` fires the late acks that follow the last due event.
// ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
fn replay<P: Protocol>(
    core: &mut Core<'_, P>,
    st: &mut ShardedLayout<P>,
    due: &mut Vec<(u64, EvRef)>,
) -> Result<(), SimError> {
    for (seq, ev) in due.drain(..) {
        core.fire_late(st, seq);
        let link = DirectedEdgeId(ev.link);
        if !ev.is_ack() {
            let state = st.links.link(link.index());
            let (from, to) = (state.from(), state.to());
            if !core.blocks(link, from, to) {
                st.arena.reclaim(ev.payload);
                let s = st.nodes.layout.shard_of(to);
                core.begin_delivery(seq, s as u32, from, to)?;
                let sends = st.nodes.work(s).outbox_lens.pop_front();
                for _ in 0..sends.expect("phase 1 ran every inbox delivery") {
                    let out = st.nodes.work(s).captured.pop_front();
                    core.send(st, to, out.expect("the capture buffer holds each outbox"))?;
                }
                core.end_delivery(st, link, from, to);
                continue;
            }
        }
        core.fire(st, seq, ev)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::async_engine::run_async_faulted;
    use crate::metrics::MessageClass;
    use crate::SchedulerKind;

    /// Chatty flood for the failure tests below: every 5th node a source,
    /// three echo waves, mixed per-message priorities. The engine-equivalence
    /// matrix lives in `ds-verify`'s engine contract (`ds_verify::check`),
    /// which this crate's tests cannot depend on.
    #[derive(Debug)]
    struct Chatter<'g> {
        me: NodeId,
        neighbors: &'g [NodeId],
        arrivals: Vec<(NodeId, u64)>,
        waves_left: u64,
    }

    impl<'g> Chatter<'g> {
        fn new(graph: &'g Graph, me: NodeId) -> Self {
            Chatter { me, neighbors: graph.neighbors(me), arrivals: Vec::new(), waves_left: 3 }
        }
    }

    impl Protocol for Chatter<'_> {
        type Message = u64;

        fn on_start(&mut self, ctx: &mut Ctx<u64>) {
            if self.me.index().is_multiple_of(5) {
                for (i, &u) in self.neighbors.iter().enumerate() {
                    ctx.send_with(u, 1, (i % 3) as u64, MessageClass::Algorithm);
                }
            }
        }

        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<u64>) {
            self.arrivals.push((from, msg));
            if self.waves_left > 0 {
                self.waves_left -= 1;
                for (i, &u) in self.neighbors.iter().enumerate() {
                    ctx.send_with(u, msg + 1, (msg + i as u64) % 4, MessageClass::Algorithm);
                }
            }
        }

        fn is_done(&self) -> bool {
            !self.arrivals.is_empty() || self.me.index().is_multiple_of(5)
        }
    }

    #[test]
    fn event_limit_aborts_like_the_serial_engine() {
        let graph = Graph::grid(5, 5);
        let limits = SimLimits { max_events: 40, ..SimLimits::default() };
        let serial = run_async_faulted(
            &graph,
            DelayModel::uniform(),
            None,
            |v| Chatter::new(&graph, v),
            limits,
            SchedulerKind::TimingWheel,
        )
        .unwrap_err();
        let sharded = run_async_sharded_faulted_with(
            &graph,
            DelayModel::uniform(),
            None,
            |v| Chatter::new(&graph, v),
            limits,
            ShardedOptions { threads: ThreadMode::Off, ..ShardedOptions::new(4) },
        )
        .unwrap_err();
        assert_eq!(serial, sharded);
        assert_eq!(sharded, SimError::EventLimitExceeded { limit: 40 });
    }

    #[test]
    #[should_panic(expected = "chatter protocol failure on node 77")]
    fn worker_thread_panics_propagate_instead_of_deadlocking() {
        // A protocol panic inside a phase-1 worker must reach the caller like
        // the serial engine's would. Without the catch_unwind/resume_unwind
        // hand-off the coordinator would block forever on the completion
        // channel (idle workers keep it open), turning one bad activation
        // into a hung simulation. Same setup as the threaded test above: the
        // uniform start wave exceeds PARALLEL_TICK_THRESHOLD, so phase 1
        // really runs on workers under ForceOn.
        #[derive(Debug)]
        struct Exploding<'g> {
            inner: Chatter<'g>,
        }
        impl Protocol for Exploding<'_> {
            type Message = u64;
            fn on_start(&mut self, ctx: &mut Ctx<u64>) {
                self.inner.on_start(ctx);
            }
            fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<u64>) {
                assert_ne!(self.inner.me.index(), 77, "chatter protocol failure on node 77");
                self.inner.on_message(from, msg, ctx);
            }
            fn is_done(&self) -> bool {
                self.inner.is_done()
            }
        }
        let graph = Graph::grid(12, 12);
        let _ = run_async_sharded_faulted_with(
            &graph,
            DelayModel::uniform(),
            None,
            |v| Exploding { inner: Chatter::new(&graph, v) },
            SimLimits::default(),
            ShardedOptions { threads: ThreadMode::ForceOn, ..ShardedOptions::new(4) },
        );
    }

    #[test]
    fn trace_records_carry_the_destination_shard() {
        // The happens-before checker reads shard consistency off the trace;
        // here each record's shard must be the layout's owner of its
        // destination.
        let graph = Graph::random_connected(22, 0.16, 19);
        for shards in [1, 2, 4] {
            let (_, trace) = run_async_sharded_faulted_traced_with(
                &graph,
                DelayModel::jitter(4),
                None,
                |v| Chatter::new(&graph, v),
                SimLimits::default(),
                ShardedOptions { threads: ThreadMode::Off, ..ShardedOptions::new(shards) },
            )
            .expect("traced sharded run");
            assert_eq!(trace.shards, shards as u32);
            assert!(!trace.records.is_empty());
            let layout = ShardLayout::new(graph.node_count(), shards);
            for record in &trace.records {
                assert_eq!(record.shard as usize, layout.shard_of(record.dst));
            }
        }
    }

    #[test]
    fn non_neighbor_sends_are_rejected() {
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
        let graph = Graph::path(3);
        let err = run_async_sharded_faulted_with(
            &graph,
            DelayModel::uniform(),
            None,
            |me| Bad { me },
            SimLimits::default(),
            ShardedOptions::new(2),
        )
        .unwrap_err();
        assert_eq!(err, SimError::NotNeighbor { from: NodeId(0), to: NodeId(2) });
    }

    #[test]
    fn shard_layout_partitions_nodes_contiguously() {
        for k in [1, 2, 4, 7, 23] {
            let layout = ShardLayout::new(23, k);
            assert_eq!(layout.k, k);
            assert_eq!(layout.bounds[0], 0);
            assert_eq!(*layout.bounds.last().unwrap(), 23);
            // Every node maps into the shard whose contiguous range holds it.
            for v in (0..23).map(NodeId) {
                let s = layout.shard_of(v);
                assert!(layout.bounds[s] <= v.index() && v.index() < layout.bounds[s + 1]);
            }
        }
        // Oversized shard counts clamp to n.
        assert_eq!(ShardLayout::new(23, 500).k, 23);
    }
}
