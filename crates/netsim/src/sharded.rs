//! Parallel sharded asynchronous engine: shard-local delivery over a
//! persistent worker pool, serial cross-shard merge at one barrier per
//! occupied tick — schedules **bit-identical** to the single-threaded timing
//! wheel.
//!
//! # Shard layout
//!
//! The dense node-id space `0..n` is partitioned into `K` contiguous ranges
//! ("shards"). Every shard owns
//!
//! * the protocol instances of its nodes,
//! * the outgoing links of its nodes — the link records (the single-entry
//!   head inline, further messages in the shard's own spill table of
//!   [`crate::stage_queue::StageQueue`]s) of every directed edge whose
//!   *source* lies in the shard, and
//! * one bounded-horizon [`TimingWheel`] holding the events the shard
//!   processes: deliveries addressed to its nodes, and acknowledgments for its
//!   outgoing links.
//!
//! # The shard/merge contract
//!
//! The serial engine processes each tick's events in ascending global sequence
//! number (`seq`). Within one tick, the work of an event splits into two parts
//! with very different dependency structure:
//!
//! 1. the **protocol activation** (`Protocol::on_message`) reads and writes
//!    only the destination node's state and draws no sequence numbers, and
//! 2. the **engine effects** — outbox dispatch (which assigns message `seq`s),
//!    link-queue pushes and pops, delivery injection (whose adversarial delay
//!    consumes `seq`s) and acknowledgment scheduling — mutate link and
//!    scheduler state shared across nodes and *define* the `seq` stream that
//!    feeds the delay adversary.
//!
//! Deliveries of one tick are causally independent across distinct destination
//! nodes: no same-tick event can observe another's effects, because every
//! delay is at least one tick, acknowledgments never touch node state, and a
//! node's own deliveries reach it in ascending `seq` order within its shard's
//! event list. Each occupied tick therefore runs as one barrier:
//!
//! * **Phase 1 — shard-local delivery (parallel).** Every shard drains its due
//!   events and runs the activations of its deliveries, in shard-local `seq`
//!   order, capturing each activation's outbox verbatim. No sequence numbers
//!   are drawn, no link or wheel is touched; shards share nothing, so worker
//!   threads run them concurrently.
//! * **Phase 2 — cross-shard merge (serial, at the tick barrier).** The
//!   coordinator merges the shards' event lists by **global `seq`** — a total
//!   order fixed when the events were scheduled, independent of thread
//!   interleaving — and replays each event's engine effects by calling the
//!   same effects core (`effects.rs`) the serial engine calls: sends in
//!   capture order, lowest-stage-first injection, acknowledgment scheduling.
//!   Messages and acknowledgments that cross shards along cut links are handed
//!   to the destination shard's wheel here, which is what makes the next
//!   tick's phase 1 shard-local again.
//!
//! Because phase 2 draws sequence numbers through the very code the serial
//! engine draws them through, in the serial order, and phase 1 performs no
//! operation that could observe the difference, the resulting schedule — every
//! delivery, every delay, every metric — is bit-identical to
//! [`crate::SchedulerKind::TimingWheel`]'s, for any shard count and any thread
//! interleaving (`tests/scheduler_equiv.rs` and `tests/determinism.rs` pin
//! this across the scenario matrix; `tests/golden_schedule.rs` pins both
//! engines against digests recorded before they shared a core). The one
//! observable difference is *intra-tick activation order across different
//! nodes*: a protocol that shares mutable state between node instances (not a
//! distributed algorithm, but e.g. a test harness logging through a mutex) may
//! record interleavings in a different order; per-node observation sequences
//! are identical. On an error (`SimError`), the run aborts at the same event
//! as the serial engine. The serial engine stops *activating* there too; here
//! phase 1 has already run every activation of the tick before the merge
//! notices — the API returns no nodes on error, so this is only observable
//! through the escape hatches above (state shared across node instances, or
//! an activation that panics past the serial abort point).
//!
//! Every wheel's clock equals the barrier's tick during the merge (wheels
//! without events at the tick are advanced to it), so a merge-time schedule
//! classifies in-horizon versus overflow exactly as the one global wheel of
//! the serial engine does. PR 7's batched windows of several ticks per
//! barrier were removed after an A/B showed no end-to-end gain (DESIGN.md
//! §6.3).
//!
//! # Threads and cost
//!
//! Worker threads are `W` **long-lived** threads in a [`crate::pool`]
//! `WorkerPool`, created once per run; at each barrier the first idle worker
//! takes the next queued shard. Which worker runs a shard depends on thread
//! timing, but a shard's work unit is owned by one worker at a time and the
//! merge orders by `seq`, so the schedule does not. The two knobs decouple:
//! pick `shards` for partition granularity and `workers` for the host's core count
//! ([`ShardedOptions::workers`]; `0` means one worker per shard). The pool is
//! engaged per barrier, and only when the tick carries enough events to
//! amortize the two channel hops per non-empty shard; sparser barriers are
//! processed inline by the coordinator. [`ThreadMode::Auto`] also disables
//! workers entirely on single-core hosts, where sharding still helps by
//! shrinking the per-phase working set (nodes of one shard, then links), but
//! time-slicing threads would only add overhead. Phase 2 is inherently serial
//! — it is the price of a sequence-exact adversary — so speedup follows
//! Amdahl's law in the activation share of the workload; DESIGN.md §6
//! tabulates the costs, and [`AsyncReport::pool_dispatches`] makes the
//! hand-off rate observable per run.

use crate::arena::PayloadArena;
use crate::async_engine::{AsyncReport, SimError, SimLimits};
use crate::delay::DelayModel;
use crate::effects::{Core, Event, Home, LinkState, LinkTable, SpillTable, Storage};
use crate::fault::{FaultPlan, FaultState};
use crate::pool::{PanicPayload, WorkerPool};
use crate::protocol::{Ctx, Outgoing, Protocol};
use crate::scheduler::{EventScheduler, TimingWheel};
use crate::trace::DeliveryTrace;
use ds_graph::{DirectedEdgeId, Graph, NodeId};
use std::collections::VecDeque;

/// Minimum number of due events in a tick before phase 1 is shipped to the
/// worker pool; sparser ticks are processed inline by the coordinator,
/// because the hand-off (two channel operations per non-empty shard) would
/// exceed the activation work it parallelizes.
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
    /// Never spawn workers: the coordinator runs every phase itself. Still
    /// uses the per-shard data layout (and its cache benefits).
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
// Shard layout
// ---------------------------------------------------------------------------

/// Contiguous partition of the dense node-id space plus the link→shard table.
struct ShardLayout {
    /// Number of shards.
    k: usize,
    /// `big` shards of size `base + 1` come first, then shards of size `base`.
    base: usize,
    big: usize,
    /// First global node id of each shard (length `k + 1`).
    bounds: Vec<usize>,
    /// Directed edge id → `(source shard << 32) | local slot` in that shard's
    /// link table.
    link_home: Vec<u64>,
}

impl ShardLayout {
    fn new(graph: &Graph, shards: usize) -> Self {
        let n = graph.node_count();
        let k = shards.clamp(1, n.max(1));
        let (base, rem) = (n / k, n % k);
        let mut bounds = Vec::with_capacity(k + 1);
        let mut start = 0;
        for i in 0..k {
            bounds.push(start);
            start += base + usize::from(i < rem);
        }
        bounds.push(n);
        let mut layout = ShardLayout { k, base, big: rem, bounds, link_home: Vec::new() };
        let mut slots = vec![0u64; k];
        let homes = (0..graph.directed_edge_count())
            .map(|e| {
                let (from, _) = graph.directed_endpoints(DirectedEdgeId(e as u32));
                let s = layout.shard_of(from);
                let slot = slots[s];
                slots[s] += 1;
                ((s as u64) << 32) | slot
            })
            .collect();
        layout.link_home = homes;
        layout
    }

    /// Shard owning node `v` (its protocol instance and outgoing links).
    fn shard_of(&self, v: NodeId) -> usize {
        let i = v.index();
        let cut = self.big * (self.base + 1);
        if i < cut {
            i / (self.base + 1)
        } else {
            self.big + (i - cut) / self.base.max(1)
        }
    }

    /// `(shard, local slot)` of a directed edge's link state.
    fn link_home(&self, link: DirectedEdgeId) -> (usize, usize) {
        let packed = self.link_home[link.index()];
        ((packed >> 32) as usize, (packed & u32::MAX as u64) as usize)
    }
}

// ---------------------------------------------------------------------------
// Events and per-shard state
// ---------------------------------------------------------------------------

/// Phase-1 output for one event, consumed by the merge in ascending `seq` —
/// the serial processing order within the tick.
#[derive(Clone, Copy, Debug)]
struct Ready {
    seq: u64,
    ev: Event,
    /// For a `Deliver` (whose activation ran in phase 1): how many captured
    /// messages it left at the front of the shard's captured-outbox queue.
    outbox: u32,
}

/// The shard state a worker thread needs: nodes, due events, phase-1 outputs.
/// Wheels and link tables stay with the coordinator (only phases run by it
/// touch them), so this is what crosses threads.
pub(crate) struct ShardWork<P: Protocol> {
    /// First global node id of the shard.
    lo: usize,
    nodes: Vec<P>,
    done: Vec<bool>,
    /// Events due at the current tick, ascending shard-local `seq`.
    due: Vec<(u64, Event)>,
    /// Phase-1 outputs, ascending `seq`.
    ready: Vec<Ready>,
    /// Payloads of every in-flight message addressed to this shard's nodes,
    /// behind the `u32` handles the events and link queues carry. Travels
    /// with the shard to its worker, so phase 1 takes payloads out without
    /// touching any other shard's state — **handles never cross shards**.
    payloads: PayloadArena<P::Message>,
    /// Captured outbox messages of this tick's activations, in event order;
    /// the merge pops from the front as it replays the events.
    captured: VecDeque<Outgoing<P::Message>>,
    /// Recycled activation outbox buffer.
    outbox_buf: Vec<Outgoing<P::Message>>,
    /// How many of this shard's nodes became done during the current tick;
    /// the coordinator sums these into the core's done count.
    newly_done: usize,
}

/// Phase 1 for one shard: run this tick's activations, capture their
/// outboxes. Runs on a pool worker when the tick is dense enough, inline on
/// the coordinator otherwise — same code, same effects either way. This is
/// the one place an activation runs outside the effects core (the core lives
/// on the coordinator; workers share nothing), so it carries its own
/// done-check.
// ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
fn phase1<P: Protocol>(w: &mut ShardWork<P>) {
    for (seq, ev) in w.due.drain(..) {
        let mut outbox = 0;
        if let Event::Deliver { from, to, handle, .. } = ev {
            let local = to.index() - w.lo;
            let mut ctx = Ctx::with_buffer(to, std::mem::take(&mut w.outbox_buf));
            let msg = w.payloads.take(handle);
            w.nodes[local].on_message(from, msg, &mut ctx);
            outbox = ctx.queued() as u32;
            w.captured.extend(ctx.drain_outbox());
            w.outbox_buf = ctx.into_buffer();
            if !w.done[local] && w.nodes[local].is_done() {
                w.done[local] = true;
                w.newly_done += 1;
            }
        }
        w.ready.push(Ready { seq, ev, outbox });
    }
}

/// The sharded engine's data layout: per shard one wheel, one link table
/// (outgoing links of its nodes) and one [`ShardWork`].
struct Shards<P: Protocol> {
    layout: ShardLayout,
    wheels: Vec<TimingWheel<Event>>,
    links: Vec<LinkTable>,
    /// `None` only while a shard is out on a pool worker (phase 1).
    works: Vec<Option<ShardWork<P>>>,
}

impl<P: Protocol> Shards<P> {
    fn work(&mut self, s: usize) -> &mut ShardWork<P> {
        self.works[s].as_mut().expect("shard at home")
    }
}

impl<P: Protocol> Storage for Shards<P> {
    type Node = P;

    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    fn link(&mut self, link: DirectedEdgeId) -> (&mut LinkState, &mut SpillTable) {
        let (s, slot) = self.layout.link_home(link);
        self.links[s].get(slot)
    }

    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    fn home(&mut self, v: NodeId) -> Home<'_, P> {
        let s = self.layout.shard_of(v);
        let w = self.works[s].as_mut().expect("shard at home");
        let local = v.index() - w.lo;
        Home {
            shard: s as u32,
            node: &mut w.nodes[local],
            done: &mut w.done[local],
            arena: &mut w.payloads,
        }
    }

    /// Deliveries go to the destination's shard, acknowledgments to the
    /// link's source shard — the cross-shard hand-off that makes the next
    /// barrier's phase 1 shard-local again.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    fn schedule(&mut self, at: u64, seq: u64, ev: Event) {
        let s = match ev {
            Event::Deliver { to, .. } => self.layout.shard_of(to),
            Event::Ack { link } => self.layout.link_home(link).0,
            Event::Dropped { .. } => unreachable!("the core schedules only deliveries and acks"),
        };
        self.wheels[s].schedule(at, seq, ev);
    }
}

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
            // (bit-identical for every worker count, pinned by
            // `worker_threads_produce_the_same_execution`).
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

/// The sharded engine loop. Without a pool it needs no `Send` bound, which is
/// how [`run_async_faulted`](crate::async_engine::run_async_faulted) runs
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
    let layout = ShardLayout::new(graph, shards);
    let k = layout.k;
    let horizon = delay.max_delay_ticks();

    let mut links: Vec<LinkTable> = (0..k).map(|_| LinkTable::default()).collect();
    for e in 0..graph.directed_edge_count() {
        let (from, to) = graph.directed_endpoints(DirectedEdgeId(e as u32));
        links[layout.shard_of(from)].push_link(from, to);
    }
    let works = (0..k)
        .map(|s| {
            let (lo, hi) = (layout.bounds[s], layout.bounds[s + 1]);
            Some(ShardWork {
                lo,
                nodes: (lo..hi).map(|i| make(NodeId(i))).collect(),
                done: vec![false; hi - lo],
                due: Vec::new(),
                ready: Vec::new(),
                payloads: PayloadArena::new(),
                captured: VecDeque::new(),
                outbox_buf: Vec::new(),
                newly_done: 0,
            })
        })
        .collect();
    let mut st = Shards {
        layout,
        wheels: (0..k).map(|_| TimingWheel::new(horizon)).collect(),
        links,
        works,
    };
    let faults = faults.map(|plan| FaultState::new(graph, plan));
    let trace_shards = traced.then_some(k as u32);
    let mut core = Core::new(graph, delay, limits, trace_shards, faults);
    // Barriers whose phase 1 was shipped to the worker pool.
    let mut pool_dispatches = 0u64;

    // Time 0, in global node order — the serial engine's init order, so the
    // initial seq draws match exactly.
    core.start(&mut st)?;

    // One barrier per occupied tick: find the globally earliest pending tick,
    // drain every shard's events of it, run phase 1 (shard-local
    // activations), then the serial phase-2 merge in global `seq` order.
    let mut pos = vec![0usize; k];
    while let Some(t) = st.wheels.iter().filter_map(TimingWheel::next_tick).min() {
        // Apply fault transitions due by t. The flags are constant within a
        // tick, so defusing fault-blocked deliveries to `Dropped` at drain
        // time equals the serial engine's at-fire check.
        core.advance_faults(t);
        core.now = t;
        let mut total_due = 0usize;
        for (wheel, work) in st.wheels.iter_mut().zip(&mut st.works) {
            if wheel.next_tick() != Some(t) {
                // Idle wheels keep lock-step with the busy ones, so overflow
                // classification matches one global wheel's.
                wheel.advance_to(t);
                continue;
            }
            let w = work.as_mut().expect("shard at home");
            wheel.take_due(&mut w.due);
            if let Some(f) = core.faults.as_ref() {
                for (_, ev) in &mut w.due {
                    if let Event::Deliver { link, from, to, handle } = *ev {
                        if f.blocks(link, from, to) {
                            *ev = Event::Dropped { link, to, handle };
                        }
                    }
                }
            }
            total_due += w.due.len();
            core.max_batch = core.max_batch.max(w.due.len() as u64);
        }

        // Phase 1.
        match pool.as_deref_mut() {
            Some(pool) if total_due >= PARALLEL_TICK_THRESHOLD => {
                pool_dispatches += 1;
                let mut outstanding = 0usize;
                for (s, slot) in st.works.iter_mut().enumerate() {
                    if !slot.as_ref().expect("shard at home").due.is_empty() {
                        let work = slot.take().expect("shard at home");
                        pool.dispatch(s, work);
                        outstanding += 1;
                    }
                }
                let mut panicked: Option<PanicPayload> = None;
                for _ in 0..outstanding {
                    let (idx, work, panic) = pool.collect();
                    st.works[idx] = Some(work);
                    panicked = panicked.or(panic);
                }
                // Resume only after every outstanding shard answered, so no
                // worker is left sending into a dropped channel mid-barrier.
                if let Some(payload) = panicked {
                    std::panic::resume_unwind(payload);
                }
            }
            _ => {
                for s in 0..k {
                    phase1(st.work(s));
                }
            }
        }
        let newly_done = (0..k).map(|s| std::mem::take(&mut st.work(s).newly_done)).sum();
        core.count_done(newly_done, t);

        // Phase 2: merge of the shards' ready lists by global `seq` — the
        // serial processing order (each ready list is already ascending in
        // it). Deliveries were activated in phase 1, so only their effects
        // replay; acks and drops fire in full.
        pos.fill(0);
        loop {
            let mut best: Option<(u64, usize)> = None;
            for (s, (work, &p)) in st.works.iter().zip(&pos).enumerate() {
                if let Some(item) = work.as_ref().expect("shard at home").ready.get(p) {
                    if best.is_none_or(|(seq, _)| item.seq < seq) {
                        best = Some((item.seq, s));
                    }
                }
            }
            let Some((_, s)) = best else { break };
            let item = st.work(s).ready[pos[s]];
            pos[s] += 1;
            match item.ev {
                Event::Deliver { link, from, to, .. } => {
                    core.begin_delivery(item.seq, s as u32, from, to)?;
                    for _ in 0..item.outbox {
                        let out = st.work(s).captured.pop_front();
                        core.send(&mut st, to, out.expect("the capture buffer holds each outbox"))?;
                    }
                    core.end_delivery(&mut st, link, from, to);
                }
                ev => core.fire(&mut st, item.seq, ev)?,
            }
        }
        for s in 0..k {
            let w = st.work(s);
            w.ready.clear();
            debug_assert!(w.captured.is_empty(), "merge consumed every captured message");
        }
    }

    let (mut peak_live_handles, mut arena_bytes) = (0u64, 0u64);
    let mut nodes = Vec::with_capacity(graph.node_count());
    for w in st.works {
        let w = w.expect("shard at home");
        debug_assert_eq!(w.payloads.live(), 0, "a finished run must return every arena handle");
        peak_live_handles += w.payloads.peak_live() as u64;
        arena_bytes += w.payloads.bytes() as u64;
        nodes.extend(w.nodes);
    }
    let (report, trace) = core.finish(nodes);
    let report = AsyncReport {
        overflow_events: st.wheels.iter().map(|w| w.overflow_scheduled()).sum(),
        peak_live_handles,
        arena_bytes,
        pool_dispatches,
        ..report
    };
    Ok((report, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::async_engine::{run_async_faulted, run_async_faulted_traced};
    use crate::metrics::{MessageClass, RunMetrics};
    use crate::{SchedulerKind, TICKS_PER_UNIT};

    /// Chatty flood recording, per node, the exact arrival stream `(from, msg)`
    /// — the node-local view of the schedule. Mixed priorities exercise the
    /// per-link stage queues; a few waves keep traffic flowing.
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

    type NodeView = (Vec<Vec<(NodeId, u64)>>, RunMetrics, u64);

    fn wheel_run(graph: &Graph, delay: &DelayModel) -> NodeView {
        let report = run_async_faulted(
            graph,
            delay.clone(),
            None,
            |v| Chatter::new(graph, v),
            SimLimits::default(),
            SchedulerKind::TimingWheel,
        )
        .expect("wheel run");
        (
            report.nodes.into_iter().map(|n| n.arrivals).collect(),
            report.metrics,
            report.overflow_events,
        )
    }

    fn sharded_run(graph: &Graph, delay: &DelayModel, opts: ShardedOptions) -> NodeView {
        let report = run_async_sharded_faulted_with(
            graph,
            delay.clone(),
            None,
            |v| Chatter::new(graph, v),
            SimLimits::default(),
            opts,
        )
        .expect("sharded run");
        (
            report.nodes.into_iter().map(|n| n.arrivals).collect(),
            report.metrics,
            report.overflow_events,
        )
    }

    #[test]
    fn sharded_matches_the_wheel_for_every_adversary_and_shard_count() {
        // Per-node arrival streams, metrics and overflow counts must be
        // byte-identical to the serial wheel for every shard count, including
        // the multi-τ outage adversary that exercises the overflow heaps.
        let graph = Graph::random_connected(26, 0.14, 11);
        let mut adversaries = DelayModel::standard_suite(7);
        adversaries.push(DelayModel::outage(7, 5, 2));
        for delay in adversaries {
            let reference = wheel_run(&graph, &delay);
            for shards in [1, 2, 3, 4, 7, 26, 100] {
                let got = sharded_run(
                    &graph,
                    &delay,
                    ShardedOptions { threads: ThreadMode::Off, ..ShardedOptions::new(shards) },
                );
                assert_eq!(got, reference, "shards={shards} diverged under {delay:?}");
            }
        }
    }

    #[test]
    fn faulted_sharded_runs_match_the_serial_wheel() {
        // Under a churn plan — link episodes plus a mid-run crash/recovery —
        // the sharded engine must reproduce the serial wheel's arrival
        // streams, drop counts and transition counts for every shard count.
        let graph = Graph::random_connected(26, 0.14, 11);
        let mut plan = FaultPlan::random_churn(&graph, 42, 6, 2, 5 * TICKS_PER_UNIT);
        plan = plan
            .node_crash(TICKS_PER_UNIT / 2, NodeId(5))
            .node_recover(3 * TICKS_PER_UNIT, NodeId(5));
        for delay in [DelayModel::uniform(), DelayModel::jitter(3), DelayModel::outage(7, 5, 2)] {
            let reference = run_async_faulted(
                &graph,
                delay.clone(),
                Some(&plan),
                |v| Chatter::new(&graph, v),
                SimLimits::default(),
                SchedulerKind::TimingWheel,
            )
            .expect("faulted wheel run");
            assert!(reference.fault_transitions > 0, "the plan must actually fire");
            let (ref_dropped, ref_transitions) =
                (reference.dropped_events, reference.fault_transitions);
            let reference_view: NodeView = (
                reference.nodes.into_iter().map(|n| n.arrivals).collect(),
                reference.metrics,
                reference.overflow_events,
            );
            for shards in [1, 2, 4, 7] {
                let report = run_async_sharded_faulted_with(
                    &graph,
                    delay.clone(),
                    Some(&plan),
                    |v| Chatter::new(&graph, v),
                    SimLimits::default(),
                    ShardedOptions { threads: ThreadMode::Off, ..ShardedOptions::new(shards) },
                )
                .expect("faulted sharded run");
                assert_eq!(
                    report.dropped_events, ref_dropped,
                    "shards={shards} drop count diverged under {delay:?}"
                );
                assert_eq!(
                    report.fault_transitions, ref_transitions,
                    "shards={shards} transitions diverged under {delay:?}"
                );
                let got: NodeView = (
                    report.nodes.into_iter().map(|n| n.arrivals).collect(),
                    report.metrics,
                    report.overflow_events,
                );
                assert_eq!(got, reference_view, "shards={shards} diverged under {delay:?}");
            }
        }
    }

    #[test]
    fn worker_threads_produce_the_same_execution() {
        // ForceOn exercises the cross-thread hand-off even on single-core
        // hosts; a uniform-delay start wave on a 12×12 grid puts well over
        // PARALLEL_TICK_THRESHOLD events into one tick, so the threaded path
        // actually runs.
        let graph = Graph::grid(12, 12);
        for delay in [DelayModel::uniform(), DelayModel::jitter(3)] {
            let reference = wheel_run(&graph, &delay);
            for shards in [2, 4] {
                let forced = sharded_run(
                    &graph,
                    &delay,
                    ShardedOptions { threads: ThreadMode::ForceOn, ..ShardedOptions::new(shards) },
                );
                assert_eq!(forced, reference, "threaded shards={shards} diverged");
            }
        }
    }

    #[test]
    fn worker_count_decouples_from_shard_count() {
        // Seven shards share fewer (and non-dividing) worker
        // counts; every combination must reproduce the serial schedule, and
        // the dense uniform start wave guarantees the pool really engages.
        let graph = Graph::grid(12, 12);
        let delay = DelayModel::uniform();
        let reference = wheel_run(&graph, &delay);
        for workers in [1, 2, 3] {
            let report = run_async_sharded_faulted_with(
                &graph,
                delay.clone(),
                None,
                |v| Chatter::new(&graph, v),
                SimLimits::default(),
                ShardedOptions { workers, threads: ThreadMode::ForceOn, ..ShardedOptions::new(7) },
            )
            .expect("pooled run");
            assert!(report.pool_dispatches > 0, "workers={workers}: pool never engaged");
            let got: NodeView = (
                report.nodes.into_iter().map(|n| n.arrivals).collect(),
                report.metrics,
                report.overflow_events,
            );
            assert_eq!(got, reference, "workers={workers} diverged");
        }
    }

    #[test]
    fn run_async_faulted_runs_sharded_sequentially() {
        let graph = Graph::grid(4, 5);
        let reference = wheel_run(&graph, &DelayModel::jitter(9));
        let report = run_async_faulted(
            &graph,
            DelayModel::jitter(9),
            None,
            |v| Chatter::new(&graph, v),
            SimLimits::default(),
            SchedulerKind::Sharded { shards: 3, workers: 0 },
        )
        .expect("sharded via run_async_faulted");
        let got: NodeView = (
            report.nodes.into_iter().map(|n| n.arrivals).collect(),
            report.metrics,
            report.overflow_events,
        );
        assert_eq!(got, reference);
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
    fn tracing_is_invisible_to_the_schedule() {
        // Bit-identity with tracing off vs. on, for the serial engine and for
        // every sharded layout: the trace hooks must not draw a seq, touch a
        // queue, or otherwise perturb the execution.
        let graph = Graph::random_connected(22, 0.16, 19);
        let delay = DelayModel::jitter(4);
        let reference = wheel_run(&graph, &delay);
        let (report, serial_trace) = run_async_faulted_traced(
            &graph,
            delay.clone(),
            None,
            |v| Chatter::new(&graph, v),
            SimLimits::default(),
            crate::SchedulerKind::TimingWheel,
        )
        .expect("traced wheel run");
        let got: NodeView = (
            report.nodes.into_iter().map(|n| n.arrivals).collect(),
            report.metrics,
            report.overflow_events,
        );
        assert_eq!(got, reference, "tracing perturbed the serial schedule");
        assert!(!serial_trace.records.is_empty());
        assert_eq!(serial_trace.shards, 1);

        for shards in [1, 2, 4] {
            let (report, trace) = run_async_sharded_faulted_traced_with(
                &graph,
                delay.clone(),
                None,
                |v| Chatter::new(&graph, v),
                SimLimits::default(),
                ShardedOptions { threads: ThreadMode::Off, ..ShardedOptions::new(shards) },
            )
            .expect("traced sharded run");
            let got: NodeView = (
                report.nodes.into_iter().map(|n| n.arrivals).collect(),
                report.metrics,
                report.overflow_events,
            );
            assert_eq!(got, reference, "tracing perturbed the sharded schedule (k={shards})");
            // The scheduler-independent view of the trace matches the serial
            // engine record for record; only the shard assignment differs,
            // and it must match the layout's owner of each destination.
            assert_eq!(trace.shards, shards as u32);
            let layout = ShardLayout::new(&graph, shards);
            assert_eq!(trace.records.len(), serial_trace.records.len());
            for (sharded_rec, serial_rec) in trace.records.iter().zip(&serial_trace.records) {
                assert_eq!(sharded_rec.schedule_key(), serial_rec.schedule_key());
                assert_eq!(sharded_rec.shard as usize, layout.shard_of(sharded_rec.dst));
            }
        }
    }

    #[test]
    fn traced_runs_cross_worker_threads_unchanged() {
        // The trace lives with the coordinator; ForceOn workers must neither
        // see it nor change what it records, and the coordinator-only run
        // must never touch the pool.
        let graph = Graph::grid(12, 12);
        let delay = DelayModel::uniform();
        let (sequential_report, sequential) = run_async_sharded_faulted_traced_with(
            &graph,
            delay.clone(),
            None,
            |v| Chatter::new(&graph, v),
            SimLimits::default(),
            ShardedOptions { threads: ThreadMode::Off, ..ShardedOptions::new(4) },
        )
        .expect("sequential traced run");
        let (report, threaded) = run_async_sharded_faulted_traced_with(
            &graph,
            delay,
            None,
            |v| Chatter::new(&graph, v),
            SimLimits::default(),
            ShardedOptions { threads: ThreadMode::ForceOn, ..ShardedOptions::new(4) },
        )
        .expect("threaded traced run");
        assert_eq!(threaded, sequential);
        assert!(report.metrics.events > 0);
        assert!(report.pool_dispatches > 0, "the uniform waves must reach the pool");
        assert_eq!(
            sequential_report.pool_dispatches, 0,
            "ThreadMode::Off must never touch the pool"
        );
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
    fn shard_layout_partitions_nodes_and_links_consistently() {
        let graph = Graph::random_connected(23, 0.2, 3);
        for k in [1, 2, 4, 7, 23] {
            let layout = ShardLayout::new(&graph, k);
            assert_eq!(layout.k, k);
            assert_eq!(layout.bounds[0], 0);
            assert_eq!(*layout.bounds.last().unwrap(), 23);
            // Every node maps into the shard whose contiguous range holds it.
            for v in graph.nodes() {
                let s = layout.shard_of(v);
                assert!(layout.bounds[s] <= v.index() && v.index() < layout.bounds[s + 1]);
            }
            // Link slots are dense per shard, in edge-id order.
            let mut counts = vec![0usize; k];
            for e in 0..graph.directed_edge_count() {
                let id = DirectedEdgeId(e as u32);
                let (from, _) = graph.directed_endpoints(id);
                let (s, slot) = layout.link_home(id);
                assert_eq!(s, layout.shard_of(from));
                assert_eq!(slot, counts[s]);
                counts[s] += 1;
            }
        }
        // Oversized shard counts clamp to n.
        assert_eq!(ShardLayout::new(&graph, 500).k, 23);
    }
}
