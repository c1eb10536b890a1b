//! The effects core: the one place an event fires.
//!
//! Both asynchronous engines — the serial loop in [`crate::async_engine`] and
//! the sharded barrier/merge loop in [`crate::sharded`] — decide *when* and
//! *where* an event is processed; what processing it **does** is defined here
//! and nowhere else: pushing a sent message onto its link, injecting the
//! lowest-stage queued message into an idle link, the effects of a delivery
//! (trace record, event budget, sends, the acknowledgment), releasing a link
//! on an acknowledgment or a fault drop, the done bookkeeping, the time-0
//! start wave and the final [`AsyncReport`].
//!
//! That makes cross-engine bit-identity true by construction. The global
//! `seq` stream feeds the delay adversary, so a schedule is exactly the order
//! in which sequence numbers are drawn — and every draw happens in this
//! module:
//!
//! | effect | draws | where |
//! |---|---|---|
//! | a protocol sends a message | 1 (its FIFO/delay key) | [`Core::send`] |
//! | a link injects a queued message | 1 (the delivery event) | `try_inject` |
//! | a delivery is acknowledged | 2 (the ack's delay key, the ack event) | [`Core::end_delivery`] |
//!
//! Acknowledgments firing, fault drops and drain-drops on a dead link draw
//! nothing.
//!
//! The core is generic (monomorphized, no `dyn`) over [`Storage`], which
//! answers the three questions the engines genuinely differ on: where the
//! [`LinkState`] of a directed edge lives, which shard is home to a node (its
//! protocol instance, done flag and the arena owning payloads addressed to
//! it), and where a scheduled event goes.

use crate::arena::PayloadArena;
use crate::async_engine::{AsyncReport, SimError, SimLimits};
use crate::delay::DelayModel;
use crate::fault::FaultState;
use crate::metrics::RunMetrics;
use crate::protocol::{Ctx, Outgoing, Protocol};
use crate::stage_queue::StageQueue;
use crate::trace::{DeliveryTrace, TraceState};
use crate::TICKS_PER_UNIT;
use ds_graph::{DirectedEdgeId, Graph, NodeId};

/// Per-directed-edge link state, indexed flat by [`DirectedEdgeId`] (the
/// sharded engine keeps one such table per shard). The queued entries are
/// payload-arena handles, not messages.
#[derive(Debug)]
pub(crate) struct LinkState<M> {
    /// Cached endpoints of the directed edge — the hot path reads them from the
    /// link record it touches anyway instead of chasing the graph's edge table.
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    /// Whether a message is currently in flight (awaiting acknowledgment).
    in_flight: bool,
    /// Single-entry fast path: the first queued `(priority, seq, msg)` waits here
    /// and only further arrivals spill into the bucket queue, so the common case —
    /// one message waiting per link — never touches `StageQueue` at all.
    head: Option<(u64, u64, M)>,
    /// Spilled messages, lowest `(priority, seq)` first (Lemma 2.5: lowest stage
    /// first, FIFO within a stage).
    queue: StageQueue<M>,
}

impl<M> LinkState<M> {
    pub(crate) fn new(from: NodeId, to: NodeId) -> Self {
        LinkState { from, to, in_flight: false, head: None, queue: StageQueue::new() }
    }

    /// Whether the link holds no transient state: nothing in flight, nothing
    /// queued. At quiescence every link is idle (a queued message always has
    /// an ack or drop pending to release it), which is what lets a finished
    /// run's link table be recycled into the next run ([`crate::recycle`]).
    pub(crate) fn is_idle(&self) -> bool {
        !self.in_flight && self.head.is_none() && self.queue.is_empty()
    }

    fn push(&mut self, priority: u64, seq: u64, msg: M) {
        if self.head.is_none() {
            self.head = Some((priority, seq, msg));
        } else {
            self.queue.push(priority, seq, msg);
        }
    }

    /// Pops the waiting message with the minimum `(priority, seq)` as
    /// `(seq, msg)`. The head entry and the bucket queue each yield their own
    /// minimum; the smaller key wins, so the order equals the unsplit queue's.
    fn pop(&mut self) -> Option<(u64, M)> {
        match self.head.take() {
            Some((hp, hs, hmsg)) => match self.queue.min_key() {
                Some(qkey) if qkey < (hp, hs) => {
                    self.head = Some((hp, hs, hmsg));
                    self.queue.pop()
                }
                _ => Some((hs, hmsg)),
            },
            None => self.queue.pop(),
        }
    }
}

/// An event as the core sees it. Deliveries carry their endpoints inline so
/// an engine can route and activate them without consulting the link table
/// (the sharded engine's destination shard does not own it).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Event {
    /// The message behind `handle` (in the arena of `to`'s home) arrives.
    Deliver { link: DirectedEdgeId, from: NodeId, to: NodeId, handle: u32 },
    /// The acknowledgment of `link`'s in-flight message arrives.
    Ack { link: DirectedEdgeId },
    /// A delivery the fault adversary ate before it could fire. Never
    /// scheduled: the sharded engine rewrites a fault-blocked `Deliver` to
    /// this at drain time, so phase 1 skips the activation and the merge
    /// still drops it at its exact `(tick, seq)` slot.
    Dropped { link: DirectedEdgeId, to: NodeId, handle: u32 },
}

/// Everything that lives with node `v`, wherever the engine keeps it.
pub(crate) struct Home<'a, P: Protocol> {
    /// The shard owning `v` (0 on the serial engine); recorded in traces.
    pub(crate) shard: u32,
    pub(crate) node: &'a mut P,
    pub(crate) done: &'a mut bool,
    /// The arena owning every payload addressed to `v`.
    pub(crate) arena: &'a mut PayloadArena<P::Message>,
}

/// What an engine's data layout must answer for the core to run on it.
pub(crate) trait Storage {
    /// The protocol the engine runs.
    type Node: Protocol;

    /// The link state of directed edge `link`.
    fn link(&mut self, link: DirectedEdgeId) -> &mut LinkState<u32>;

    /// The home of node `v`.
    fn home(&mut self, v: NodeId) -> Home<'_, Self::Node>;

    /// Files `ev` (a `Deliver` or an `Ack`) to fire at tick `at` with global
    /// sequence number `seq`, scheduled from the tick the core is processing.
    fn schedule(&mut self, at: u64, seq: u64, ev: Event);
}

/// Engine-global state of one asynchronous run plus the rules that mutate it.
pub(crate) struct Core<'g, P: Protocol> {
    graph: &'g Graph,
    delay: DelayModel,
    /// The tick being processed. Engines set it before firing a tick's events.
    pub(crate) now: u64,
    seq: u64,
    /// Deliveries processed so far, checked against `max_events`.
    deliveries: u64,
    max_events: u64,
    metrics: RunMetrics,
    done_count: usize,
    time_all_done: Option<u64>,
    /// Delivery tracing for the happens-before checker ([`crate::trace`]).
    /// `None` (the default) makes every hook a dead branch: schedules are
    /// bit-identical with tracing on or off.
    trace: Option<TraceState>,
    /// The compiled fault adversary. `None` (the default) makes every check a
    /// dead branch. The sharded engine reads it to defuse blocked deliveries
    /// at drain time.
    pub(crate) faults: Option<FaultState>,
    /// Messages dropped by the fault adversary ([`AsyncReport::dropped_events`]).
    dropped: u64,
    /// Size of the largest one-tick due batch ([`AsyncReport::max_batch`]);
    /// maintained by the engine loop, which is what sees batches.
    pub(crate) max_batch: u64,
    /// Recycled outbox buffer, threaded through every coordinator-side
    /// activation.
    outbox: Vec<Outgoing<P::Message>>,
    /// Links touched by the sends of one activation, injected in send order.
    touched: Vec<DirectedEdgeId>,
}

impl<'g, P: Protocol> Core<'g, P> {
    /// A core at tick 0 with nothing sent. `trace_shards` turns delivery
    /// tracing on, recording that many shards in the trace header.
    pub(crate) fn new(
        graph: &'g Graph,
        delay: DelayModel,
        limits: SimLimits,
        trace_shards: Option<u32>,
        faults: Option<FaultState>,
    ) -> Self {
        Core {
            graph,
            delay,
            now: 0,
            seq: 0,
            deliveries: 0,
            max_events: limits.max_events,
            metrics: RunMetrics::default(),
            done_count: 0,
            time_all_done: None,
            trace: trace_shards.map(TraceState::new),
            faults,
            dropped: 0,
            max_batch: 0,
            outbox: Vec::new(),
            touched: Vec::new(),
        }
    }

    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Applies every fault transition due by tick `t`.
    pub(crate) fn advance_faults(&mut self, t: u64) {
        if let Some(f) = self.faults.as_mut() {
            f.advance_to(t);
        }
    }

    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    fn blocks(&self, link: DirectedEdgeId, from: NodeId, to: NodeId) -> bool {
        self.faults.as_ref().is_some_and(|f| f.blocks(link, from, to))
    }

    /// Counts `newly` nodes that produced their output at `tick`; the tick at
    /// which the count reaches `n` is the run's time to output.
    pub(crate) fn count_done(&mut self, newly: usize, tick: u64) {
        self.done_count += newly;
        if self.done_count == self.graph.node_count() && self.time_all_done.is_none() {
            self.time_all_done = Some(tick);
        }
    }

    /// The done-check after an activation of `node` at `self.now`.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    fn update_done(&mut self, done: &mut bool, node: &P) {
        if !*done && node.is_done() {
            *done = true;
            self.count_done(1, self.now);
        }
    }

    /// Draws the seq of a scheduled event and files it with the engine.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    fn schedule<S: Storage<Node = P>>(&mut self, st: &mut S, at: u64, ev: Event) {
        let seq = self.next_seq();
        if let Some(tr) = self.trace.as_mut() {
            tr.on_scheduled(seq);
        }
        st.schedule(at, seq, ev);
    }

    /// Queues one message `from` sent on its link, drawing its message seq.
    /// The payload moves into the arena of the *destination's* home — the one
    /// that will eventually take it back out — and only its handle queues on
    /// the link. The link is injected by the next [`Core::end_delivery`] (or
    /// the start wave), after every send of the activation has queued.
    ///
    /// # Errors
    ///
    /// [`SimError::NotNeighbor`] if `out.to` is not adjacent to `from`.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    pub(crate) fn send<S: Storage<Node = P>>(
        &mut self,
        st: &mut S,
        from: NodeId,
        out: Outgoing<P::Message>,
    ) -> Result<(), SimError> {
        let Some(link) = self.graph.edge_id(from, out.to) else {
            return Err(SimError::NotNeighbor { from, to: out.to });
        };
        self.metrics.record_message(out.class);
        let seq = self.next_seq();
        let handle = st.home(out.to).arena.alloc(out.msg);
        st.link(link).push(out.priority, seq, handle);
        self.touched.push(link);
        Ok(())
    }

    /// If `link` is idle and has a queued message, pops the lowest-stage one
    /// and schedules its delivery. On a fault-blocked link everything queued
    /// is lost instead: the drain draws no sequence numbers — so the schedule
    /// of live traffic is untouched by how many messages die here — but every
    /// drained handle is freed.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    fn try_inject<S: Storage<Node = P>>(&mut self, st: &mut S, link: DirectedEdgeId) {
        let state = st.link(link);
        if state.in_flight {
            return;
        }
        let (from, to) = (state.from, state.to);
        if self.blocks(link, from, to) {
            while let Some((_, handle)) = st.link(link).pop() {
                st.home(to).arena.take(handle);
                self.dropped += 1;
            }
            return;
        }
        let Some((msg_seq, handle)) = state.pop() else { return };
        state.in_flight = true;
        let at = self.now + self.delay.delay_ticks_at(from, to, msg_seq, self.now);
        self.schedule(st, at, Event::Deliver { link, from, to, handle });
    }

    /// Injects every link the current activation's sends touched, in order.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    fn flush<S: Storage<Node = P>>(&mut self, st: &mut S) {
        let mut touched = std::mem::take(&mut self.touched);
        for link in touched.drain(..) {
            self.try_inject(st, link);
        }
        self.touched = touched;
    }

    /// Frees `link` (its in-flight message was acknowledged or dropped) and
    /// lets the next queued message go.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    fn release<S: Storage<Node = P>>(&mut self, st: &mut S, link: DirectedEdgeId) {
        st.link(link).in_flight = false;
        self.try_inject(st, link);
    }

    /// First half of a delivery's effects, after its activation ran: the
    /// trace record and the event budget. The caller then [`Core::send`]s the
    /// activation's outgoings in order and closes with [`Core::end_delivery`].
    ///
    /// # Errors
    ///
    /// [`SimError::EventLimitExceeded`] once the run has processed more than
    /// `max_events` deliveries.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    pub(crate) fn begin_delivery(
        &mut self,
        seq: u64,
        shard: u32,
        from: NodeId,
        to: NodeId,
    ) -> Result<(), SimError> {
        if let Some(tr) = self.trace.as_mut() {
            tr.on_delivery(seq, self.now, shard, from, to);
        }
        self.deliveries += 1;
        if self.deliveries > self.max_events {
            return Err(SimError::EventLimitExceeded { limit: self.max_events });
        }
        self.metrics.events += 1;
        Ok(())
    }

    /// Second half of a delivery's effects: inject the links its sends
    /// touched, then acknowledge back to the sender. The ack draws two seqs —
    /// one keys its delay, one is the ack event's own.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    pub(crate) fn end_delivery<S: Storage<Node = P>>(
        &mut self,
        st: &mut S,
        link: DirectedEdgeId,
        from: NodeId,
        to: NodeId,
    ) {
        self.flush(st);
        self.metrics.acks += 1;
        let ack_seq = self.next_seq();
        let at = self.now + self.delay.delay_ticks_at(to, from, ack_seq, self.now);
        self.schedule(st, at, Event::Ack { link });
    }

    /// Fires one event in full, at `self.now`: an ack or a drop releases its
    /// link; a delivery is dropped if the fault adversary blocks it right
    /// now, and otherwise activates its destination and replays the effects.
    ///
    /// # Errors
    ///
    /// As [`Core::begin_delivery`] and [`Core::send`]. The offending
    /// delivery's activation has run; no later event's has.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    pub(crate) fn fire<S: Storage<Node = P>>(
        &mut self,
        st: &mut S,
        seq: u64,
        ev: Event,
    ) -> Result<(), SimError> {
        match ev {
            Event::Ack { link } => {
                if let Some(tr) = self.trace.as_mut() {
                    tr.on_ack(seq);
                }
                self.release(st, link);
            }
            Event::Deliver { link, from, to, handle } if !self.blocks(link, from, to) => {
                let mut ctx = Ctx::with_buffer(to, std::mem::take(&mut self.outbox));
                let home = st.home(to);
                let msg = home.arena.take(handle);
                home.node.on_message(from, msg, &mut ctx);
                self.update_done(home.done, home.node);
                self.begin_delivery(seq, home.shard, from, to)?;
                for out in ctx.drain_outbox() {
                    self.send(st, to, out)?;
                }
                self.outbox = ctx.into_buffer();
                self.end_delivery(st, link, from, to);
            }
            // The adversary ate the delivery: no activation, no ack, no trace
            // record, no sequence draws — only the payload and the link are
            // freed.
            Event::Deliver { link, to, handle, .. } | Event::Dropped { link, to, handle } => {
                st.home(to).arena.take(handle);
                self.dropped += 1;
                self.release(st, link);
            }
        }
        Ok(())
    }

    /// Time 0: starts every node in node order. A node crashed at tick 0
    /// misses its `on_start` (crash-stop: it emits nothing) but still gets the
    /// done-check, so "never participated" nodes count as done only if their
    /// protocol says so.
    ///
    /// # Errors
    ///
    /// As [`Core::send`].
    pub(crate) fn start<S: Storage<Node = P>>(&mut self, st: &mut S) -> Result<(), SimError> {
        self.advance_faults(0);
        for v in self.graph.nodes() {
            let mut ctx = Ctx::with_buffer(v, std::mem::take(&mut self.outbox));
            let home = st.home(v);
            if !self.faults.as_ref().is_some_and(|f| f.is_crashed(v)) {
                home.node.on_start(&mut ctx);
            }
            self.update_done(home.done, home.node);
            for out in ctx.drain_outbox() {
                self.send(st, v, out)?;
            }
            self.outbox = ctx.into_buffer();
            self.flush(st);
        }
        Ok(())
    }

    /// Closes the run. The report's scheduler and arena internals
    /// (`overflow_events`, `peak_live_handles`, `arena_bytes`,
    /// `pool_dispatches`) are zero: they describe the engine's layout, so the
    /// engine fills them in. `batched_ticks` stays 0 for every engine.
    pub(crate) fn finish(mut self, nodes: Vec<P>) -> (AsyncReport<P>, Option<DeliveryTrace>) {
        self.metrics.time_to_output = self.time_all_done.map(|t| t as f64 / TICKS_PER_UNIT as f64);
        self.metrics.time_to_quiescence = self.now as f64 / TICKS_PER_UNIT as f64;
        let report = AsyncReport {
            metrics: self.metrics,
            nodes,
            overflow_events: 0,
            peak_live_handles: 0,
            arena_bytes: 0,
            max_batch: self.max_batch,
            batched_ticks: 0,
            pool_dispatches: 0,
            dropped_events: self.dropped,
            fault_transitions: self.faults.as_ref().map_or(0, FaultState::transitions),
        };
        (report, self.trace.map(TraceState::finish))
    }
}
