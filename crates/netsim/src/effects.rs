//! The effects core: the one place an event fires.
//!
//! Both asynchronous engines — the serial loop in [`crate::async_engine`] and
//! the sharded engine in [`crate::sharded`], which runs that same loop and
//! only splits a dense tick's activations over worker threads — decide *when*
//! and *where* an activation runs; what processing an event **does** is
//! defined here and nowhere else: pushing a sent message onto its link,
//! injecting the lowest-stage queued message into an idle link, the effects
//! of a delivery (trace record, event budget, sends, the acknowledgment),
//! releasing a link on an acknowledgment or a fault drop, the done
//! bookkeeping, the time-0 start wave and the final [`AsyncReport`].
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
//! # Parked acknowledgments
//!
//! An ack that fires on an empty link queue draws nothing and only clears
//! the link's `in_flight` flag, and on most schedules almost every ack is
//! such an ack. So an ack becomes a scheduler event only if a message waits
//! behind it: [`Core::end_delivery`] draws both of its seqs as always, but
//! on a link with an empty queue it parks the ack's `(tick, seq)` in the
//! link record instead of filing it. The first [`Core::send`] onto the link
//! settles it against the delivery being processed: an ack earlier in
//! `(tick, seq)` order has fired already and the link is free; a later one is
//! filed at its original `(tick, seq)` — a later tick through
//! [`EventScheduler::schedule_late`], the current tick into the core's
//! `late` list, which the engine loop merges by seq ([`Core::fire_late`]).
//! `in_flight` is read only by `try_inject`, and only after such a send, so
//! resolving the flag lazily reproduces every draw; at the end of the run
//! [`Core::release_parked`] frees the links still parked and moves the clock
//! and the fault plan to the last parked tick (DESIGN.md §10.2 has the
//! argument). [`AsyncReport::acks_scheduled`] counts the filed acks.
//!
//! The core runs on one data layout, [`Layout`]: one event scheduler, one
//! [`LinkTable`] indexed by [`DirectedEdgeId`], one [`PayloadArena`]. The
//! engines differ only in where a node's protocol instance lives — one flat
//! vector, or the shard that ships it to a worker — which the core reaches
//! through [`Nodes`] (monomorphized, no `dyn`).
//!
//! # Link layout
//!
//! A delivery touches two link records (its own on the ack, and each link its
//! sends queue on), so the records are kept small enough for a table of them
//! to stay cache-resident: a [`LinkState`] is 40 bytes — the endpoints as
//! `u32`, the first waiting message's `(priority, seq, handle)` inline (the
//! key holds a parked ack while the queue is empty), three flags and a `u32`
//! slot. Only when a second message queues behind the head
//! does the link take a slot in its [`LinkTable`]'s [`SpillTable`], a pool of
//! out-of-line [`StageQueue`]s; the slot goes back when the queue drains and
//! keeps its buffers, so the per-delivery path allocates nothing once warm.
//! Pop order is the minimum `(priority, seq)` over head and spill queue —
//! exactly one unsplit queue's order, whichever side an entry landed on.
//! [`Core::send`] finds the link of `(from, to)` in a flat CSR row of
//! `(neighbor, link)` pairs built per run ([`LinkIndex`]) instead of the
//! graph's nested adjacency vectors.

use crate::arena::{EvRef, PayloadArena};
use crate::async_engine::{AsyncReport, SimError, SimLimits};
use crate::delay::DelayModel;
use crate::fault::FaultState;
use crate::metrics::RunMetrics;
use crate::protocol::{Ctx, Outgoing, Protocol};
use crate::scheduler::EventScheduler;
use crate::stage_queue::StageQueue;
use crate::trace::{DeliveryTrace, TraceState};
use crate::TICKS_PER_UNIT;
use ds_graph::{DirectedEdgeId, Graph, NodeId};

/// `LinkState::spill` of a link with no spill slot.
const NO_SPILL: u32 = u32::MAX;

/// Per-directed-edge link state, indexed flat by [`DirectedEdgeId`] in a
/// [`LinkTable`]. The queued entries are payload-arena handles, not messages.
///
/// 40 bytes: the head entry's `(priority, seq)` key (16), the endpoints, the
/// head's handle and the spill slot (4 × 4), three flags. The queue behind the
/// head lives out of line in the table's [`SpillTable`], so a table of these
/// is what a delivery walks; `tests::link_state_is_40_bytes` pins the size.
#[derive(Debug)]
pub(crate) struct LinkState {
    /// Key of the head entry while `has_head`; while `ack_parked` (the queue
    /// is then empty) the parked acknowledgment's `(tick, seq)` instead.
    head_priority: u64,
    head_seq: u64,
    /// Cached endpoints of the directed edge — the hot path reads them from the
    /// link record it touches anyway instead of chasing the graph's edge table.
    from: u32,
    to: u32,
    /// Payload handle of the head entry; meaningful while `has_head`.
    head_handle: u32,
    /// The link's slot in its table's [`SpillTable`], or `NO_SPILL`. Held
    /// exactly while the spilled queue is non-empty.
    spill: u32,
    /// Single-entry fast path: the first queued entry waits inline and only
    /// further arrivals spill, so the common case — one message waiting per
    /// link — never touches a `StageQueue` at all.
    has_head: bool,
    /// Whether a message is currently in flight (awaiting acknowledgment).
    in_flight: bool,
    /// The in-flight message was delivered and its acknowledgment is parked
    /// in the head key rather than filed as an event: nothing waited behind
    /// it ([`Core::end_delivery`]). `in_flight` stays set until the first
    /// send on the link settles the ack ([`Core::send`]).
    ack_parked: bool,
}

impl LinkState {
    fn new(from: NodeId, to: NodeId) -> Self {
        let mut link = LinkState {
            head_priority: 0,
            head_seq: 0,
            from: 0,
            to: 0,
            head_handle: 0,
            spill: NO_SPILL,
            has_head: false,
            in_flight: false,
            ack_parked: false,
        };
        link.set_endpoints(from, to);
        link
    }

    fn set_endpoints(&mut self, from: NodeId, to: NodeId) {
        self.from = u32::try_from(from.index()).expect("node ids fit in u32");
        self.to = u32::try_from(to.index()).expect("node ids fit in u32");
    }

    /// Source node of the link.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    pub(crate) fn from(&self) -> NodeId {
        NodeId(self.from as usize)
    }

    /// Destination node of the link.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    pub(crate) fn to(&self) -> NodeId {
        NodeId(self.to as usize)
    }

    /// Whether the link holds no transient state: nothing in flight, nothing
    /// queued. At quiescence every link is idle (a queued message always has
    /// an ack or drop pending to release it), which is what lets a finished
    /// run's link table be recycled into the next run ([`crate::recycle`]).
    fn is_idle(&self) -> bool {
        !self.in_flight && !self.ack_parked && !self.is_queued()
    }

    /// Whether a message waits on the link.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    fn is_queued(&self) -> bool {
        self.has_head || self.spill != NO_SPILL
    }

    /// Parks the acknowledgment of the delivered in-flight message at
    /// `(at, seq)`, in the head key of the (empty) queue.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    fn park_ack(&mut self, at: u64, seq: u64) {
        debug_assert!(self.in_flight && !self.is_queued(), "only an idle queue parks its ack");
        (self.head_priority, self.head_seq) = (at, seq);
        self.ack_parked = true;
    }

    /// Takes the parked acknowledgment's `(tick, seq)`, if there is one.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    fn take_parked_ack(&mut self) -> Option<(u64, u64)> {
        if !self.ack_parked {
            return None;
        }
        self.ack_parked = false;
        Some((self.head_priority, self.head_seq))
    }

    /// Queues `handle` under `(priority, seq)`: inline if the head is free,
    /// else in the link's spill queue (taking a slot on the first spill).
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    fn push(&mut self, spill: &mut SpillTable, priority: u64, seq: u64, handle: u32) {
        debug_assert!(!self.ack_parked, "a parked ack is settled before the head is reused");
        if !self.has_head {
            (self.head_priority, self.head_seq, self.head_handle) = (priority, seq, handle);
            self.has_head = true;
            return;
        }
        if self.spill == NO_SPILL {
            self.spill = spill.acquire();
        }
        spill.queue(self.spill).push(priority, seq, handle);
    }

    /// Pops the waiting entry with the minimum `(priority, seq)` as
    /// `(seq, handle)`. The head and the spill queue each hold their own
    /// minimum; the smaller key wins, so the order equals one unsplit queue's
    /// whichever side an entry landed on. A spill queue popped empty returns
    /// its slot.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    fn pop(&mut self, spill: &mut SpillTable) -> Option<(u64, u32)> {
        if self.spill == NO_SPILL {
            if !self.has_head {
                return None;
            }
            self.has_head = false;
            return Some((self.head_seq, self.head_handle));
        }
        let queue = spill.queue(self.spill);
        let head_first = self.has_head
            && queue.min_key().is_none_or(|key| (self.head_priority, self.head_seq) < key);
        let popped = if head_first {
            self.has_head = false;
            (self.head_seq, self.head_handle)
        } else {
            queue.pop().expect("a held spill slot is non-empty")
        };
        if queue.is_empty() {
            spill.release(self.spill);
            self.spill = NO_SPILL;
        }
        Some(popped)
    }
}

/// Out-of-line queues of the links that have more than one message waiting.
/// A link takes a slot when a second message queues behind its head and
/// returns it when the queue drains; returned slots keep their `StageQueue`
/// buffers for the next link, so once a run is warm a spill allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct SpillTable {
    queues: Vec<StageQueue<u32>>,
    /// Slots no link holds, reused last-returned first.
    free: Vec<u32>,
}

impl SpillTable {
    /// A free slot, growing the table only when every slot is held.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    fn acquire(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.queues.push(StageQueue::new());
            (self.queues.len() - 1) as u32
        })
    }

    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    fn queue(&mut self, slot: u32) -> &mut StageQueue<u32> {
        &mut self.queues[slot as usize]
    }

    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    fn release(&mut self, slot: u32) {
        self.free.push(slot);
    }

    /// Whether no link holds a slot.
    fn is_clean(&self) -> bool {
        self.free.len() == self.queues.len()
    }
}

/// The link records of one engine and the spill table their queues overflow
/// into.
#[derive(Debug, Default)]
pub(crate) struct LinkTable {
    links: Vec<LinkState>,
    spill: SpillTable,
}

impl LinkTable {
    /// Appends an idle link `from → to`; its slot is the table's length before.
    pub(crate) fn push_link(&mut self, from: NodeId, to: NodeId) {
        self.links.push(LinkState::new(from, to));
    }

    pub(crate) fn len(&self) -> usize {
        self.links.len()
    }

    /// The record in `slot` and the spill table its queue lives in.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    pub(crate) fn get(&mut self, slot: usize) -> (&mut LinkState, &mut SpillTable) {
        (&mut self.links[slot], &mut self.spill)
    }

    /// The record in `slot`, read-only.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    pub(crate) fn link(&self, slot: usize) -> &LinkState {
        &self.links[slot]
    }

    /// Reshapes the table to `graph`'s directed edges, slot = edge id. Every
    /// endpoint is rewritten; links must be idle (asserted).
    pub(crate) fn adopt(&mut self, graph: &Graph) {
        assert!(self.is_idle(), "recycled parts must hold no queued or in-flight messages");
        let m = graph.directed_edge_count();
        self.links.truncate(m);
        for (e, link) in self.links.iter_mut().enumerate() {
            let (from, to) = graph.directed_endpoints(DirectedEdgeId(e as u32));
            link.set_endpoints(from, to);
        }
        for e in self.links.len()..m {
            let (from, to) = graph.directed_endpoints(DirectedEdgeId(e as u32));
            self.push_link(from, to);
        }
    }

    /// Releases every link whose acknowledgment is still parked at the end
    /// of a run — each would have fired on an empty queue after the last
    /// event — and returns the latest such acknowledgment's tick.
    pub(crate) fn release_parked(&mut self) -> Option<u64> {
        let mut last = None;
        for link in &mut self.links {
            if let Some((at, _)) = link.take_parked_ack() {
                link.in_flight = false;
                last = last.max(Some(at));
            }
        }
        last
    }

    /// Whether every link is idle and no spill slot is held.
    pub(crate) fn is_idle(&self) -> bool {
        self.spill.is_clean() && self.links.iter().all(LinkState::is_idle)
    }
}

/// Flat `from → (neighbor, link)` lookup for [`Core::send`]: node `v`'s row is
/// `entries[offsets[v]..offsets[v + 1]]`, in the graph's adjacency order. One
/// contiguous array of 8-byte entries instead of the graph's two
/// `Vec<Vec<_>>` rows per lookup; built once per run by the core.
#[derive(Debug)]
struct LinkIndex {
    offsets: Vec<u32>,
    entries: Vec<(u32, DirectedEdgeId)>,
}

impl LinkIndex {
    fn new(graph: &Graph) -> Self {
        let mut offsets = Vec::with_capacity(graph.node_count() + 1);
        let mut entries = Vec::with_capacity(graph.directed_edge_count());
        offsets.push(0);
        for v in graph.nodes() {
            entries.extend(graph.neighbor_links(v).map(|(w, link)| (w.index() as u32, link)));
            offsets.push(entries.len() as u32);
        }
        LinkIndex { offsets, entries }
    }

    /// The link `from → to`, or `None` if they are not adjacent.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    fn get(&self, from: NodeId, to: NodeId) -> Option<DirectedEdgeId> {
        let v = from.index();
        if v + 1 >= self.offsets.len() {
            return None;
        }
        let row = &self.entries[self.offsets[v] as usize..self.offsets[v + 1] as usize];
        row.iter().find(|&&(w, _)| w as usize == to.index()).map(|&(_, link)| link)
    }
}

/// Everything that lives with node `v`, wherever the engine keeps it.
pub(crate) struct Home<'a, P> {
    /// The shard owning `v` (0 on the serial engine); recorded in traces.
    pub(crate) shard: u32,
    pub(crate) node: &'a mut P,
    pub(crate) done: &'a mut bool,
}

/// Where an engine keeps its protocol instances: the one thing the serial
/// and the sharded engine lay out differently.
pub(crate) trait Nodes {
    /// The protocol the engine runs.
    type Node: Protocol;

    /// The home of node `v`.
    fn home(&mut self, v: NodeId) -> Home<'_, Self::Node>;
}

/// The engine's data layout: the node instances, one scheduler of
/// [`EvRef`]s, one link table indexed by [`DirectedEdgeId`] and one arena
/// holding every in-flight payload behind the `u32` handles the scheduler and
/// the link queues carry.
pub(crate) struct Layout<N: Nodes, S> {
    pub(crate) nodes: N,
    pub(crate) links: LinkTable,
    pub(crate) arena: PayloadArena<<N::Node as Protocol>::Message>,
    pub(crate) sched: S,
}

/// Engine-global state of one asynchronous run plus the rules that mutate it.
pub(crate) struct Core<'g, P: Protocol> {
    graph: &'g Graph,
    /// `(from, to)` → link, for [`Core::send`].
    index: LinkIndex,
    delay: DelayModel,
    /// The tick being processed. Engines set it before firing a tick's events.
    pub(crate) now: u64,
    seq: u64,
    /// Seq of the delivery whose effects are being processed: with `now`,
    /// the point in `(tick, seq)` order a parked ack is compared against.
    cur_seq: u64,
    /// Acknowledgments filed late at the current tick, descending `seq`:
    /// the engine loop fires them between the tick's due events
    /// ([`Core::fire_late`]).
    late: Vec<(u64, EvRef)>,
    /// Acknowledgments filed as events ([`AsyncReport::acks_scheduled`]).
    acks_scheduled: u64,
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
    /// dead branch.
    faults: Option<FaultState>,
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
            index: LinkIndex::new(graph),
            delay,
            now: 0,
            seq: 0,
            cur_seq: 0,
            late: Vec::new(),
            acks_scheduled: 0,
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

    /// Whether the fault adversary blocks `from → to` over `link` at the
    /// current tick. Constant within a tick: transitions apply before it.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    pub(crate) fn blocks(&self, link: DirectedEdgeId, from: NodeId, to: NodeId) -> bool {
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

    /// Draws the seq of an event and registers it with the trace.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    fn draw_event(&mut self) -> u64 {
        let seq = self.next_seq();
        if let Some(tr) = self.trace.as_mut() {
            tr.on_scheduled(seq);
        }
        seq
    }

    /// Draws the seq of a scheduled event and files it with the scheduler.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    fn schedule<N, S>(&mut self, st: &mut Layout<N, S>, at: u64, ev: EvRef)
    where
        N: Nodes<Node = P>,
        S: EventScheduler<EvRef>,
    {
        let seq = self.draw_event();
        st.sched.schedule(at, seq, ev);
    }

    /// Queues one message `from` sent on its link, drawing its message seq.
    /// The payload moves into the arena and only its handle queues on the
    /// link. The link is injected by the next [`Core::end_delivery`] (or
    /// the start wave), after every send of the activation has queued.
    ///
    /// # Errors
    ///
    /// [`SimError::NotNeighbor`] if `out.to` is not adjacent to `from`.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    pub(crate) fn send<N, S>(
        &mut self,
        st: &mut Layout<N, S>,
        from: NodeId,
        out: Outgoing<P::Message>,
    ) -> Result<(), SimError>
    where
        N: Nodes<Node = P>,
        S: EventScheduler<EvRef>,
    {
        let Some(link) = self.index.get(from, out.to) else {
            return Err(SimError::NotNeighbor { from, to: out.to });
        };
        self.metrics.record_message(out.class);
        let seq = self.next_seq();
        let handle = st.arena.alloc(out.msg);
        let (state, spill) = st.links.get(link.index());
        let parked = state.take_parked_ack();
        state.push(spill, out.priority, seq, handle);
        self.touched.push(link);
        if let Some((at, ack_seq)) = parked {
            self.settle_ack(st, link, at, ack_seq);
        }
        Ok(())
    }

    /// Settles the acknowledgment parked on `link` at `(at, ack_seq)` now
    /// that a message waits behind it. If the ack precedes the delivery being
    /// processed in `(tick, seq)` order, it has fired already — on an empty
    /// queue, where it only freed the link — so the link is free. Otherwise
    /// it is filed at its original `(tick, seq)`: a later tick through the
    /// scheduler, this tick into `late`. Either way no seq is drawn, so the
    /// schedule is the one an eagerly filed ack produces (DESIGN.md §10.2).
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    fn settle_ack<N, S>(
        &mut self,
        st: &mut Layout<N, S>,
        link: DirectedEdgeId,
        at: u64,
        ack_seq: u64,
    ) where
        N: Nodes<Node = P>,
        S: EventScheduler<EvRef>,
    {
        if (at, ack_seq) < (self.now, self.cur_seq) {
            st.links.get(link.index()).0.in_flight = false;
            if let Some(tr) = self.trace.as_mut() {
                tr.on_passed(ack_seq);
            }
            return;
        }
        self.acks_scheduled += 1;
        if at == self.now {
            let pos = self.late.partition_point(|&(s, _)| s > ack_seq);
            self.late.insert(pos, (ack_seq, EvRef::ack(link.0)));
        } else {
            st.sched.schedule_late(at, ack_seq, EvRef::ack(link.0));
        }
    }

    /// If `link` is idle and has a queued message, pops the lowest-stage one
    /// and schedules its delivery. On a fault-blocked link everything queued
    /// is lost instead: the drain draws no sequence numbers — so the schedule
    /// of live traffic is untouched by how many messages die here — but every
    /// drained handle is freed.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    fn try_inject<N, S>(&mut self, st: &mut Layout<N, S>, link: DirectedEdgeId)
    where
        N: Nodes<Node = P>,
        S: EventScheduler<EvRef>,
    {
        let (state, spill) = st.links.get(link.index());
        if state.in_flight {
            return;
        }
        let (from, to) = (state.from(), state.to());
        if self.blocks(link, from, to) {
            while let Some((_, handle)) = state.pop(spill) {
                st.arena.take(handle);
                self.dropped += 1;
            }
            return;
        }
        let Some((msg_seq, handle)) = state.pop(spill) else { return };
        state.in_flight = true;
        let at = self.now + self.delay.delay_ticks_at(from, to, msg_seq, self.now);
        self.schedule(st, at, EvRef::deliver(link.0, handle));
    }

    /// Injects every link the current activation's sends touched, in order.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    fn flush<N, S>(&mut self, st: &mut Layout<N, S>)
    where
        N: Nodes<Node = P>,
        S: EventScheduler<EvRef>,
    {
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
    fn release<N, S>(&mut self, st: &mut Layout<N, S>, link: DirectedEdgeId)
    where
        N: Nodes<Node = P>,
        S: EventScheduler<EvRef>,
    {
        st.links.get(link.index()).0.in_flight = false;
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
        self.cur_seq = seq;
        self.deliveries += 1;
        if self.deliveries > self.max_events {
            return Err(SimError::EventLimitExceeded { limit: self.max_events });
        }
        self.metrics.events += 1;
        Ok(())
    }

    /// Second half of a delivery's effects: inject the links its sends
    /// touched, then acknowledge back to the sender. The ack draws two seqs —
    /// one keys its delay, one is the ack event's own — but becomes an event
    /// only if a message already waits behind it; otherwise it is parked on
    /// the link until a send settles it ([`Core::send`]).
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    pub(crate) fn end_delivery<N, S>(
        &mut self,
        st: &mut Layout<N, S>,
        link: DirectedEdgeId,
        from: NodeId,
        to: NodeId,
    ) where
        N: Nodes<Node = P>,
        S: EventScheduler<EvRef>,
    {
        self.flush(st);
        self.metrics.acks += 1;
        let ack_seq = self.next_seq();
        let at = self.now + self.delay.delay_ticks_at(to, from, ack_seq, self.now);
        let seq = self.draw_event();
        let (state, _) = st.links.get(link.index());
        if state.is_queued() {
            self.acks_scheduled += 1;
            st.sched.schedule(at, seq, EvRef::ack(link.0));
        } else {
            state.park_ack(at, seq);
        }
    }

    /// Fires the acknowledgments filed late at the current tick whose seq is
    /// below `before`, in seq order. The engine loop calls it before each due
    /// event and with `u64::MAX` after the tick, which merges them into the
    /// tick's `seq` order.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    pub(crate) fn fire_late<N, S>(&mut self, st: &mut Layout<N, S>, before: u64)
    where
        N: Nodes<Node = P>,
        S: EventScheduler<EvRef>,
    {
        while let Some(&(seq, ev)) = self.late.last().filter(|&&(seq, _)| seq < before) {
            self.late.pop();
            self.fire_ack(st, seq, DirectedEdgeId(ev.link));
        }
    }

    /// Fires the acknowledgment `seq` of `link`: the link is released.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    #[inline]
    fn fire_ack<N, S>(&mut self, st: &mut Layout<N, S>, seq: u64, link: DirectedEdgeId)
    where
        N: Nodes<Node = P>,
        S: EventScheduler<EvRef>,
    {
        if let Some(tr) = self.trace.as_mut() {
            tr.on_ack(seq);
        }
        self.release(st, link);
    }

    /// Closes the event loop: every link whose ack is still parked is
    /// released — that ack would have fired after the last event, on an empty
    /// queue — and the clock and the fault plan advance to the latest such
    /// ack's tick, where the eager run's last event would have been.
    pub(crate) fn release_parked<N, S>(&mut self, st: &mut Layout<N, S>)
    where
        N: Nodes<Node = P>,
    {
        if let Some(last) = st.links.release_parked() {
            self.now = self.now.max(last);
            self.advance_faults(self.now);
        }
    }

    /// Fires one event in full, at `self.now`: an ack releases its link; a
    /// delivery is dropped (payload freed, link released) if the fault
    /// adversary blocks it right now, and otherwise activates its
    /// destination and replays the effects.
    ///
    /// # Errors
    ///
    /// As [`Core::begin_delivery`] and [`Core::send`]. The offending
    /// delivery's activation has run; no later event's has.
    // ds-lint: hot-path (per-delivery: no owned-container allocation tokens)
    pub(crate) fn fire<N, S>(
        &mut self,
        st: &mut Layout<N, S>,
        seq: u64,
        ev: EvRef,
    ) -> Result<(), SimError>
    where
        N: Nodes<Node = P>,
        S: EventScheduler<EvRef>,
    {
        let link = DirectedEdgeId(ev.link);
        if ev.is_ack() {
            self.fire_ack(st, seq, link);
            return Ok(());
        }
        let state = st.links.link(link.index());
        let (from, to) = (state.from(), state.to());
        let msg = st.arena.take(ev.payload);
        if self.blocks(link, from, to) {
            // The adversary ate the delivery: no activation, no ack, no trace
            // record, no sequence draws — only the payload and the link are
            // freed.
            self.dropped += 1;
            self.release(st, link);
            return Ok(());
        }
        let mut ctx = Ctx::with_buffer(to, std::mem::take(&mut self.outbox));
        let home = st.nodes.home(to);
        home.node.on_message(from, msg, &mut ctx);
        self.update_done(home.done, home.node);
        self.begin_delivery(seq, home.shard, from, to)?;
        for out in ctx.drain_outbox() {
            self.send(st, to, out)?;
        }
        self.outbox = ctx.into_buffer();
        self.end_delivery(st, link, from, to);
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
    pub(crate) fn start<N, S>(&mut self, st: &mut Layout<N, S>) -> Result<(), SimError>
    where
        N: Nodes<Node = P>,
        S: EventScheduler<EvRef>,
    {
        self.advance_faults(0);
        for v in self.graph.nodes() {
            let mut ctx = Ctx::with_buffer(v, std::mem::take(&mut self.outbox));
            let home = st.nodes.home(v);
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
    /// engine fills them in. `batched_ticks` stays 0 for every engine. Call
    /// [`Core::release_parked`] first: `now` is then the quiescence tick.
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
            acks_scheduled: self.acks_scheduled,
            batched_ticks: 0,
            pool_dispatches: 0,
            dropped_events: self.dropped,
            fault_transitions: self.faults.as_ref().map_or(0, FaultState::transitions),
        };
        (report, self.trace.map(TraceState::finish))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn link_state_is_40_bytes() {
        assert!(std::mem::size_of::<LinkState>() <= 40, "{}", std::mem::size_of::<LinkState>());
    }

    /// One link of a one-link table, mirrored into a binary heap of
    /// `Reverse((priority, seq, handle))`: every pop must come out of both
    /// identically.
    struct Probe {
        table: LinkTable,
        reference: BinaryHeap<Reverse<(u64, u64, u32)>>,
        seq: u64,
    }

    impl Probe {
        fn new() -> Self {
            let mut table = LinkTable::default();
            table.push_link(NodeId(0), NodeId(1));
            Probe { table, reference: BinaryHeap::new(), seq: 0 }
        }

        fn push(&mut self, priority: u64) {
            let handle = 100 + self.seq as u32;
            let (link, spill) = self.table.get(0);
            link.push(spill, priority, self.seq, handle);
            self.reference.push(Reverse((priority, self.seq, handle)));
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(u64, u32)> {
            let (link, spill) = self.table.get(0);
            let got = link.pop(spill);
            assert_eq!(got, self.reference.pop().map(|Reverse((_, seq, handle))| (seq, handle)));
            got
        }

        fn spilled(&self) -> bool {
            self.table.link(0).spill != NO_SPILL
        }
    }

    #[test]
    fn a_link_pops_in_stage_queue_order_through_every_state() {
        let mut p = Probe::new();
        // Head only: the entry waits inline, no slot is taken.
        p.push(5);
        assert!(p.table.link(0).has_head && !p.spilled());
        assert_eq!(p.pop(), Some((0, 100)));
        assert!(p.table.is_idle());

        // Spilled: a second entry takes a slot; popping the head leaves the
        // head empty with the slot still held, and the next arrival lands in
        // the head again while older entries wait in the slot.
        p.push(5);
        p.push(5);
        p.push(7);
        assert!(p.spilled());
        assert_eq!(p.pop(), Some((1, 101)));
        assert!(!p.table.link(0).has_head && p.spilled());
        p.push(6);
        assert!(p.table.link(0).has_head);

        // A lower priority behind a spilled queue overtakes the head and
        // every spilled entry.
        p.push(3);
        assert_eq!(p.pop(), Some((5, 105)));
        assert_eq!(p.pop(), Some((2, 102)));

        // Drained by a fault block: the engine pops until empty (the order
        // still matches), and the emptied queue returns its slot.
        p.push(4);
        while p.pop().is_some() {}
        assert!(p.reference.is_empty() && !p.spilled());
        assert!(p.table.is_idle());
    }

    #[test]
    fn a_returned_spill_slot_serves_the_next_link_without_growing() {
        let mut table = LinkTable::default();
        table.push_link(NodeId(0), NodeId(1));
        table.push_link(NodeId(1), NodeId(0));
        for (slot, seq) in [(0usize, 0u64), (1, 10)] {
            let (link, spill) = table.get(slot);
            link.push(spill, 1, seq, 0);
            link.push(spill, 1, seq + 1, 1);
            link.push(spill, 1, seq + 2, 2);
            while link.pop(spill).is_some() {}
        }
        assert_eq!(table.spill.queues.len(), 1);
        assert!(table.is_idle());
    }

    /// Sends tagged messages by script: `start` at time 0, and on receiving
    /// a tag `on`, every `(on, to, tag)` of `react`.
    #[derive(Debug, Default)]
    struct Script {
        start: Vec<(usize, u8)>,
        react: Vec<(u8, usize, u8)>,
    }

    impl Protocol for Script {
        type Message = u8;

        fn on_start(&mut self, ctx: &mut Ctx<u8>) {
            for &(to, tag) in &self.start {
                ctx.send(NodeId(to), tag);
            }
        }

        fn on_message(&mut self, _from: NodeId, msg: u8, ctx: &mut Ctx<u8>) {
            for &(on, to, tag) in &self.react {
                if on == msg {
                    ctx.send(NodeId(to), tag);
                }
            }
        }

        fn is_done(&self) -> bool {
            true
        }
    }

    /// A traced wheel run of one `Script` per node; returns the report and
    /// the deliveries as `(tick, src, dst)`, plus the trace.
    fn scripted(
        graph: &Graph,
        delay: DelayModel,
        faults: Option<&crate::FaultPlan>,
        scripts: impl Fn(usize) -> Script,
    ) -> (AsyncReport<Script>, Vec<(u64, usize, usize)>, DeliveryTrace) {
        let (report, trace) = crate::run_async_faulted_traced(
            graph,
            delay,
            faults,
            |v| scripts(v.index()),
            SimLimits::default(),
            crate::SchedulerKind::TimingWheel,
        )
        .expect("scripted run");
        let hops = trace.records.iter().map(|r| (r.tick, r.src.index(), r.dst.index())).collect();
        (report, hops, trace)
    }

    #[test]
    fn a_send_after_its_links_ack_passed_injects_at_once() {
        // Path 0-1-2, links at node 0 slow (τ), 1-2 fast (1 tick). A's ack
        // on 1→2 is due at tick 2 and parks; C is sent on 1→2 at tick 2000,
        // long after, and injects at once: no ack is ever an event. The last
        // eager event would be Y's ack at tick 3000, so the run quiesces
        // there and applies the link flip at 2999, not the one at 3001.
        let graph = Graph::path(3);
        let plan = crate::FaultPlan::new().link_down(2999, NodeId(1), NodeId(2)).link_up(
            3001,
            NodeId(1),
            NodeId(2),
        );
        let script = |v| match v {
            0 => Script { react: vec![(b'X', 1, b'Y')], ..Script::default() },
            1 => Script { start: vec![(2, b'A'), (0, b'X')], react: vec![(b'Y', 2, b'C')] },
            _ => Script::default(),
        };
        let (report, hops, _) = scripted(&graph, DelayModel::slow_cut(1), Some(&plan), script);
        assert_eq!(hops, vec![(1, 1, 2), (1000, 1, 0), (2000, 0, 1), (2001, 1, 2)]);
        assert_eq!((report.metrics.acks, report.acks_scheduled), (4, 0));
        assert_eq!(report.metrics.time_to_quiescence, 3.0);
        assert_eq!(report.fault_transitions, 1);
        // Every parked ack is released at the end: the slab is clean.
        let mut slab = crate::EngineSlab::new();
        let recycled = crate::run_async_recycled(
            &graph,
            DelayModel::slow_cut(1),
            Some(&plan),
            |v| script(v.index()),
            SimLimits::default(),
            &mut slab,
        )
        .expect("recycled run");
        assert_eq!(recycled.metrics, report.metrics);
        assert!(slab.is_clean());
    }

    #[test]
    fn a_send_before_its_links_ack_files_the_ack_at_a_later_tick() {
        // Path 0-1-2-3, links at nodes 0 and 1 slow, 2-3 fast. A reaches
        // node 0 at 1000 and its ack on 1→0, due at 2000, parks; Q wakes
        // node 1 at 1001, whose B on 1→0 files that ack at tick 2000. B
        // leaves when it fires and arrives at 3000; its own ack (4000) is the
        // last eager event.
        let graph = Graph::path(4);
        let script = |v| match v {
            1 => Script { start: vec![(0, b'A')], react: vec![(b'Q', 0, b'B')] },
            2 => Script { react: vec![(b'P', 1, b'Q')], ..Script::default() },
            3 => Script { start: vec![(2, b'P')], ..Script::default() },
            _ => Script::default(),
        };
        let (report, hops, trace) = scripted(&graph, DelayModel::slow_cut(2), None, script);
        assert_eq!(hops, vec![(1, 3, 2), (1000, 1, 0), (1001, 2, 1), (3000, 1, 0)]);
        assert_eq!((report.metrics.acks, report.acks_scheduled), (4, 1));
        assert_eq!(report.metrics.time_to_quiescence, 4.0);
        // B was injected by the filed ack, which inherits A's delivery.
        assert_eq!(trace.records[3].cause, Some(trace.records[1].seq));
    }

    #[test]
    fn a_send_before_its_links_ack_files_the_ack_into_the_current_tick() {
        // Path 0-1 under uniform delays. A reaches node 1 at 1000, whose
        // reply R reaches node 0 at 2000 — the tick A's parked ack is due,
        // with R's seq drawn first. B, sent on 0→1 by R's activation, files
        // that ack into the rest of tick 2000; it fires after R, and B
        // leaves at 2000, arriving at 3000.
        let graph = Graph::path(2);
        let script = |v| match v {
            0 => Script { start: vec![(1, b'A')], react: vec![(b'R', 1, b'B')] },
            _ => Script { react: vec![(b'A', 0, b'R')], ..Script::default() },
        };
        let (report, hops, trace) = scripted(&graph, DelayModel::uniform(), None, script);
        assert_eq!(hops, vec![(1000, 0, 1), (2000, 1, 0), (3000, 0, 1)]);
        assert_eq!((report.metrics.acks, report.acks_scheduled), (3, 1));
        assert_eq!(report.max_batch, 1, "a late ack is not part of the tick's due batch");
        // B's cause is A, the delivery whose ack unblocked it — not R, the
        // delivery whose activation sent it.
        assert_eq!(trace.records[2].cause, Some(trace.records[0].seq));
        assert_eq!(report.metrics.time_to_quiescence, 4.0);
    }
}
