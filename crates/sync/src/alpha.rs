//! Awerbuch's α synchronizer (Appendix A): the trivial pulse-generation scheme.
//!
//! Every node generates every pulse `1, 2, 3, …`. A node is *safe* for pulse `p` once
//! all its pulse-`p` algorithm messages have been acknowledged; it then tells all its
//! neighbors, and it generates pulse `p + 1` once it is safe for `p` and has heard
//! that every neighbor is safe for `p`. The time overhead is `O(1)` per pulse but the
//! message overhead is `Θ(m)` per pulse — the baseline the paper's synchronizer
//! improves on.
//!
//! # The two-pulse window
//!
//! A node `v` whose current pulse is `c` only ever receives messages of pulse `c` or
//! `c + 1`, so its state is two slots indexed by pulse parity, not one per pulse:
//!
//! * *at most `c + 1`*: a neighbor `u` sends `Alg`/`Safe` of pulse `p` while its own
//!   current pulse is `p`, and `u` generated `p` only after hearing `v` was safe for
//!   `p − 1`, which `v` announced at its pulse `p − 1`; so `c ≥ p − 1`.
//! * *at least `c`*: `v` generates `c + 1` only after every neighbor is safe for `c`,
//!   i.e. after every pulse-`c` message sent to `v` was acknowledged — hence already
//!   delivered — and after `v` heard every neighbor's `Safe` for `c`. An `Ack` of
//!   pulse `p` answers `v`'s own pulse-`p` message, and `v` leaves `p` only once all
//!   of those are acknowledged; so `p = c` for acks.
//!
//! Lost deliveries (crashes, link churn) only withhold messages, so the argument holds
//! under any fault plan. Slot `p mod 2` is reset when `c` moves past `p`, which makes
//! it pulse `p + 2`'s — by then no message of pulse `p` can still arrive. Every access
//! goes through `AlphaSynchronizer::slot`, which asserts the window at run time.

use ds_graph::{Graph, NodeId};
use ds_netsim::event_driven::{canonical_batch, EventDriven, PulseCtx};
use ds_netsim::metrics::MessageClass;
use ds_netsim::protocol::{Ctx, Protocol};

/// Messages of the α synchronizer.
#[derive(Clone, Debug)]
pub enum AlphaMsg<M> {
    /// An algorithm message of pulse `pulse`.
    Alg { pulse: u64, payload: M },
    /// Acknowledgment of an algorithm message of pulse `pulse`.
    Ack { pulse: u64 },
    /// The sender is safe for pulse `pulse`.
    Safe { pulse: u64 },
}

/// One pulse's α bookkeeping at one node.
#[derive(Debug)]
struct Slot<M> {
    /// Outstanding acknowledgments of this node's messages of the pulse.
    unacked: u32,
    /// Neighbors' safety notifications for the pulse.
    neighbor_safe: u32,
    /// Whether this node has announced its own safety for the pulse.
    announced: bool,
    /// Whether this node sent any algorithm messages at the pulse.
    sent_at: bool,
    /// Algorithm messages received that were sent at the pulse.
    received: Vec<(NodeId, M)>,
}

impl<M> Default for Slot<M> {
    fn default() -> Self {
        Slot {
            unacked: 0,
            neighbor_safe: 0,
            announced: false,
            sent_at: false,
            received: Vec::new(),
        }
    }
}

/// Per-node α synchronizer wrapping an event-driven algorithm.
///
/// The per-pulse bookkeeping is a two-slot window indexed by pulse parity (module
/// docs), so it does not grow with `max_pulse`, and the neighbor list is borrowed
/// from the graph — the per-message path does no map lookups and no allocation.
#[derive(Debug)]
pub struct AlphaSynchronizer<'g, A: EventDriven> {
    me: NodeId,
    neighbors: &'g [NodeId],
    alg: A,
    max_pulse: u64,
    /// The pulse whose messages this node has already sent.
    current: u64,
    /// Pulses `current` and `current + 1`, at index `pulse % 2`.
    slots: [Slot<A::Msg>; 2],
}

impl<'g, A: EventDriven> AlphaSynchronizer<'g, A> {
    /// Creates the α synchronizer instance for node `me`, simulating `max_pulse`
    /// pulses of `alg`.
    pub fn new(graph: &'g Graph, me: NodeId, alg: A, max_pulse: u64) -> Self {
        AlphaSynchronizer {
            me,
            neighbors: graph.neighbors(me),
            alg,
            max_pulse,
            current: 0,
            slots: [Slot::default(), Slot::default()],
        }
    }

    /// The wrapped algorithm (for extracting outputs).
    pub fn algorithm(&self) -> &A {
        &self.alg
    }

    /// The state of pulse `pulse`.
    ///
    /// # Panics
    ///
    /// Panics if `pulse` is not `current` or `current + 1` (the window argument in
    /// the module docs).
    // ds-lint: hot-path
    fn slot(&mut self, pulse: u64) -> &mut Slot<A::Msg> {
        let c = self.current;
        assert!(
            pulse.wrapping_sub(c) <= 1,
            "α: pulse {pulse} is outside the two-pulse window {{{c}, {}}}",
            c + 1
        );
        &mut self.slots[(pulse & 1) as usize]
    }

    fn dispatch(
        &mut self,
        pulse: u64,
        outbox: Vec<(NodeId, A::Msg)>,
        ctx: &mut Ctx<AlphaMsg<A::Msg>>,
    ) {
        let slot = self.slot(pulse);
        slot.sent_at = !outbox.is_empty();
        slot.unacked += outbox.len() as u32;
        for (to, payload) in outbox {
            ctx.send_with(to, AlphaMsg::Alg { pulse, payload }, pulse, MessageClass::Algorithm);
        }
        self.try_announce(pulse, ctx);
    }

    fn try_announce(&mut self, pulse: u64, ctx: &mut Ctx<AlphaMsg<A::Msg>>) {
        let slot = self.slot(pulse);
        if slot.announced || slot.unacked > 0 {
            return;
        }
        slot.announced = true;
        for &u in self.neighbors {
            ctx.send_with(u, AlphaMsg::Safe { pulse }, pulse, MessageClass::Control);
        }
        self.try_advance(ctx);
    }

    fn try_advance(&mut self, ctx: &mut Ctx<AlphaMsg<A::Msg>>) {
        let degree = self.neighbors.len();
        loop {
            let p = self.current;
            if p >= self.max_pulse {
                return;
            }
            let slot = self.slot(p);
            if !(slot.announced && slot.neighbor_safe as usize == degree) {
                return;
            }
            // Generate pulse p + 1; slot p becomes pulse p + 2's.
            let mut batch = std::mem::take(&mut slot.received);
            let triggered = !batch.is_empty() || slot.sent_at;
            *slot = Slot::default();
            self.current = p + 1;
            let outbox = if triggered {
                canonical_batch(&mut batch);
                let mut pctx = PulseCtx::new(self.me);
                self.alg.on_pulse(&batch, &mut pctx);
                pctx.take_outbox()
            } else {
                Vec::new()
            };
            // Keep the inbox's buffer for pulse p + 2.
            batch.clear();
            self.slot(p + 2).received = batch;
            self.dispatch(p + 1, outbox, ctx);
        }
    }
}

impl<A: EventDriven> Protocol for AlphaSynchronizer<'_, A> {
    type Message = AlphaMsg<A::Msg>;

    fn on_start(&mut self, ctx: &mut Ctx<Self::Message>) {
        let mut pctx = PulseCtx::new(self.me);
        self.alg.on_init(&mut pctx);
        let outbox = pctx.take_outbox();
        self.dispatch(0, outbox, ctx);
    }

    // ds-lint: hot-path
    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut Ctx<Self::Message>) {
        match msg {
            AlphaMsg::Alg { pulse, payload } => {
                self.slot(pulse).received.push((from, payload));
                ctx.send_with(from, AlphaMsg::Ack { pulse }, pulse, MessageClass::Control);
            }
            AlphaMsg::Ack { pulse } => {
                let c = &mut self.slot(pulse).unacked;
                *c = c.saturating_sub(1);
                self.try_announce(pulse, ctx);
            }
            AlphaMsg::Safe { pulse } => {
                self.slot(pulse).neighbor_safe += 1;
                self.try_advance(ctx);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.alg.output().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sends one message to node 1 at every pulse and never outputs.
    struct Chatter;

    impl EventDriven for Chatter {
        type Msg = u64;
        type Output = ();

        fn on_init(&mut self, ctx: &mut PulseCtx<u64>) {
            ctx.send(NodeId(1), 0);
        }

        fn on_pulse(&mut self, received: &[(NodeId, u64)], ctx: &mut PulseCtx<u64>) {
            ctx.send(NodeId(1), received.first().map_or(0, |(_, k)| k + 1));
        }

        fn output(&self) -> Option<()> {
            None
        }
    }

    fn node_zero_of_a_path(graph: &Graph, max_pulse: u64) -> AlphaSynchronizer<'_, Chatter> {
        AlphaSynchronizer::new(graph, NodeId(0), Chatter, max_pulse)
    }

    /// Plays node 1 of `path(2)` against node 0 for `pulses` pulses, delivering
    /// each pulse-`p + 1` message before the pulse-`p` `Safe` that lets node 0
    /// leave `p`, so the window's upper slot is used every pulse. Returns node 0's
    /// algorithm messages as `(pulse, payload)`.
    fn drive(sync: &mut AlphaSynchronizer<'_, Chatter>, pulses: u64) -> Vec<(u64, u64)> {
        let peer = NodeId(1);
        let mut ctx = Ctx::new(NodeId(0));
        sync.on_start(&mut ctx);
        sync.on_message(peer, AlphaMsg::Alg { pulse: 0, payload: 0 }, &mut ctx);
        for p in 0..pulses {
            sync.on_message(peer, AlphaMsg::Ack { pulse: p }, &mut ctx);
            sync.on_message(peer, AlphaMsg::Alg { pulse: p + 1, payload: p + 1 }, &mut ctx);
            sync.on_message(peer, AlphaMsg::Safe { pulse: p }, &mut ctx);
            assert_eq!(sync.current, p + 1);
        }
        ctx.drain_outbox()
            .filter_map(|o| match o.msg {
                AlphaMsg::Alg { pulse, payload } => Some((pulse, payload)),
                _ => None,
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "outside the two-pulse window")]
    fn a_message_two_pulses_ahead_breaks_the_window() {
        let graph = Graph::path(2);
        let mut sync = node_zero_of_a_path(&graph, 16);
        let mut ctx = Ctx::new(NodeId(0));
        sync.on_start(&mut ctx);
        sync.on_message(NodeId(1), AlphaMsg::Alg { pulse: 2, payload: 0 }, &mut ctx);
    }

    #[test]
    fn per_node_state_is_pinned() {
        // `me`, the neighbor slice, `max_pulse` and `current` (40 bytes) and two
        // 40-byte slots; nothing grows with `max_pulse`.
        assert_eq!(std::mem::size_of::<AlphaSynchronizer<'static, Chatter>>(), 120);
    }

    #[test]
    fn a_huge_pulse_bound_allocates_nothing_in_proportion() {
        let graph = Graph::path(2);
        let mut small = node_zero_of_a_path(&graph, 16);
        let mut huge = node_zero_of_a_path(&graph, 1 << 40);
        let expected: Vec<_> = (0..=12).map(|p| (p, p)).collect();
        assert_eq!(drive(&mut small, 12), expected);
        assert_eq!(drive(&mut huge, 12), expected);
        // The only heap the synchronizer owns is the two inboxes' buffers.
        let inboxes =
            |s: &AlphaSynchronizer<'_, Chatter>| s.slots.each_ref().map(|s| s.received.capacity());
        assert_eq!(inboxes(&small), inboxes(&huge));
        assert!(inboxes(&huge).iter().all(|&c| c <= 4));
    }
}
