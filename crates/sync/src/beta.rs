//! Awerbuch's β synchronizer (Appendix A): per-pulse convergecast and broadcast on a
//! global spanning tree.
//!
//! After sending its pulse-`p` messages and collecting their acknowledgments, each
//! node reports readiness up a (precomputed) rooted BFS spanning tree; once the whole
//! tree is ready the root broadcasts the next pulse. The message overhead per pulse is
//! `Θ(n)` and the time overhead per pulse is `Θ(D)` — the other classical baseline.
//!
//! The spanning tree is provided as initialization data (computing it is the
//! β synchronizer's initialization phase, which Appendix A accounts separately).
//!
//! # The two-pulse window
//!
//! A node `v` whose current pulse is `c` only ever receives algorithm messages of
//! pulse `c` or `c + 1`, and control messages of pulse `c` alone:
//!
//! * a node sends its pulse-`p` messages at its pulse `p`, which it generates only
//!   after the broadcast for `p − 1` — sent once every node, `v` included, reported
//!   ready for `p − 1` at its pulse `p − 1`; so `c ≥ p − 1`;
//! * `v` generates `c + 1` only on the broadcast for `c`, sent once the whole tree is
//!   ready for `c`: every pulse-`c` message was acknowledged, hence delivered, and
//!   every `Ready` of pulse `c` was received; so `c ≤ p`;
//! * `Ack`, `Ready` and `NextPulse` of pulse `p` each reach a node that cannot leave
//!   `p` before receiving it — its own message awaits the `Ack`, its report awaits
//!   its children's `Ready`, and its advance awaits the `NextPulse` — and that
//!   already reached `p`, so `p = c` exactly.
//!
//! Lost deliveries (crashes, link churn) only withhold messages, so the argument holds
//! under any fault plan. The inboxes are therefore two slots indexed by pulse parity,
//! slot `p mod 2` is emptied when `c` moves past `p` (making it pulse `p + 2`'s), and
//! every access goes through `BetaSynchronizer::inbox`, which asserts the window at
//! run time; the control handlers assert `p = c`.

use ds_graph::{metrics, Graph, NodeId};
use ds_netsim::event_driven::{canonical_batch, EventDriven, PulseCtx};
use ds_netsim::metrics::MessageClass;
use ds_netsim::protocol::{Ctx, Protocol};
use std::sync::Arc;

/// The shared spanning-tree structure used by the β synchronizer.
#[derive(Clone, Debug)]
pub struct SpanningTree {
    /// The root of the tree.
    pub root: NodeId,
    /// Parent of each node (`None` for the root).
    pub parent: Vec<Option<NodeId>>,
    /// Children of each node.
    pub children: Vec<Vec<NodeId>>,
}

impl SpanningTree {
    /// Builds a BFS spanning tree of `graph` rooted at `root`.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected.
    pub fn bfs(graph: &Graph, root: NodeId) -> Arc<Self> {
        let parent = metrics::bfs_tree(graph, root);
        assert!(
            graph.nodes().all(|v| v == root || parent[v.index()].is_some()),
            "β synchronizer requires a connected graph"
        );
        let mut children = vec![Vec::new(); graph.node_count()];
        for v in graph.nodes() {
            if let Some(p) = parent[v.index()] {
                children[p.index()].push(v);
            }
        }
        Arc::new(SpanningTree { root, parent, children })
    }
}

/// Messages of the β synchronizer.
#[derive(Clone, Debug)]
pub enum BetaMsg<M> {
    /// An algorithm message of pulse `pulse`.
    Alg { pulse: u64, payload: M },
    /// Acknowledgment of an algorithm message.
    Ack { pulse: u64 },
    /// Convergecast: the sender's subtree is safe for pulse `pulse`.
    Ready { pulse: u64 },
    /// Broadcast: the whole network is safe for `pulse`; generate pulse `pulse + 1`.
    NextPulse { pulse: u64 },
}

/// Per-node β synchronizer wrapping an event-driven algorithm. The per-pulse inboxes
/// are a two-slot window indexed by pulse parity (module docs), so no state grows
/// with `max_pulse`.
#[derive(Debug)]
pub struct BetaSynchronizer<A: EventDriven> {
    me: NodeId,
    tree: Arc<SpanningTree>,
    alg: A,
    max_pulse: u64,
    current: u64,
    unacked: usize,
    children_ready: usize,
    /// Algorithm messages of pulses `current` and `current + 1`, at `pulse % 2`.
    received: [Vec<(NodeId, A::Msg)>; 2],
    sent_at_current: bool,
    reported: bool,
}

impl<A: EventDriven> BetaSynchronizer<A> {
    /// Creates the β synchronizer instance for node `me`.
    pub fn new(tree: Arc<SpanningTree>, me: NodeId, alg: A, max_pulse: u64) -> Self {
        BetaSynchronizer {
            me,
            tree,
            alg,
            max_pulse,
            current: 0,
            unacked: 0,
            children_ready: 0,
            received: [Vec::new(), Vec::new()],
            sent_at_current: false,
            reported: false,
        }
    }

    /// The wrapped algorithm (for extracting outputs).
    pub fn algorithm(&self) -> &A {
        &self.alg
    }

    /// The inbox of pulse `pulse`.
    ///
    /// # Panics
    ///
    /// Panics if `pulse` is not `current` or `current + 1` (the window argument in
    /// the module docs).
    // ds-lint: hot-path
    fn inbox(&mut self, pulse: u64) -> &mut Vec<(NodeId, A::Msg)> {
        let c = self.current;
        assert!(
            pulse.wrapping_sub(c) <= 1,
            "β: pulse {pulse} is outside the two-pulse window {{{c}, {}}}",
            c + 1
        );
        &mut self.received[(pulse & 1) as usize]
    }

    /// Checks that a control message of pulse `pulse` arrived at pulse `current`.
    fn assert_current(&self, kind: &str, pulse: u64) {
        assert!(
            pulse == self.current,
            "β: {kind} of pulse {pulse} arrived at pulse {}",
            self.current
        );
    }

    fn dispatch(
        &mut self,
        pulse: u64,
        outbox: Vec<(NodeId, A::Msg)>,
        ctx: &mut Ctx<BetaMsg<A::Msg>>,
    ) {
        self.sent_at_current = !outbox.is_empty();
        self.unacked = outbox.len();
        self.children_ready = 0;
        self.reported = false;
        for (to, payload) in outbox {
            ctx.send_with(to, BetaMsg::Alg { pulse, payload }, pulse, MessageClass::Algorithm);
        }
        self.try_report(ctx);
    }

    fn try_report(&mut self, ctx: &mut Ctx<BetaMsg<A::Msg>>) {
        if self.reported || self.unacked > 0 {
            return;
        }
        if self.children_ready < self.tree.children[self.me.index()].len() {
            return;
        }
        self.reported = true;
        match self.tree.parent[self.me.index()] {
            Some(parent) => {
                ctx.send_with(
                    parent,
                    BetaMsg::Ready { pulse: self.current },
                    self.current,
                    MessageClass::Control,
                );
            }
            None => self.broadcast_next(ctx),
        }
    }

    fn broadcast_next(&mut self, ctx: &mut Ctx<BetaMsg<A::Msg>>) {
        let pulse = self.current;
        for &c in &self.tree.children[self.me.index()] {
            ctx.send_with(c, BetaMsg::NextPulse { pulse }, pulse, MessageClass::Control);
        }
        self.advance(ctx);
    }

    fn advance(&mut self, ctx: &mut Ctx<BetaMsg<A::Msg>>) {
        let p = self.current;
        if p >= self.max_pulse {
            return;
        }
        let mut batch = std::mem::take(self.inbox(p));
        self.current = p + 1;
        let triggered = !batch.is_empty() || self.sent_at_current;
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
        *self.inbox(p + 2) = batch;
        self.dispatch(p + 1, outbox, ctx);
    }
}

impl<A: EventDriven> Protocol for BetaSynchronizer<A> {
    type Message = BetaMsg<A::Msg>;

    fn on_start(&mut self, ctx: &mut Ctx<Self::Message>) {
        let mut pctx = PulseCtx::new(self.me);
        self.alg.on_init(&mut pctx);
        let outbox = pctx.take_outbox();
        self.dispatch(0, outbox, ctx);
    }

    // ds-lint: hot-path
    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut Ctx<Self::Message>) {
        match msg {
            BetaMsg::Alg { pulse, payload } => {
                self.inbox(pulse).push((from, payload));
                ctx.send_with(from, BetaMsg::Ack { pulse }, pulse, MessageClass::Control);
            }
            BetaMsg::Ack { pulse } => {
                self.assert_current("Ack", pulse);
                self.unacked = self.unacked.saturating_sub(1);
                self.try_report(ctx);
            }
            BetaMsg::Ready { pulse } => {
                self.assert_current("Ready", pulse);
                self.children_ready += 1;
                self.try_report(ctx);
            }
            BetaMsg::NextPulse { pulse } => {
                self.assert_current("NextPulse", pulse);
                // Forward the broadcast and advance, as the root did.
                self.broadcast_next(ctx);
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

    /// Sends one message to its parent at every pulse and never outputs.
    struct Chatter;

    impl EventDriven for Chatter {
        type Msg = u64;
        type Output = ();

        fn on_init(&mut self, ctx: &mut PulseCtx<u64>) {
            ctx.send(NodeId(0), 0);
        }

        fn on_pulse(&mut self, received: &[(NodeId, u64)], ctx: &mut PulseCtx<u64>) {
            ctx.send(NodeId(0), received.first().map_or(0, |(_, k)| k + 1));
        }

        fn output(&self) -> Option<()> {
            None
        }
    }

    /// Node 1 of `path(2)`, a leaf under the root 0.
    fn leaf(max_pulse: u64) -> BetaSynchronizer<Chatter> {
        let tree = SpanningTree::bfs(&Graph::path(2), NodeId(0));
        BetaSynchronizer::new(tree, NodeId(1), Chatter, max_pulse)
    }

    /// Plays the root against the leaf for `pulses` pulses, delivering each
    /// pulse-`p + 1` message before the broadcast that lets the leaf leave `p`,
    /// so the window's upper slot is used every pulse. Returns the leaf's
    /// algorithm messages as `(pulse, payload)`.
    fn drive(sync: &mut BetaSynchronizer<Chatter>, pulses: u64) -> Vec<(u64, u64)> {
        let root = NodeId(0);
        let mut ctx = Ctx::new(NodeId(1));
        sync.on_start(&mut ctx);
        sync.on_message(root, BetaMsg::Alg { pulse: 0, payload: 0 }, &mut ctx);
        for p in 0..pulses {
            sync.on_message(root, BetaMsg::Ack { pulse: p }, &mut ctx);
            sync.on_message(root, BetaMsg::Alg { pulse: p + 1, payload: p + 1 }, &mut ctx);
            sync.on_message(root, BetaMsg::NextPulse { pulse: p }, &mut ctx);
            assert_eq!(sync.current, p + 1);
        }
        ctx.drain_outbox()
            .filter_map(|o| match o.msg {
                BetaMsg::Alg { pulse, payload } => Some((pulse, payload)),
                _ => None,
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "outside the two-pulse window")]
    fn a_message_two_pulses_ahead_breaks_the_window() {
        let mut sync = leaf(16);
        let mut ctx = Ctx::new(NodeId(1));
        sync.on_start(&mut ctx);
        sync.on_message(NodeId(0), BetaMsg::Alg { pulse: 2, payload: 0 }, &mut ctx);
    }

    #[test]
    #[should_panic(expected = "NextPulse of pulse 1 arrived at pulse 0")]
    fn a_broadcast_for_another_pulse_is_rejected() {
        let mut sync = leaf(16);
        let mut ctx = Ctx::new(NodeId(1));
        sync.on_start(&mut ctx);
        sync.on_message(NodeId(0), BetaMsg::NextPulse { pulse: 1 }, &mut ctx);
    }

    #[test]
    fn per_node_state_is_pinned() {
        // `me`, the tree, `max_pulse`, `current` and two counters (48 bytes),
        // the two inboxes (48) and two flags; nothing grows with `max_pulse`.
        assert_eq!(std::mem::size_of::<BetaSynchronizer<Chatter>>(), 104);
    }

    #[test]
    fn a_huge_pulse_bound_allocates_nothing_in_proportion() {
        let mut small = leaf(16);
        let mut huge = leaf(1 << 40);
        let expected: Vec<_> = (0..=12).map(|p| (p, p)).collect();
        assert_eq!(drive(&mut small, 12), expected);
        assert_eq!(drive(&mut huge, 12), expected);
        // The only heap the synchronizer owns besides the shared tree is the
        // two inboxes' buffers.
        let inboxes = |s: &BetaSynchronizer<Chatter>| s.received.each_ref().map(Vec::capacity);
        assert_eq!(inboxes(&small), inboxes(&huge));
        assert!(inboxes(&huge).iter().all(|&c| c <= 4));
    }
}
