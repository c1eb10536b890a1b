//! Dynamic-topology fault injection: link churn and crash-stop node failures.
//!
//! A [`FaultPlan`] is a scriptable schedule of [`FaultEvent`]s — links going
//! down and coming back, nodes crashing and recovering — pinned to absolute
//! simulation ticks. Every engine (serial wheel, binary heap, sharded)
//! consults the same compiled [`FaultState`] at dispatch and delivery time:
//!
//! * A message whose delivery tick finds the link down, the sender crashed or
//!   the receiver crashed is **dropped** (counted in
//!   [`AsyncReport::dropped_events`](crate::AsyncReport::dropped_events)) and
//!   the link is freed for the next injection. Crash-stop semantics: a
//!   crashed node's in-flight messages are lost too.
//! * Injecting onto a blocked link drains and drops the link's entire queue —
//!   messages "sent into the void" are lost, not buffered for recovery.
//! * Acknowledgments are engine bookkeeping, not payload traffic: they are
//!   never dropped, so the one-in-flight ack discipline survives churn and a
//!   recovered link re-admits traffic immediately.
//! * A node crashed at tick 0 never runs `on_start`; a crashed node is never
//!   activated, so it emits nothing until (and unless) it recovers.
//!
//! Determinism is load-bearing: fault transitions are applied at fixed ticks,
//! before any event of that tick fires, and the drop paths draw **no**
//! sequence numbers from the global stream. Schedules under any `FaultPlan`
//! are therefore bit-identical across engines, shard counts and worker
//! counts — pinned by `ds-verify`'s engine contract (`ds_verify::check`,
//! whose fault scenarios are in `tests/fault_injection.rs`).

use ds_graph::{DirectedEdgeId, Graph, NodeId};

/// One scripted topology transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// The undirected link `{u, v}` fails (both directions stop delivering).
    LinkDown {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// The undirected link `{u, v}` recovers.
    LinkUp {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// Node `v` crashes (crash-stop: receives nothing, emits nothing).
    NodeCrash(NodeId),
    /// Node `v` recovers and resumes receiving and responding. A node crashed
    /// at tick 0 missed `on_start` and only ever reacts to incoming traffic.
    NodeRecover(NodeId),
}

/// A deterministic, tick-stamped schedule of [`FaultEvent`]s.
///
/// Build one explicitly with the chainable [`at`](FaultPlan::at) method, or
/// seed a churn adversary with [`random_churn`](FaultPlan::random_churn).
/// Events are applied in tick order; same-tick events apply in insertion
/// order. Events naming edges or nodes absent from the graph are ignored
/// (and not counted as transitions).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<(u64, FaultEvent)>,
}

impl FaultPlan {
    /// An empty plan (no faults — engines behave exactly as without one).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds one event at an absolute tick. Chainable.
    #[must_use]
    pub fn at(mut self, tick: u64, event: FaultEvent) -> Self {
        self.events.push((tick, event));
        self
    }

    /// Convenience: link `{u, v}` down at `tick`.
    #[must_use]
    pub fn link_down(self, tick: u64, u: NodeId, v: NodeId) -> Self {
        self.at(tick, FaultEvent::LinkDown { u, v })
    }

    /// Convenience: link `{u, v}` up at `tick`.
    #[must_use]
    pub fn link_up(self, tick: u64, u: NodeId, v: NodeId) -> Self {
        self.at(tick, FaultEvent::LinkUp { u, v })
    }

    /// Convenience: node `v` crashes at `tick`.
    #[must_use]
    pub fn node_crash(self, tick: u64, v: NodeId) -> Self {
        self.at(tick, FaultEvent::NodeCrash(v))
    }

    /// Convenience: node `v` recovers at `tick`.
    #[must_use]
    pub fn node_recover(self, tick: u64, v: NodeId) -> Self {
        self.at(tick, FaultEvent::NodeRecover(v))
    }

    /// A seeded churn adversary: `episodes` link outages and `crashes` node
    /// outages, each a `Down`/`Up` (or `Crash`/`Recover`) pair at
    /// deterministic ticks within `[0, span_ticks)`. The same
    /// `(graph, seed, ...)` always yields the same plan. Episode targets are
    /// drawn from the graph's edge and node lists; an empty graph yields an
    /// empty plan.
    #[must_use]
    pub fn random_churn(
        graph: &Graph,
        seed: u64,
        episodes: usize,
        crashes: usize,
        span_ticks: u64,
    ) -> Self {
        let mut plan = FaultPlan::new();
        let span = span_ticks.max(2);
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut draw = move |bound: u64| -> u64 {
            state = splitmix(state);
            state % bound.max(1)
        };
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(_, u, v)| (u, v)).collect();
        if !edges.is_empty() {
            for _ in 0..episodes {
                let (u, v) = edges[draw(edges.len() as u64) as usize];
                let down = draw(span - 1);
                let up = down + 1 + draw(span - down - 1);
                plan = plan.link_down(down, u, v).link_up(up, u, v);
            }
        }
        if graph.node_count() > 0 {
            for _ in 0..crashes {
                let v = NodeId(draw(graph.node_count() as u64) as usize);
                let down = draw(span - 1);
                let up = down + 1 + draw(span - down - 1);
                plan = plan.node_crash(down, v).node_recover(up, v);
            }
        }
        plan
    }

    /// Whether the plan schedules no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled `(tick, event)` pairs in insertion order.
    pub fn events(&self) -> &[(u64, FaultEvent)] {
        &self.events
    }

    /// The nodes still crashed after every event in the plan has been applied
    /// (sorted by id). Nodes outside `0..n` are ignored, mirroring how the
    /// engines compile the plan. This is the "these nodes never answered"
    /// status a degraded workload reports alongside its partial outputs.
    pub fn crashed_at_end(&self, n: usize) -> Vec<NodeId> {
        let mut crashed = vec![false; n];
        let mut order = self.application_order();
        order.sort_by_key(|&i| (self.events[i].0, i));
        for i in order {
            match self.events[i].1 {
                FaultEvent::NodeCrash(v) if v.index() < n => crashed[v.index()] = true,
                FaultEvent::NodeRecover(v) if v.index() < n => crashed[v.index()] = false,
                _ => {}
            }
        }
        (0..n).filter(|&i| crashed[i]).map(NodeId).collect()
    }

    /// Event indices in application order (tick, then insertion order).
    fn application_order(&self) -> Vec<usize> {
        (0..self.events.len()).collect()
    }
}

/// One compiled topology transition: flip a link or node flag.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Set both directions of an undirected link down (`true`) or up.
    Link(DirectedEdgeId, DirectedEdgeId, bool),
    /// Set a node crashed (`true`) or recovered.
    Node(NodeId, bool),
}

/// A [`FaultPlan`] compiled against a graph, with the current link/node flags.
///
/// Engines advance it monotonically ([`advance_to`](FaultState::advance_to))
/// as simulated time passes and consult [`blocks`](FaultState::blocks) on the
/// delivery/injection paths. The compile step drops events naming nonexistent
/// edges or out-of-range nodes, so invalid plan entries are inert rather than
/// panics, and never inflate the transition count.
#[derive(Clone, Debug)]
pub struct FaultState {
    /// `(tick, op)` sorted by tick (stable: same-tick in plan order).
    ops: Vec<(u64, Op)>,
    /// Next op to apply.
    cursor: usize,
    /// Per-directed-edge "link down" flag.
    link_down: Vec<bool>,
    /// Per-node "crashed" flag.
    crashed: Vec<bool>,
    /// Transitions applied so far (one per applied op, redundant or not).
    transitions: u64,
}

impl FaultState {
    /// Compiles `plan` against `graph`. Invalid events are silently dropped.
    pub fn new(graph: &Graph, plan: &FaultPlan) -> Self {
        let n = graph.node_count();
        let mut ops = Vec::with_capacity(plan.events.len());
        for &(tick, event) in &plan.events {
            let op = match event {
                FaultEvent::LinkDown { u, v } => {
                    graph.edge_id(u, v).map(|e| Op::Link(e, e.reversed(), true))
                }
                FaultEvent::LinkUp { u, v } => {
                    graph.edge_id(u, v).map(|e| Op::Link(e, e.reversed(), false))
                }
                FaultEvent::NodeCrash(v) => (v.index() < n).then_some(Op::Node(v, true)),
                FaultEvent::NodeRecover(v) => (v.index() < n).then_some(Op::Node(v, false)),
            };
            if let Some(op) = op {
                ops.push((tick, op));
            }
        }
        ops.sort_by_key(|&(tick, _)| tick);
        FaultState {
            ops,
            cursor: 0,
            link_down: vec![false; graph.directed_edge_count()],
            crashed: vec![false; n],
            transitions: 0,
        }
    }

    /// Applies every op scheduled at or before `now`. Monotone: engines call
    /// this with non-decreasing ticks, and each op is applied (and counted)
    /// exactly once.
    pub fn advance_to(&mut self, now: u64) {
        while let Some(&(tick, op)) = self.ops.get(self.cursor) {
            if tick > now {
                break;
            }
            match op {
                Op::Link(a, b, down) => {
                    self.link_down[a.index()] = down;
                    self.link_down[b.index()] = down;
                }
                Op::Node(v, crashed) => self.crashed[v.index()] = crashed,
            }
            self.transitions += 1;
            self.cursor += 1;
        }
    }

    /// Whether a delivery on `link` (`from → to`) is blocked under the current
    /// flags: the link is down, the sender crashed, or the receiver crashed.
    pub fn blocks(&self, link: DirectedEdgeId, from: NodeId, to: NodeId) -> bool {
        self.link_down[link.index()] || self.crashed[from.index()] || self.crashed[to.index()]
    }

    /// Whether `v` is currently crashed.
    pub fn is_crashed(&self, v: NodeId) -> bool {
        self.crashed[v.index()]
    }

    /// Transitions applied so far (surfaced as
    /// [`AsyncReport::fault_transitions`](crate::AsyncReport::fault_transitions)).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }
}

/// The same split-mix step the delay adversary uses (`delay.rs`); duplicated
/// locally so the two modules stay independently readable and their streams
/// never entangle.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_compile_in_tick_order_and_flip_flags() {
        let graph = Graph::path(4);
        let plan = FaultPlan::new()
            .link_down(10, NodeId(1), NodeId(2))
            .node_crash(5, NodeId(3))
            .link_up(20, NodeId(2), NodeId(1))
            .node_recover(15, NodeId(3));
        let mut state = FaultState::new(&graph, &plan);
        let fwd = graph.edge_id(NodeId(1), NodeId(2)).expect("edge");

        state.advance_to(4);
        assert_eq!(state.transitions(), 0);
        assert!(!state.blocks(fwd, NodeId(1), NodeId(2)));

        state.advance_to(10);
        assert_eq!(state.transitions(), 2);
        assert!(state.is_crashed(NodeId(3)));
        assert!(state.blocks(fwd, NodeId(1), NodeId(2)));
        assert!(state.blocks(fwd.reversed(), NodeId(2), NodeId(1)));

        state.advance_to(30);
        assert_eq!(state.transitions(), 4);
        assert!(!state.is_crashed(NodeId(3)));
        assert!(!state.blocks(fwd, NodeId(1), NodeId(2)));
    }

    #[test]
    fn crashed_endpoints_block_every_incident_link() {
        let graph = Graph::star(4);
        let plan = FaultPlan::new().node_crash(1, NodeId(0));
        let mut state = FaultState::new(&graph, &plan);
        state.advance_to(1);
        for leaf in 1..4 {
            let to_hub = graph.edge_id(NodeId(leaf), NodeId(0)).expect("edge");
            assert!(state.blocks(to_hub, NodeId(leaf), NodeId(0)), "crashed receiver");
            assert!(state.blocks(to_hub.reversed(), NodeId(0), NodeId(leaf)), "crashed sender");
        }
    }

    #[test]
    fn invalid_events_are_dropped_and_never_counted() {
        let graph = Graph::path(3);
        let plan = FaultPlan::new()
            .link_down(1, NodeId(0), NodeId(2)) // not an edge of the path
            .node_crash(1, NodeId(99)) // out of range
            .link_down(2, NodeId(0), NodeId(1));
        let mut state = FaultState::new(&graph, &plan);
        state.advance_to(100);
        assert_eq!(state.transitions(), 1);
        assert!(!state.is_crashed(NodeId(0)));
    }

    #[test]
    fn same_tick_events_apply_in_insertion_order() {
        let graph = Graph::path(2);
        let up_then_down =
            FaultPlan::new().link_up(3, NodeId(0), NodeId(1)).link_down(3, NodeId(0), NodeId(1));
        let mut state = FaultState::new(&graph, &up_then_down);
        state.advance_to(3);
        let e = graph.edge_id(NodeId(0), NodeId(1)).expect("edge");
        assert!(state.blocks(e, NodeId(0), NodeId(1)), "last same-tick event wins");
        assert_eq!(state.transitions(), 2);
    }

    #[test]
    fn random_churn_is_deterministic_and_well_formed() {
        let graph = Graph::grid(4, 4);
        let a = FaultPlan::random_churn(&graph, 7, 5, 2, 5_000);
        let b = FaultPlan::random_churn(&graph, 7, 5, 2, 5_000);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::random_churn(&graph, 8, 5, 2, 5_000);
        assert_ne!(a, c, "different seed actually varies the plan");
        assert_eq!(a.events().len(), 2 * (5 + 2), "every episode is a paired down/up");
        // Every episode recovers: nothing is left crashed at the end.
        assert!(a.crashed_at_end(graph.node_count()).is_empty());
        // All events compile (targets drawn from the graph itself).
        let mut state = FaultState::new(&graph, &a);
        state.advance_to(u64::MAX);
        assert_eq!(state.transitions(), a.events().len() as u64);
    }

    #[test]
    fn crashed_at_end_replays_in_tick_order() {
        let plan = FaultPlan::new()
            .node_recover(9, NodeId(1)) // inserted first, applies last among ticks < 10
            .node_crash(2, NodeId(1))
            .node_crash(10, NodeId(0))
            .node_crash(3, NodeId(7)); // out of range for n = 4: ignored
        assert_eq!(plan.crashed_at_end(4), vec![NodeId(0)]);
    }
}
