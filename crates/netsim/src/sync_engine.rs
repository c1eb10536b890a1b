//! Lock-step synchronous executor for event-driven algorithms.
//!
//! This engine defines the ground-truth execution of an algorithm `A` and measures
//! its synchronous complexities: the number of rounds `T(A)` and the number of
//! messages `M(A)`.

use crate::async_engine::SimError;
use crate::event_driven::{canonical_batch, EventDriven, PulseCtx};
use crate::metrics::{MessageClass, RunMetrics};
use ds_graph::{Graph, NodeId};

/// Result of a synchronous run.
#[derive(Debug)]
pub struct SyncReport<A: EventDriven> {
    /// Round at which the last node produced its output (`T(A)` in the paper);
    /// `None` if some node never produced an output.
    pub rounds_to_output: Option<u64>,
    /// Rounds until the network became quiescent (no pending messages).
    pub rounds_to_quiescence: u64,
    /// Total number of algorithm messages (`M(A)` in the paper).
    pub messages: u64,
    /// Standardized metrics (for uniform reporting next to asynchronous runs).
    pub metrics: RunMetrics,
    /// The per-node algorithm instances after the run (holding outputs and state).
    pub nodes: Vec<A>,
}

impl<A: EventDriven> SyncReport<A> {
    /// Collects the per-node outputs, `None` where a node produced none.
    pub fn outputs(&self) -> Vec<Option<A::Output>> {
        self.nodes.iter().map(|n| n.output()).collect()
    }
}

/// Runs the event-driven algorithm synchronously.
///
/// `make` constructs the per-node instance. The run stops when no messages are in
/// flight, or fails with [`SimError::RoundLimitExceeded`] after `max_rounds`.
///
/// The round loop is activity-driven: a round touches only the nodes it
/// triggers — last round's recipients and senders, merged in ascending id — so
/// it costs `O(active + msgs · log msgs)` instead of `O(n)` (DESIGN.md §3.3).
/// The triggered set, its order and every batch are those of a loop that scans
/// all `n` nodes per round; `tests/sync_engine_equiv.rs` keeps that loop as the
/// reference.
///
/// # Errors
///
/// * [`SimError::NotNeighbor`] if an algorithm sends to a non-neighbor.
/// * [`SimError::RoundLimitExceeded`] if the algorithm does not quiesce in time.
pub fn run_sync<A, F>(
    graph: &Graph,
    mut make: F,
    max_rounds: u64,
) -> Result<SyncReport<A>, SimError>
where
    A: EventDriven,
    F: FnMut(NodeId) -> A,
{
    let n = graph.node_count();
    let mut nodes: Vec<A> = graph.nodes().map(&mut make).collect();
    let mut messages: u64 = 0;

    // This pulse's messages as `(to, from, msg)`, in send order: activations run
    // in ascending id, so every recipient's messages are already in sender order.
    let mut sends: Vec<(NodeId, NodeId, A::Msg)> = Vec::new();
    // Last pulse's messages grouped by recipient, and where each recipient's run
    // starts; `runs` is sorted by recipient.
    let mut inbox: Vec<(NodeId, A::Msg)> = Vec::new();
    let mut runs: Vec<(NodeId, usize)> = Vec::new();
    // Nodes that sent at this pulse and at the previous one (self-triggers),
    // both ascending.
    let mut senders: Vec<NodeId> = Vec::new();
    let mut sent_prev: Vec<NodeId> = Vec::new();
    // Recycled outbox buffer, threaded through every pulse evaluation.
    let mut outbox: Vec<(NodeId, A::Msg)> = Vec::new();

    // Pulse 0: initiators inject their messages.
    for v in graph.nodes() {
        let mut ctx = PulseCtx::with_buffer(v, std::mem::take(&mut outbox));
        nodes[v.index()].on_init(&mut ctx);
        if post(graph, &mut ctx, &mut sends)? {
            senders.push(v);
        }
        outbox = ctx.into_buffer();
    }

    // Whether each node has an output, counted. Only an activated node can
    // change its output, so the count is updated on activations alone.
    let mut has_output: Vec<bool> = nodes.iter().map(|a| a.output().is_some()).collect();
    let mut outputs = has_output.iter().filter(|&&d| d).count();
    let mut rounds_to_output = (outputs == n).then_some(0);
    let mut round: u64 = 0;

    while !senders.is_empty() {
        round += 1;
        if round > max_rounds {
            return Err(SimError::RoundLimitExceeded { limit: max_rounds });
        }
        messages += sends.len() as u64;
        std::mem::swap(&mut senders, &mut sent_prev);
        senders.clear();

        // Group last pulse's sends by recipient; the stable sort keeps each
        // run in send order.
        sends.sort_by_key(|&(to, _, _)| to);
        inbox.clear();
        runs.clear();
        for (to, from, msg) in sends.drain(..) {
            if runs.last().map(|&(r, _)| r) != Some(to) {
                runs.push((to, inbox.len()));
            }
            inbox.push((from, msg));
        }

        // Activate the recipients and last pulse's senders, merged ascending.
        let (mut r, mut s) = (0, 0);
        loop {
            let next_run = runs.get(r).map(|&(to, _)| to);
            let next_sender = sent_prev.get(s).copied();
            let v = match (next_run, next_sender) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            let batch = if next_run == Some(v) {
                let start = runs[r].1;
                r += 1;
                let end = runs.get(r).map_or(inbox.len(), |&(_, e)| e);
                &mut inbox[start..end]
            } else {
                &mut []
            };
            if next_sender == Some(v) {
                s += 1;
            }
            let node = &mut nodes[v.index()];
            if activate(graph, v, node, batch, &mut outbox, &mut sends)? {
                senders.push(v);
            }
            if rounds_to_output.is_none() {
                let now = node.output().is_some();
                let had = std::mem::replace(&mut has_output[v.index()], now);
                outputs = outputs + usize::from(now) - usize::from(had);
            }
        }

        if rounds_to_output.is_none() && outputs == n {
            rounds_to_output = Some(round);
        }
    }

    let mut metrics = RunMetrics::default();
    metrics.record_messages(MessageClass::Algorithm, messages);
    metrics.time_to_output = rounds_to_output.map(|r| r as f64);
    metrics.time_to_quiescence = round as f64;
    metrics.events = messages;

    Ok(SyncReport { rounds_to_output, rounds_to_quiescence: round, messages, metrics, nodes })
}

/// Runs one triggered node's pulse on its batch and queues its sends; returns
/// whether it sent anything.
// ds-lint: hot-path
fn activate<A: EventDriven>(
    graph: &Graph,
    v: NodeId,
    node: &mut A,
    batch: &mut [(NodeId, A::Msg)],
    outbox: &mut Vec<(NodeId, A::Msg)>,
    sends: &mut Vec<(NodeId, NodeId, A::Msg)>,
) -> Result<bool, SimError> {
    canonical_batch(batch);
    let mut ctx = PulseCtx::with_buffer(v, std::mem::take(outbox));
    node.on_pulse(batch, &mut ctx);
    let sent = post(graph, &mut ctx, sends);
    *outbox = ctx.into_buffer();
    sent
}

/// Moves a pulse's outbox onto `sends`, checking each link; returns whether
/// the node sent anything.
// ds-lint: hot-path
fn post<M>(
    graph: &Graph,
    ctx: &mut PulseCtx<M>,
    sends: &mut Vec<(NodeId, NodeId, M)>,
) -> Result<bool, SimError> {
    let from = ctx.me();
    let before = sends.len();
    for (to, msg) in ctx.drain_outbox() {
        if !graph.has_edge(from, to) {
            return Err(SimError::NotNeighbor { from, to });
        }
        sends.push((to, from, msg));
    }
    Ok(sends.len() > before)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal flooding algorithm used to exercise the engine: node 0 floods a hop
    /// counter, every node outputs the hop count of the first copy it sees. In the
    /// synchronous model the first copy arrives along a shortest path, so the output
    /// equals the distance from node 0.
    #[derive(Debug)]
    struct Flood<'g> {
        me: NodeId,
        neighbors: &'g [NodeId],
        seen_at: Option<u64>,
    }

    impl<'g> Flood<'g> {
        fn new(graph: &'g Graph, me: NodeId) -> Self {
            Flood { me, neighbors: graph.neighbors(me), seen_at: None }
        }
    }

    impl EventDriven for Flood<'_> {
        type Msg = u64;
        type Output = u64;

        fn on_init(&mut self, ctx: &mut PulseCtx<u64>) {
            if self.me == NodeId(0) {
                self.seen_at = Some(0);
                for &u in self.neighbors {
                    ctx.send(u, 1);
                }
            }
        }

        fn on_pulse(&mut self, received: &[(NodeId, u64)], ctx: &mut PulseCtx<u64>) {
            if let Some(&(_, hops)) = received.first() {
                if self.seen_at.is_none() {
                    self.seen_at = Some(hops);
                    for &u in self.neighbors {
                        ctx.send(u, hops + 1);
                    }
                }
            }
        }

        fn output(&self) -> Option<u64> {
            self.seen_at
        }
    }

    #[test]
    fn flood_on_path_takes_diameter_rounds() {
        let g = Graph::path(6);
        let report = run_sync(&g, |v| Flood::new(&g, v), 100).unwrap();
        assert_eq!(report.rounds_to_output, Some(5));
        // Pulse numbers equal distances from node 0 on a path.
        let outputs = report.outputs();
        for (i, o) in outputs.iter().enumerate() {
            assert_eq!(*o, Some(i as u64));
        }
        // Each internal node forwards to both neighbors once: messages bounded by 2m.
        assert!(report.messages <= 2 * g.edge_count() as u64);
    }

    #[test]
    fn flood_on_star_takes_two_rounds_of_activity() {
        let g = Graph::star(5);
        let report = run_sync(&g, |v| Flood::new(&g, v), 100).unwrap();
        assert_eq!(report.rounds_to_output, Some(1));
        assert!(report.rounds_to_quiescence >= 1);
    }

    #[test]
    fn quiescence_follows_output_on_a_path() {
        // On a path of 4 nodes the last node (distance 3) outputs at round 3 and then
        // forwards once more, so the network quiesces one round later.
        let g = Graph::path(4);
        let report = run_sync(&g, |v| Flood::new(&g, v), 100).unwrap();
        assert_eq!(report.rounds_to_output, Some(3));
        assert_eq!(report.rounds_to_quiescence, 4);
    }

    #[test]
    fn round_limit_is_enforced() {
        // An algorithm that ping-pongs forever between nodes 0 and 1.
        #[derive(Debug)]
        struct PingPong {
            me: NodeId,
        }
        impl EventDriven for PingPong {
            type Msg = ();
            type Output = ();
            fn on_init(&mut self, ctx: &mut PulseCtx<()>) {
                if self.me == NodeId(0) {
                    ctx.send(NodeId(1), ());
                }
            }
            fn on_pulse(&mut self, received: &[(NodeId, ())], ctx: &mut PulseCtx<()>) {
                if let Some(&(from, _)) = received.first() {
                    ctx.send(from, ());
                }
            }
            fn output(&self) -> Option<()> {
                None
            }
        }
        let g = Graph::path(2);
        let err = run_sync(&g, |me| PingPong { me }, 10).unwrap_err();
        assert!(matches!(err, SimError::RoundLimitExceeded { limit: 10 }));
    }

    #[test]
    fn sending_to_non_neighbor_is_rejected() {
        #[derive(Debug)]
        struct Bad {
            me: NodeId,
        }
        impl EventDriven for Bad {
            type Msg = ();
            type Output = ();
            fn on_init(&mut self, ctx: &mut PulseCtx<()>) {
                if self.me == NodeId(0) {
                    ctx.send(NodeId(3), ());
                }
            }
            fn on_pulse(&mut self, _: &[(NodeId, ())], _: &mut PulseCtx<()>) {}
            fn output(&self) -> Option<()> {
                Some(())
            }
        }
        let g = Graph::path(4);
        let err = run_sync(&g, |me| Bad { me }, 10).unwrap_err();
        assert!(matches!(err, SimError::NotNeighbor { from: NodeId(0), to: NodeId(3) }));
    }
}
