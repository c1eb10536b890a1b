//! Deterministic leader election (Corollary 1.3).
//!
//! The Section 6 algorithm runs in epochs `i = 1, 2, …`, building a sparse
//! `2^i`-cover per epoch, convergecasting the minimum candidate identifier inside
//! every cluster, and terminating at the epoch whose clusters contain the whole
//! graph. Here the layered sparse cover is precomputed (exactly as for the
//! synchronizer itself), so the algorithm reduces to the *final* epoch: a
//! convergecast and broadcast of the minimum identifier in every cluster of a cover
//! whose radius is at least the diameter — every such cluster contains all nodes, so
//! every node learns the globally minimal identifier. This keeps the `Õ(D)` time and
//! `Õ(m)` message complexity of the corollary; DESIGN.md §3 records the
//! simplification.

use ds_covers::{ClusterId, SparseCover};
use ds_graph::{Graph, NodeId};
use ds_netsim::delay::DelayModel;
use ds_netsim::event_driven::{EventDriven, PulseCtx};
use ds_netsim::metrics::RunMetrics;
use ds_netsim::FaultPlan;
use ds_sync::executor::RunHealth;
use ds_sync::session::{Session, SessionError, SyncKind};
use ds_sync::synchronizer::SynchronizerConfig;
use std::sync::Arc;

/// Messages of the leader-election algorithm, all scoped to one cluster of the cover.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeaderMsg {
    /// Convergecast: minimum candidate identifier in the sender's cluster subtree.
    Up { cluster: u32, best: u64 },
    /// Broadcast: the cluster-wide minimum identifier.
    Down { cluster: u32, leader: u64 },
}

/// Per-cluster convergecast state.
#[derive(Clone, Debug)]
struct ClusterState {
    children_left: usize,
    best: u64,
    sent_up: bool,
}

/// Per-node leader-election algorithm state.
#[derive(Clone, Debug)]
pub struct LeaderElection {
    me: NodeId,
    cover: Arc<SparseCover>,
    /// One state per cluster tree containing `me`, in the order of the cover's
    /// position table (`SparseCover::tree_clusters_of`).
    clusters: Vec<ClusterState>,
    member_pending: usize,
    leader: Option<u64>,
    output: Option<NodeId>,
}

impl LeaderElection {
    /// Creates the instance for node `me`, using a cover whose every cluster spans the
    /// whole graph (any cover of radius at least the diameter).
    pub fn new(me: NodeId, cover: Arc<SparseCover>) -> Self {
        let clusters = cover
            .tree_pos_of(me)
            .map(|pos| ClusterState {
                children_left: pos.children.len(),
                best: if pos.is_member { me.index() as u64 } else { u64::MAX },
                sent_up: false,
            })
            .collect();
        let member_pending = cover.clusters_of(me).len();
        LeaderElection { me, cover, clusters, member_pending, leader: None, output: None }
    }

    /// Local index of `cluster` among the cluster trees containing `me`.
    fn local_index(&self, cluster: u32) -> Option<usize> {
        self.cover.tree_index_of(self.me, ClusterId(cluster as usize))
    }

    /// Advances the convergecast in the `k`-th cluster tree containing `me`.
    fn try_advance(&mut self, k: usize, ctx: &mut PulseCtx<LeaderMsg>) {
        let state = &mut self.clusters[k];
        if state.sent_up || state.children_left > 0 {
            return;
        }
        state.sent_up = true;
        let best = state.best;
        let pos = self.cover.tree_pos(self.me, k);
        match pos.parent {
            Some(parent) => ctx.send(parent, LeaderMsg::Up { cluster: pos.cluster.0 as u32, best }),
            None => self.complete_cluster(k, best, ctx),
        }
    }

    fn complete_cluster(&mut self, k: usize, leader: u64, ctx: &mut PulseCtx<LeaderMsg>) {
        let pos = self.cover.tree_pos(self.me, k);
        for &child in pos.children {
            ctx.send(child, LeaderMsg::Down { cluster: pos.cluster.0 as u32, leader });
        }
        if pos.is_member {
            self.leader = Some(self.leader.map_or(leader, |l| l.min(leader)));
            self.member_pending = self.member_pending.saturating_sub(1);
            if self.member_pending == 0 {
                self.output =
                    Some(NodeId(self.leader.expect("at least one cluster result") as usize));
            }
        }
    }
}

impl EventDriven for LeaderElection {
    type Msg = LeaderMsg;
    /// The elected leader's identifier.
    type Output = NodeId;

    fn on_init(&mut self, ctx: &mut PulseCtx<LeaderMsg>) {
        for k in 0..self.clusters.len() {
            self.try_advance(k, ctx);
        }
    }

    fn on_pulse(&mut self, received: &[(NodeId, LeaderMsg)], ctx: &mut PulseCtx<LeaderMsg>) {
        for &(_, msg) in received {
            match msg {
                LeaderMsg::Up { cluster, best } => {
                    let Some(k) = self.local_index(cluster) else { continue };
                    let state = &mut self.clusters[k];
                    state.best = state.best.min(best);
                    state.children_left = state.children_left.saturating_sub(1);
                    self.try_advance(k, ctx);
                }
                LeaderMsg::Down { cluster, leader } => {
                    let Some(k) = self.local_index(cluster) else { continue };
                    self.complete_cluster(k, leader, ctx);
                }
            }
        }
    }

    fn output(&self) -> Option<NodeId> {
        self.output
    }
}

/// Result of a synchronized leader-election run.
#[derive(Clone, Debug)]
pub struct LeaderReport {
    /// The elected leader: identical at every node that produced an output. On
    /// a fault-free connected run every node elects it; under a fault plan it
    /// is `None` exactly when *no* node finished the election (the broadcast
    /// was fully starved).
    pub leader: Option<NodeId>,
    /// Per-node outputs (`None` for nodes the churn starved).
    pub outputs: Vec<Option<NodeId>>,
    /// Metrics of the asynchronous run.
    pub metrics: RunMetrics,
    /// Degradation status: crashed nodes and nodes with no output (both empty
    /// on a fault-free run).
    pub health: RunHealth,
}

/// Elects a leader asynchronously and deterministically (Corollary 1.3): every node
/// learns the minimum identifier in `Õ(D)` time using `Õ(m)` messages.
///
/// # Errors
///
/// Returns an error if the simulation fails.
///
/// # Panics
///
/// Panics if the graph is empty or disconnected.
pub fn run_synchronized_leader_election(
    graph: &Graph,
    delay: DelayModel,
) -> Result<LeaderReport, SessionError> {
    run_synchronized_leader_election_faulted(graph, delay, None)
}

/// [`run_synchronized_leader_election`] under a dynamic-topology [`FaultPlan`].
/// The election runs its convergecast/broadcast over the cover of the *intact*
/// graph while churn drops deliveries; nodes the broadcast never reached output
/// `None` and are listed on the report's `health`. Nodes that do output agree:
/// every output descends from the single root's minimum. The run terminates
/// regardless of the plan (dropped messages starve the schedule, they never
/// wedge it).
///
/// # Errors
///
/// Returns an error if the simulation fails.
///
/// # Panics
///
/// Panics if the graph is empty or disconnected.
pub fn run_synchronized_leader_election_faulted(
    graph: &Graph,
    delay: DelayModel,
    faults: Option<&FaultPlan>,
) -> Result<LeaderReport, SessionError> {
    let diameter =
        ds_graph::metrics::diameter(graph).expect("leader election requires connectivity");
    let cover = Arc::new(ds_covers::builder::build_sparse_cover(graph, diameter.max(1)));
    // The convergecast+broadcast takes at most 2 · (tree height) + 1 pulses.
    let t_bound = (2 * cover.max_height() as u64 + 2).max(1);
    let cfg = SynchronizerConfig::build(graph, t_bound);
    let mut session = Session::on(graph).delay(delay).synchronizer(SyncKind::Det(cfg));
    if let Some(plan) = faults {
        session = session.faults(plan.clone());
    }
    let run = session.run(|v| LeaderElection::new(v, cover.clone()))?;
    let leader = run.outputs.iter().flatten().copied().next();
    Ok(LeaderReport { leader, outputs: run.outputs, metrics: run.metrics, health: run.health })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_netsim::sync_engine::run_sync;

    fn universal_cover(graph: &Graph) -> Arc<SparseCover> {
        let d = ds_graph::metrics::diameter(graph).unwrap().max(1);
        Arc::new(ds_covers::builder::build_sparse_cover(graph, d))
    }

    #[test]
    fn synchronous_leader_election_elects_minimum_id() {
        let graph = Graph::random_connected(25, 0.1, 3);
        let cover = universal_cover(&graph);
        let report = run_sync(&graph, |v| LeaderElection::new(v, cover.clone()), 10_000).unwrap();
        for out in report.outputs() {
            assert_eq!(out, Some(NodeId(0)));
        }
    }

    #[test]
    fn message_complexity_is_near_linear() {
        let graph = Graph::grid(5, 5);
        let cover = universal_cover(&graph);
        let report = run_sync(&graph, |v| LeaderElection::new(v, cover.clone()), 10_000).unwrap();
        let n = graph.node_count() as u64;
        let log_n = (graph.node_count() as f64).log2().ceil() as u64 + 1;
        // Two messages per cluster-tree edge, O(log n) clusters per node.
        assert!(report.messages <= 4 * n * log_n, "messages = {}", report.messages);
    }

    #[test]
    fn asynchronous_leader_election_matches_corollary() {
        let graph = Graph::clustered_ring(3, 3);
        let report = run_synchronized_leader_election(&graph, DelayModel::jitter(8)).unwrap();
        assert_eq!(report.leader, Some(NodeId(0)));
        assert!(report.outputs.iter().all(|o| *o == Some(NodeId(0))));
    }
}
