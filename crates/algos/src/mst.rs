//! Deterministic minimum spanning tree (Corollary 1.4).
//!
//! The paper obtains its asynchronous MST by synchronizing Elkin's `Õ(D + √n)`-round,
//! `Õ(m)`-message synchronous algorithm. We substitute a simpler deterministic
//! event-driven MST — a *filtering convergecast*: every node reports its incident
//! edges up a cluster tree that spans the whole graph; internal nodes merge the
//! received edge sets and forward only the minimum spanning forest of what they have
//! seen (which provably retains every global MST edge); the root computes the MST and
//! broadcasts it. With distinct edge weights the MST is unique, so every node outputs
//! exactly its incident MST edges.
//!
//! The substitution (recorded in DESIGN.md §3) preserves what Corollary 1.4
//! exercises — a deterministic, message-frugal synchronous MST algorithm driven
//! through the synchronizer — at the cost of using messages larger than `O(log n)`
//! bits (a forwarded forest can hold up to `n − 1` edges), i.e. it is not
//! CONGEST-faithful. Message *counts*, which is what the experiments measure, remain
//! `Õ(n)` plus the synchronizer overhead.

use ds_covers::{ClusterId, SparseCover};
use ds_graph::weights::{EdgeWeights, UnionFind};
use ds_graph::{Graph, NodeId};
use ds_netsim::delay::DelayModel;
use ds_netsim::event_driven::{EventDriven, PulseCtx};
use ds_netsim::metrics::RunMetrics;
use ds_sync::session::{Session, SessionError, SyncKind};
use ds_sync::synchronizer::SynchronizerConfig;
use std::sync::Arc;

/// An undirected weighted edge `(u, v, w)` with `u < v`.
pub type WeightedEdge = (u32, u32, u64);

/// Messages of the MST algorithm, scoped to one cluster of the cover.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MstMsg {
    /// Convergecast: a minimum spanning forest of the edges seen in the subtree.
    Up { cluster: u32, forest: Vec<WeightedEdge> },
    /// Broadcast: the minimum spanning tree of the whole graph.
    Down { cluster: u32, tree: Vec<WeightedEdge> },
}

/// Computes the minimum spanning forest of a set of weighted edges (Kruskal over the
/// node identifiers mentioned in the edges). Weights are assumed distinct.
fn spanning_forest(mut edges: Vec<WeightedEdge>, n: usize) -> Vec<WeightedEdge> {
    edges.sort_by_key(|&(u, v, w)| (w, u, v));
    edges.dedup();
    let mut uf = UnionFind::new(n);
    let mut forest = Vec::new();
    for (u, v, w) in edges {
        if uf.union(u as usize, v as usize) {
            forest.push((u, v, w));
        }
    }
    forest.sort_unstable();
    forest
}

/// Per-cluster convergecast state.
#[derive(Clone, Debug)]
struct ClusterState {
    children_left: usize,
    edges: Vec<WeightedEdge>,
    sent_up: bool,
}

/// Per-node MST algorithm state.
#[derive(Clone, Debug)]
pub struct MstAlgorithm {
    me: NodeId,
    n: usize,
    cover: Arc<SparseCover>,
    /// One state per cluster tree containing `me`, in the order of the cover's
    /// position table (`SparseCover::tree_clusters_of`).
    clusters: Vec<ClusterState>,
    output: Option<Vec<(NodeId, NodeId)>>,
}

impl MstAlgorithm {
    /// Creates the instance for node `me` with its incident edge weights.
    pub fn new(graph: &Graph, weights: &EdgeWeights, me: NodeId, cover: Arc<SparseCover>) -> Self {
        let incident: Vec<WeightedEdge> = graph
            .edges()
            .filter(|&(_, u, v)| u == me || v == me)
            .map(|(e, u, v)| (u.index() as u32, v.index() as u32, weights.weight(e)))
            .collect();
        let clusters = cover
            .tree_pos_of(me)
            .map(|pos| ClusterState {
                children_left: pos.children.len(),
                edges: incident.clone(),
                sent_up: false,
            })
            .collect();
        MstAlgorithm { me, n: graph.node_count(), cover, clusters, output: None }
    }

    /// Local index of `cluster` among the cluster trees containing `me`.
    fn local_index(&self, cluster: u32) -> Option<usize> {
        self.cover.tree_index_of(self.me, ClusterId(cluster as usize))
    }

    /// Advances the convergecast in the `k`-th cluster tree containing `me`.
    fn try_advance(&mut self, k: usize, ctx: &mut PulseCtx<MstMsg>) {
        let state = &mut self.clusters[k];
        if state.sent_up || state.children_left > 0 {
            return;
        }
        state.sent_up = true;
        let forest = spanning_forest(std::mem::take(&mut state.edges), self.n);
        let pos = self.cover.tree_pos(self.me, k);
        match pos.parent {
            Some(parent) => ctx.send(parent, MstMsg::Up { cluster: pos.cluster.0 as u32, forest }),
            None => self.complete_cluster(k, forest, ctx),
        }
    }

    fn complete_cluster(&mut self, k: usize, tree: Vec<WeightedEdge>, ctx: &mut PulseCtx<MstMsg>) {
        let pos = self.cover.tree_pos(self.me, k);
        for &child in pos.children {
            ctx.send(child, MstMsg::Down { cluster: pos.cluster.0 as u32, tree: tree.clone() });
        }
        if self.output.is_none() {
            let mine: Vec<(NodeId, NodeId)> = tree
                .iter()
                .filter(|&&(u, v, _)| {
                    u as usize == self.me.index() || v as usize == self.me.index()
                })
                .map(|&(u, v, _)| (NodeId(u as usize), NodeId(v as usize)))
                .collect();
            self.output = Some(mine);
        }
    }
}

impl EventDriven for MstAlgorithm {
    type Msg = MstMsg;
    /// The node's incident MST edges, endpoints in ascending order.
    type Output = Vec<(NodeId, NodeId)>;

    fn on_init(&mut self, ctx: &mut PulseCtx<MstMsg>) {
        for k in 0..self.clusters.len() {
            self.try_advance(k, ctx);
        }
    }

    fn on_pulse(&mut self, received: &[(NodeId, MstMsg)], ctx: &mut PulseCtx<MstMsg>) {
        for (_, msg) in received {
            match msg {
                MstMsg::Up { cluster, forest } => {
                    let Some(k) = self.local_index(*cluster) else { continue };
                    let state = &mut self.clusters[k];
                    state.edges.extend_from_slice(forest);
                    state.children_left = state.children_left.saturating_sub(1);
                    self.try_advance(k, ctx);
                }
                MstMsg::Down { cluster, tree } => {
                    let Some(k) = self.local_index(*cluster) else { continue };
                    self.complete_cluster(k, tree.clone(), ctx);
                }
            }
        }
    }

    fn output(&self) -> Option<Self::Output> {
        self.output.clone()
    }
}

/// Result of a synchronized MST run.
#[derive(Clone, Debug)]
pub struct MstReport {
    /// The MST edges, as `(u, v)` pairs with `u < v`, sorted.
    pub tree_edges: Vec<(NodeId, NodeId)>,
    /// Metrics of the asynchronous run.
    pub metrics: RunMetrics,
}

/// Computes a minimum spanning tree asynchronously and deterministically
/// (Corollary 1.4).
///
/// # Errors
///
/// Returns an error if the simulation fails.
///
/// # Panics
///
/// Panics if the graph is empty or disconnected.
pub fn run_synchronized_mst(
    graph: &Graph,
    weights: &EdgeWeights,
    delay: DelayModel,
) -> Result<MstReport, SessionError> {
    let diameter = ds_graph::metrics::diameter(graph).expect("MST requires a connected graph");
    let cover = Arc::new(ds_covers::builder::build_sparse_cover(graph, diameter.max(1)));
    let t_bound = (2 * cover.max_height() as u64 + 2).max(1);
    let cfg = SynchronizerConfig::build(graph, t_bound);
    let run = Session::on(graph)
        .delay(delay)
        .synchronizer(SyncKind::Det(cfg))
        .run(|v| MstAlgorithm::new(graph, weights, v, cover.clone()))?;
    let mut tree_edges: Vec<(NodeId, NodeId)> =
        run.outputs.iter().flatten().flat_map(|edges| edges.iter().copied()).collect();
    tree_edges.sort();
    tree_edges.dedup();
    Ok(MstReport { tree_edges, metrics: run.metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_graph::weights::{is_spanning_tree, minimum_spanning_tree};
    use ds_netsim::sync_engine::run_sync;

    fn reference_edges(graph: &Graph, weights: &EdgeWeights) -> Vec<(NodeId, NodeId)> {
        minimum_spanning_tree(graph, weights).into_iter().map(|e| graph.endpoints(e)).collect()
    }

    #[test]
    fn spanning_forest_filters_to_kruskal_result() {
        let edges = vec![(0, 1, 5), (1, 2, 1), (0, 2, 2), (2, 3, 7), (1, 3, 9)];
        let forest = spanning_forest(edges, 4);
        assert_eq!(forest, vec![(0, 2, 2), (1, 2, 1), (2, 3, 7)]);
    }

    #[test]
    fn synchronous_mst_matches_kruskal() {
        let graph = Graph::random_connected(18, 0.2, 4);
        let weights = EdgeWeights::random_distinct(&graph, 4);
        let d = ds_graph::metrics::diameter(&graph).unwrap().max(1);
        let cover = Arc::new(ds_covers::builder::build_sparse_cover(&graph, d));
        let report =
            run_sync(&graph, |v| MstAlgorithm::new(&graph, &weights, v, cover.clone()), 10_000)
                .unwrap();
        let mut got: Vec<(NodeId, NodeId)> =
            report.outputs().iter().flatten().flat_map(|e| e.iter().copied()).collect();
        got.sort();
        got.dedup();
        let mut expected = reference_edges(&graph, &weights);
        expected.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn asynchronous_mst_matches_kruskal_and_spans() {
        let graph = Graph::clustered_ring(3, 3);
        let weights = EdgeWeights::random_distinct(&graph, 7);
        let report = run_synchronized_mst(&graph, &weights, DelayModel::jitter(5)).unwrap();
        let mut expected = reference_edges(&graph, &weights);
        expected.sort();
        assert_eq!(report.tree_edges, expected);
        let ids: Vec<_> =
            report.tree_edges.iter().map(|&(u, v)| graph.edge_between(u, v).unwrap()).collect();
        assert!(is_spanning_tree(&graph, &ids));
    }
}
