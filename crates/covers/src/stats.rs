//! Quality statistics of covers and layered covers, used by the cover-quality
//! experiment (E6 in DESIGN.md) to reproduce the Definition 2.1 / Theorem 4.21
//! guarantees empirically.

use crate::{LayeredSparseCover, SparseCover};
use ds_graph::Graph;

/// Summary statistics of one sparse cover.
#[derive(Clone, Debug, PartialEq)]
pub struct CoverStats {
    /// The covering radius `d`.
    pub radius: usize,
    /// Number of clusters.
    pub clusters: usize,
    /// Largest number of clusters any node is a member of (paper: `O(log n)`).
    pub max_membership: usize,
    /// Average number of clusters per node.
    pub avg_membership: f64,
    /// Largest cluster-tree height (paper: `O(d · polylog n)`).
    pub max_tree_height: usize,
    /// Stretch: largest tree height divided by `d`.
    pub stretch: f64,
    /// Largest number of cluster trees sharing one graph edge (paper: `O(log^4 n)`).
    pub max_edge_load: usize,
}

/// Computes [`CoverStats`] for a cover on `graph`.
pub fn cover_stats(graph: &Graph, cover: &SparseCover) -> CoverStats {
    let n = graph.node_count().max(1);
    let total_membership: usize = graph.nodes().map(|v| cover.clusters_of(v).len()).sum();

    // Edge load, accumulated flat over the dense undirected-edge index.
    let mut edge_load = vec![0u32; graph.edge_count()];
    for (_, v, p) in cover.tree_edges() {
        let e = graph.edge_between(v, p).expect("tree edges are graph edges");
        edge_load[e.index()] += 1;
    }

    CoverStats {
        radius: cover.radius,
        clusters: cover.cluster_count(),
        max_membership: cover.max_membership(),
        avg_membership: total_membership as f64 / n as f64,
        max_tree_height: cover.max_height(),
        stretch: cover.max_height() as f64 / cover.radius.max(1) as f64,
        max_edge_load: edge_load.iter().copied().max().unwrap_or(0) as usize,
    }
}

/// Computes statistics of every distinct cover of a layered cover (layers that
/// share a cover are reported once).
pub fn layered_stats(graph: &Graph, layered: &LayeredSparseCover) -> Vec<CoverStats> {
    layered.iter().map(|c| cover_stats(graph, c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_layered_sparse_cover, build_sparse_cover};

    #[test]
    fn stats_reflect_definition_bounds() {
        let graph = Graph::random_connected(48, 0.08, 6);
        let cover = build_sparse_cover(&graph, 2);
        let stats = cover_stats(&graph, &cover);
        let log_n = (graph.node_count() as f64).log2().ceil();
        assert!(stats.max_membership as f64 <= log_n + 1.0);
        assert!(stats.avg_membership >= 1.0, "every node is covered at least once");
        assert!(stats.max_edge_load >= 1);
        assert!(stats.stretch >= 1.0);
    }

    #[test]
    fn layered_stats_has_one_entry_per_layer() {
        let graph = Graph::grid(4, 4);
        let layered = build_layered_sparse_cover(&graph, 4);
        let stats = layered_stats(&graph, &layered);
        assert_eq!(stats.len(), layered.layers());
        assert_eq!(stats[0].radius, 1);
        assert_eq!(stats.last().unwrap().radius, 4);
    }
}
