//! Construction of sparse `d`-covers and layered covers (Theorem 4.21 interface).
//!
//! A sparse `d`-cover is obtained from a `(2d)`-separated weak-diameter network
//! decomposition by expanding every cluster to its `d`-neighborhood: clusters of the
//! same color stay disjoint (their pairwise distance exceeds `2d`), so every node is a
//! member of at most one cluster per color, i.e. of `O(log n)` clusters; and the
//! cluster that contains a node `v` of color `c` contains all of `B(v, d)`.
//!
//! Every cluster carries a rooted *cluster tree*: the union of shortest paths (in `G`)
//! from the members to the carving center. Nodes on those paths that are not members
//! act as Steiner nodes, exactly as in the paper's Theorem 4.20 trees.
//!
//! All BFS work here is *bounded-radius* over shared epoch-stamped scratch buffers
//! (the crate-private `scratch` module): the `d`-expansion explores only
//! `B(cluster, d)`, and the
//! cluster tree comes from a BFS tree of the center truncated at the deepest
//! member — never a full-graph traversal. Each tree node becomes one entry of
//! the cover's position table. `tests/cover_scale.rs` pins the result against a
//! rebuild from full-graph searches; DESIGN.md §3.3 documents the complexity.

use crate::decomposition::{build_decomposition_with, DecompCluster};
use crate::scratch::{BfsScratch, MarkSet};
use crate::{ClusterId, LayeredSparseCover, SparseCover, TreeEntry};
use ds_graph::Graph;

/// Scratch buffers shared by every ball, cluster and layer of one build.
struct CoverScratch {
    /// Ball growing (decomposition) and `d`-expansion of carved clusters.
    ball: BfsScratch,
    /// Bounded BFS tree from each cluster center.
    tree: BfsScratch,
    /// Nodes already added to the cluster tree under construction.
    in_tree: MarkSet,
}

impl CoverScratch {
    fn new(n: usize) -> Self {
        CoverScratch {
            ball: BfsScratch::new(n),
            tree: BfsScratch::new(n),
            in_tree: MarkSet::new(n),
        }
    }
}

/// Builds a sparse `d`-cover of `graph` (Definition 2.1).
///
/// # Panics
///
/// Panics if the graph is empty or `d == 0`.
pub fn build_sparse_cover(graph: &Graph, d: usize) -> SparseCover {
    let mut scratch = CoverScratch::new(graph.node_count());
    build_sparse_cover_with(graph, d, &mut scratch)
}

fn build_sparse_cover_with(graph: &Graph, d: usize, scratch: &mut CoverScratch) -> SparseCover {
    assert!(d >= 1, "cover radius must be at least 1");
    assert!(graph.node_count() > 0, "cover requires a non-empty graph");
    let decomposition = build_decomposition_with(graph, d.saturating_mul(2), &mut scratch.ball);
    let mut entries = Vec::new();
    let mut clusters = 0;
    for (_color, dc) in decomposition.clusters() {
        realize_cluster(graph, d, dc, scratch, ClusterId(clusters), &mut entries);
        clusters += 1;
    }
    SparseCover::new(d, graph.node_count(), clusters, &entries)
}

/// Turns one carved decomposition cluster into a cover cluster: `d`-expansion of
/// the carved members plus the rooted cluster tree, appended to `entries` as one
/// entry per tree node.
fn realize_cluster(
    graph: &Graph,
    d: usize,
    dc: &DecompCluster,
    scratch: &mut CoverScratch,
    id: ClusterId,
    entries: &mut Vec<TreeEntry>,
) {
    // Expand the carved cluster by its d-neighborhood (bounded multi-source BFS);
    // the ball's visited set is the member set.
    scratch.ball.start(&dc.members);
    let ball_depth = u32::try_from(d).unwrap_or(u32::MAX);
    while scratch.ball.depth_reached() < ball_depth && scratch.ball.expand_level(graph).is_some() {}

    // Cluster tree: union of BFS-tree paths from every member to the center.
    // Every member is within `weak_radius + d` of the center, so the BFS tree
    // only needs that depth; a bounded BFS assigns the same parents as the
    // full-graph one (first discoverer wins, same traversal order). Radii
    // near `usize::MAX` saturate: no graph is that deep.
    let tree_depth = u32::try_from(dc.weak_radius.saturating_add(d)).unwrap_or(u32::MAX);
    scratch.tree.start(std::slice::from_ref(&dc.center));
    while scratch.tree.depth_reached() < tree_depth && scratch.tree.expand_level(graph).is_some() {}
    scratch.in_tree.clear();
    scratch.in_tree.insert(dc.center);
    let is_member = scratch.ball.visited(dc.center);
    entries.push(TreeEntry { cluster: id, node: dc.center, parent: None, is_member });
    for &member in scratch.ball.order() {
        let mut v = member;
        while !scratch.in_tree.contains(v) {
            scratch.in_tree.insert(v);
            debug_assert!(
                scratch.tree.visited(v),
                "members are connected to the center in the carved component"
            );
            let p = scratch.tree.parent(v);
            let is_member = scratch.ball.visited(v);
            entries.push(TreeEntry { cluster: id, node: v, parent: Some(p), is_member });
            v = p;
        }
    }
}

/// Builds a layered sparse cover: sparse `2^j`-covers for `j ∈ {0, …, ⌈log₂ max_radius⌉}`.
///
/// The top layer always has radius at least `max_radius`, so
/// [`LayeredSparseCover::cover_for_radius`] succeeds for every `d ≤ max_radius`.
/// One set of scratch buffers is shared across all layers.
///
/// # Panics
///
/// Panics if the graph is empty or `max_radius == 0`.
pub fn build_layered_sparse_cover(graph: &Graph, max_radius: usize) -> LayeredSparseCover {
    assert!(max_radius >= 1, "max_radius must be at least 1");
    let top = (max_radius as f64).log2().ceil() as usize;
    let mut scratch = CoverScratch::new(graph.node_count());
    let covers =
        (0..=top).map(|j| build_sparse_cover_with(graph, 1usize << j, &mut scratch)).collect();
    LayeredSparseCover::new(covers)
}

/// Exponent of the smallest cover radius a synchronizer stage uses: stage `p`
/// runs on the `2^{ℓ(p) + STAGE_COVER_EXPONENT}`-cover (Theorem 5.3), where the
/// pulse level `ℓ(p)` is at least 0.
pub const STAGE_COVER_EXPONENT: u32 = 5;

/// Builds the layered cover a synchronizer needs for an algorithm whose time
/// complexity is at most `time_bound` on a graph of diameter at most `diameter_bound`.
///
/// Layer `j` has radius `2^{STAGE_COVER_EXPONENT + j}`: no stage selects a smaller
/// one. The top layer reaches radius `2^{STAGE_COVER_EXPONENT + 1} · max(time_bound, 1)`,
/// and never less than `diameter_bound`. Building stops at the first layer that is
/// a single cluster, and every layer above it shares that cover: a larger radius
/// carves the same cluster, members and tree (DESIGN.md §3.3). Select layers by
/// [`LayeredSparseCover::radius`], not by the shared cover's own radius.
///
/// The top radius is capped at `2^{usize::BITS - 1}` where `64 · time_bound` or
/// `diameter_bound` would overflow a `usize`: the top layer only has to be one
/// cluster that spans the graph, and stages select radii up to `2^60` at most.
pub fn build_synchronizer_cover(
    graph: &Graph,
    time_bound: usize,
    diameter_bound: usize,
) -> LayeredSparseCover {
    let needed = (2usize << STAGE_COVER_EXPONENT).saturating_mul(time_bound.max(1));
    let top = needed
        .max(diameter_bound)
        .checked_next_power_of_two()
        .map_or(usize::BITS - 1, usize::trailing_zeros);
    let mut scratch = CoverScratch::new(graph.node_count());
    let mut covers = Vec::new();
    for e in STAGE_COVER_EXPONENT..=top {
        let cover = build_sparse_cover_with(graph, 1usize << e, &mut scratch);
        // One cluster spans every layer above; so does a radius of at least
        // n, which carves whole connected components at every larger radius
        // too (a disconnected graph never gets a one-cluster layer).
        let last = cover.cluster_count() == 1 || 1usize << e >= graph.node_count();
        covers.push(cover);
        if last {
            break;
        }
    }
    let layers = (top - STAGE_COVER_EXPONENT) as usize + 1;
    LayeredSparseCover::shared(covers, STAGE_COVER_EXPONENT, layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_graph::NodeId;

    #[test]
    fn cover_satisfies_definition_on_varied_graphs() {
        for graph in [
            Graph::path(12),
            Graph::cycle(9),
            Graph::grid(4, 5),
            Graph::random_connected(30, 0.1, 5),
        ] {
            for d in [1, 2, 4] {
                let cover = build_sparse_cover(&graph, d);
                cover.validate(&graph).expect("definition 2.1 holds");
            }
        }
    }

    #[test]
    fn membership_is_logarithmic() {
        let graph = Graph::random_connected(60, 0.07, 2);
        let cover = build_sparse_cover(&graph, 2);
        let log_n = (graph.node_count() as f64).log2().ceil() as usize;
        assert!(
            cover.max_membership() <= log_n + 1,
            "membership {} exceeds {}",
            cover.max_membership(),
            log_n + 1
        );
    }

    #[test]
    fn tree_height_is_bounded_by_radius_times_log() {
        let graph = Graph::grid(6, 6);
        let d = 2;
        let cover = build_sparse_cover(&graph, d);
        let log_n = (graph.node_count() as f64).log2().ceil() as usize;
        // Carving radius ≤ 2d·log n plus the d-expansion.
        let bound = 2 * d * log_n + d;
        assert!(cover.max_height() <= bound, "height {} > {}", cover.max_height(), bound);
    }

    #[test]
    fn cover_with_radius_at_least_diameter_has_a_universal_cluster() {
        let graph = Graph::grid(4, 4);
        let d = ds_graph::metrics::diameter(&graph).unwrap();
        let cover = build_sparse_cover(&graph, d);
        let universal = ClusterId(0);
        assert!(graph.nodes().all(|v| cover.clusters_of(v).contains(&universal)));
    }

    #[test]
    fn layered_cover_levels_all_validate() {
        let graph = Graph::random_connected(24, 0.12, 9);
        let layered = build_layered_sparse_cover(&graph, 8);
        assert_eq!(layered.layers(), 4);
        for cover in layered.iter() {
            cover.validate(&graph).expect("every layer is a valid cover");
        }
    }

    #[test]
    fn synchronizer_cover_reaches_the_diameter() {
        let graph = Graph::path(20);
        let diameter = ds_graph::metrics::diameter(&graph).unwrap();
        let layered = build_synchronizer_cover(&graph, 1, diameter);
        assert!(layered.radius(layered.layers() - 1) >= diameter);
        let top = layered.cover_for_radius(diameter);
        assert_eq!(top.cluster_count(), 1);
        assert!(graph.nodes().all(|v| top.clusters_of(v) == [ClusterId(0)]));
    }

    #[test]
    fn synchronizer_cover_caps_the_top_radius_instead_of_wrapping() {
        // 64 · 2^58 = 2^64 and 64 · (2^58 + 1) overflow a `usize`; both, and
        // `usize::MAX`, cap the top radius at 2^63. Path(4) is one cluster at
        // r32, so only that layer is built.
        let graph = Graph::path(4);
        for time_bound in [1usize << 58, (1 << 58) + 1, usize::MAX] {
            let layered = build_synchronizer_cover(&graph, time_bound, 3);
            let top = usize::BITS - 1 - STAGE_COVER_EXPONENT;
            assert_eq!(layered.layers(), top as usize + 1, "T={time_bound}");
            assert_eq!(layered.radius(layered.layers() - 1), 1 << (usize::BITS - 1));
            assert_eq!(layered.iter().count(), 1, "T={time_bound}");
            assert_eq!(layered.level(layered.layers() - 1).cluster_count(), 1);
        }
    }

    #[test]
    fn cover_radii_past_2_to_the_62_saturate_instead_of_overflowing() {
        // 2d and the carving's ring radii overflowed here: a debug build
        // panicked and a release build wrapped to a 4-cluster cover.
        let graph = Graph::path(4);
        for d in [1usize << 62, 1 << 63, usize::MAX] {
            assert_eq!(build_sparse_cover(&graph, d).cluster_count(), 1, "d={d}");
        }
    }

    #[test]
    fn disconnected_graphs_stop_the_ladder_at_radius_n() {
        // Two path(4) components never get a one-cluster layer; every layer
        // carves the two components, and the ladder stops at r32 ≥ n.
        let edges = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)];
        let graph =
            Graph::from_edges(8, edges.map(|(u, v)| (NodeId(u), NodeId(v)))).expect("two paths");
        let layered = build_synchronizer_cover(&graph, 1 << 56, 3);
        assert_eq!(layered.iter().count(), 1, "only r32 is built");
        for j in 0..layered.layers() {
            assert_eq!(layered.level(j).cluster_count(), 2, "layer {j}");
        }
    }

    /// Asserts that two covers have the same clusters, node by node (their
    /// radii may differ).
    fn assert_same_table(a: &SparseCover, b: &SparseCover, label: &str) {
        assert_eq!(a.cluster_count(), b.cluster_count(), "{label}");
        assert_eq!(a.node_count(), b.node_count(), "{label}");
        for v in (0..a.node_count()).map(NodeId) {
            assert!(a.tree_pos_of(v).eq(b.tree_pos_of(v)), "{label}: tree positions of {v}");
            assert_eq!(a.clusters_of(v), b.clusters_of(v), "{label}: clusters of {v}");
        }
    }

    #[test]
    fn synchronizer_cover_builds_only_selectable_layers_and_shares_the_rest() {
        // cycle(256) has 3 clusters at r32, so the non-shared path runs too.
        for graph in [Graph::cycle(256), Graph::grid(16, 16), Graph::grid(4, 100), Graph::path(300)]
        {
            let n = graph.node_count();
            let diameter = ds_graph::metrics::diameter(&graph).unwrap();
            let layered = build_synchronizer_cover(&graph, diameter, diameter);
            let built: Vec<&SparseCover> = layered.iter().collect();
            // Nothing below the smallest stage radius.
            assert_eq!(layered.radius(0), 1 << STAGE_COVER_EXPONENT, "n={n}");
            assert_eq!(built[0].radius, 1 << STAGE_COVER_EXPONENT, "n={n}");
            // Only the last built layer may be one cluster, and it must be one
            // whenever higher layers share it.
            let singles = built.iter().filter(|c| c.cluster_count() == 1).count();
            assert!(singles <= 1, "n={n}: {singles} one-cluster layers built");
            if built.len() < layered.layers() {
                assert_eq!(built.last().unwrap().cluster_count(), 1, "n={n}");
            }
            // Every layer, shared or not, is what a fresh build at its radius gives.
            for j in 0..layered.layers() {
                let fresh = build_sparse_cover(&graph, layered.radius(j));
                assert_same_table(layered.level(j), &fresh, &format!("n={n} layer {j}"));
            }
        }
    }

    #[test]
    fn layer_for_radius_selects_by_layer_radius_on_shared_layers() {
        // grid 16² is one cluster at r32, so every layer shares that cover and
        // carries radius 32; selecting by it would put every radius on layer 0.
        let layered = build_synchronizer_cover(&Graph::grid(16, 16), 30, 30);
        assert_eq!(layered.iter().count(), 1);
        assert!(layered.layers() > 1);
        for j in 0..layered.layers() {
            assert_eq!(layered.level(j).radius, 1 << STAGE_COVER_EXPONENT);
            assert_eq!(layered.layer_for_radius(1 << (STAGE_COVER_EXPONENT as usize + j)), j);
            assert_eq!(layered.layer_for_radius(layered.radius(j) - 1), j);
        }
        assert_eq!(layered.layer_for_radius(1), 0);
        assert_eq!(layered.layer_for_radius(usize::MAX), layered.layers() - 1);
    }

    #[test]
    fn single_node_graph_has_trivial_cover() {
        let graph = Graph::new(1);
        let cover = build_sparse_cover(&graph, 1);
        assert_eq!(cover.cluster_count(), 1);
        cover.validate(&graph).unwrap();
    }

    #[test]
    fn covers_satisfy_definition_2_1_across_graph_families() {
        // The former executable reference (the pre-dense-id `legacy` builder)
        // is gone; what the construction owes its callers is Definition 2.1
        // plus the sparsity bounds, checked directly: `validate()` (tree edges
        // exist, trees rooted and connected, every `d`-ball covered), the
        // `O(log n)` membership bound, and non-trivial clusters.
        for graph in [
            Graph::path(18),
            Graph::cycle(14),
            Graph::grid(6, 5),
            Graph::random_connected(42, 0.08, 7),
            Graph::clustered_ring(4, 5),
        ] {
            let log_n = (graph.node_count() as f64).log2().ceil() as usize;
            for d in [1, 2, 4] {
                let cover = build_sparse_cover(&graph, d);
                cover.validate(&graph).unwrap_or_else(|e| panic!("d={d}: {e}"));
                assert!(cover.max_membership() <= log_n + 1, "d={d}: membership too large");
                let mut has_member = vec![false; cover.cluster_count()];
                for v in graph.nodes() {
                    cover.clusters_of(v).iter().for_each(|c| has_member[c.index()] = true);
                }
                assert!(has_member.iter().all(|&m| m), "d={d}: empty cluster");
            }
            let layered = build_layered_sparse_cover(&graph, 8);
            assert_eq!(layered.layers(), 4, "radii 1, 2, 4, 8");
            for (j, cover) in layered.iter().enumerate() {
                assert_eq!(cover.radius, 1 << j);
                cover.validate(&graph).unwrap_or_else(|e| panic!("layer {j}: {e}"));
            }
        }
    }
}
