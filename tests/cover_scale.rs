//! Cover-construction tests on the E9 tier graphs (4096 nodes, the size where
//! the old `BTreeMap` builder started to dominate setup time), plus the
//! reference pin of the cover's position table:
//!
//! * **Reference construction** — every cluster rebuilt from its definition with
//!   the public API and full-graph searches (carving, `d`-expansion, union of
//!   member → centre BFS-tree paths) gives the same tree positions, memberships,
//!   cluster count and height as the builder, node by node: on small graphs of
//!   eight families in every build, and on grid 64², `grid(8, 512)` and
//!   random-regular 4,096 in release.
//! * **Definition 2.1 validity** — `SparseCover::validate` (tree edges exist,
//!   every `d`-ball covered by one cluster) holds on 4096-node grid / torus /
//!   random-regular graphs; the in-crate cover tests stop at ~60 nodes.
//! * **Sparsity and depth bounds** — `O(log n)` membership and `O(d log n)`
//!   cluster-tree height, the quantities the synchronizer's overhead theorems
//!   consume.
//! * **Layered structure** — `build_layered_sparse_cover` produces one valid
//!   `2^j`-cover per layer up to the requested radius.
//! * **Shared synchronizer layers** — `build_synchronizer_cover` stops at its
//!   first one-cluster layer; every layer above it must equal a fresh build at
//!   the layer's radius (DESIGN.md §3.3), on 4096-node graphs where that layer
//!   sits at r32 (random-regular, torus), r64 (grid) and up to r1024 (cycle).
//!
//! * **Exact diameter at tier scale** — `metrics::diameter` (the bit-parallel
//!   kernel) equals the closed form on grids, tori and cycles, and a
//!   `SynchronizerConfig` built from the double-sweep bound equals one built
//!   from the exact diameter (DESIGN.md §3.3) on the tier graphs, grid 48² and
//!   the six `service_mix` graphs.
//!
//! All but the small reference pin are ignored under debug builds (ball
//! coverage touches `Σ_v |B(v, d)|` nodes, too slow unoptimized); the CI
//! release perf job runs this file via `cargo test --release --test cover_scale`.

use det_synchronizer::algos::bfs::BfsAlgorithm;
use det_synchronizer::covers::builder::{
    build_layered_sparse_cover, build_sparse_cover, build_synchronizer_cover,
};
use det_synchronizer::covers::decomposition::build_decomposition;
use det_synchronizer::covers::{ClusterId, LayeredSparseCover, SparseCover};
use det_synchronizer::graph::{metrics, Graph, NodeId};
use det_synchronizer::prelude::{Session, SyncKind, SynchronizerConfig};

/// One tree position of a node: `(cluster, parent, children, is_member)`.
type Position = (ClusterId, Option<NodeId>, Vec<NodeId>, bool);

/// A `d`-cover rebuilt from its definition with the public API and full-graph
/// searches only: the carving of `build_decomposition(graph, 2d)`, members within
/// `d` of the carved members, and the tree as the union of member → centre paths
/// in the centre's full BFS tree.
struct ReferenceCover {
    /// Per node, its tree positions in ascending cluster id.
    positions: Vec<Vec<Position>>,
    /// Per node, the clusters it is a member of, ascending.
    memberships: Vec<Vec<ClusterId>>,
    clusters: usize,
    max_height: usize,
}

fn reference_cover(graph: &Graph, d: usize) -> ReferenceCover {
    let n = graph.node_count();
    let mut positions = vec![Vec::new(); n];
    let mut memberships = vec![Vec::new(); n];
    let mut max_height = 0;
    let decomposition = build_decomposition(graph, 2 * d);
    let mut clusters = 0;
    for (_, carved) in decomposition.clusters() {
        let id = ClusterId(clusters);
        clusters += 1;
        let near = metrics::multi_source_distances(graph, &carved.members);
        let is_member: Vec<bool> = near.iter().map(|x| x.is_some_and(|x| x <= d)).collect();
        let bfs = metrics::bfs_tree(graph, carved.center);
        let depth = metrics::bfs_distances(graph, carved.center);
        let mut in_tree = vec![false; n];
        in_tree[carved.center.index()] = true;
        for v in graph.nodes().filter(|v| is_member[v.index()]) {
            let mut u = v;
            while !in_tree[u.index()] {
                in_tree[u.index()] = true;
                u = bfs[u.index()].expect("members reach the centre");
            }
        }
        let mut children = vec![Vec::new(); n];
        for v in graph.nodes().filter(|v| in_tree[v.index()]) {
            if let Some(p) = bfs[v.index()] {
                children[p.index()].push(v);
            }
        }
        for v in graph.nodes() {
            if in_tree[v.index()] {
                let kids = std::mem::take(&mut children[v.index()]);
                positions[v.index()].push((id, bfs[v.index()], kids, is_member[v.index()]));
                max_height = max_height.max(depth[v.index()].expect("tree nodes are reached"));
            }
            if is_member[v.index()] {
                memberships[v.index()].push(id);
            }
        }
    }
    ReferenceCover { positions, memberships, clusters, max_height }
}

/// Asserts that `cover` is the reference `d`-cover, node by node.
fn assert_matches_reference(graph: &Graph, cover: &SparseCover, d: usize, label: &str) {
    let reference = reference_cover(graph, d);
    assert_eq!(cover.node_count(), graph.node_count(), "{label}: node count");
    assert_eq!(cover.cluster_count(), reference.clusters, "{label}: cluster count");
    assert_eq!(cover.max_height(), reference.max_height, "{label}: max height");
    for v in graph.nodes() {
        let positions: Vec<Position> = cover
            .tree_pos_of(v)
            .map(|p| (p.cluster, p.parent, p.children.to_vec(), p.is_member))
            .collect();
        assert_eq!(positions, reference.positions[v.index()], "{label}: tree positions of {v}");
        assert_eq!(cover.clusters_of(v), reference.memberships[v.index()], "{label}: {v}");
        for (k, &(cluster, ..)) in positions.iter().enumerate() {
            assert_eq!(cover.tree_index_of(v, cluster), Some(k), "{label}: index at {v}");
        }
        let absent = ClusterId(cover.cluster_count());
        assert_eq!(cover.tree_index_of(v, absent), None, "{label}: {v}");
    }
}

/// Asserts that two covers have the same clusters, node by node (their radii
/// may differ).
fn assert_same_table(a: &SparseCover, b: &SparseCover, label: &str) {
    assert_eq!(a.cluster_count(), b.cluster_count(), "{label}");
    assert_eq!(a.node_count(), b.node_count(), "{label}");
    for v in (0..a.node_count()).map(NodeId) {
        assert!(a.tree_pos_of(v).eq(b.tree_pos_of(v)), "{label}: tree positions of {v}");
        assert_eq!(a.clusters_of(v), b.clusters_of(v), "{label}: clusters of {v}");
    }
}

/// Asserts that every layer of a synchronizer cover, shared or not, is the
/// reference cover at the layer's radius.
fn assert_layers_match_reference(graph: &Graph, layered: &LayeredSparseCover, label: &str) {
    for j in 0..layered.layers() {
        let radius = layered.radius(j);
        assert_matches_reference(graph, layered.level(j), radius, &format!("{label} layer {j}"));
    }
}

#[test]
fn covers_match_a_reference_built_from_full_graph_searches() {
    for (label, graph) in [
        ("path/40", Graph::path(40)),
        ("cycle/48", Graph::cycle(48)),
        ("grid/10x10", Graph::grid(10, 10)),
        ("torus/8x8", Graph::torus(8, 8)),
        ("grid/4x30", Graph::grid(4, 30)),
        ("random-regular/128", Graph::random_regular(128, 4, 3)),
        ("random-connected/60", Graph::random_connected(60, 0.08, 7)),
        ("clustered-ring/5x4", Graph::clustered_ring(5, 4)),
    ] {
        for d in [1, 2, 4, 8] {
            let cover = build_sparse_cover(&graph, d);
            assert_matches_reference(&graph, &cover, d, &format!("{label} d={d}"));
        }
    }
    // cycle(256) has 3 clusters at r32, so a non-shared layer runs too.
    for (label, graph, time_bound) in [
        ("cycle/256", Graph::cycle(256), 128),
        ("path/300", Graph::path(300), 299),
        ("grid/16x16", Graph::grid(16, 16), 30),
        ("grid/4x100", Graph::grid(4, 100), 102),
    ] {
        let (_, upper) = metrics::diameter_bounds(&graph).unwrap();
        let layered = build_synchronizer_cover(&graph, time_bound, upper);
        assert_layers_match_reference(&graph, &layered, label);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode scale test; debug builds are too slow")]
fn covers_match_the_reference_at_scale() {
    for (label, graph, time_bound) in [
        ("grid/4096", Graph::grid(64, 64), 127),
        ("grid/8x512", Graph::grid(8, 512), 518),
        ("random-regular/4096", Graph::random_regular(4096, 4, 4096), 16),
    ] {
        for d in [1, 2, 4, 8] {
            let cover = build_sparse_cover(&graph, d);
            assert_matches_reference(&graph, &cover, d, &format!("{label} d={d}"));
        }
        let (_, upper) = metrics::diameter_bounds(&graph).unwrap();
        let layered = build_synchronizer_cover(&graph, time_bound, upper);
        assert_layers_match_reference(&graph, &layered, label);
    }
}

fn tier_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("grid/4096", Graph::grid(64, 64)),
        ("torus/4096", Graph::torus(64, 64)),
        ("random-regular/4096", Graph::random_regular(4096, 4, 4096)),
    ]
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode scale test; debug builds are too slow")]
fn covers_validate_on_4096_node_tier_graphs() {
    for (label, graph) in tier_graphs() {
        let log_n = (graph.node_count() as f64).log2().ceil() as usize;
        for d in [2, 8] {
            let cover = build_sparse_cover(&graph, d);
            cover.validate(&graph).unwrap_or_else(|e| panic!("{label} d={d}: {e}"));
            assert!(
                cover.max_membership() <= log_n + 1,
                "{label} d={d}: membership {} exceeds log n + 1",
                cover.max_membership()
            );
            assert!(
                cover.max_height() <= (2 * d + 1) * (log_n + 1),
                "{label} d={d}: tree height {} exceeds the O(d log n) bound",
                cover.max_height()
            );
            let mut has_member = vec![false; cover.cluster_count()];
            for v in graph.nodes() {
                cover.clusters_of(v).iter().for_each(|c| has_member[c.index()] = true);
            }
            assert!(has_member.iter().all(|&m| m), "{label} d={d}: empty cluster");
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode scale test; debug builds are too slow")]
fn layered_cover_layers_validate_on_a_tier_graph() {
    // One layered build (the structure `SynchronizerConfig::build` consumes) on
    // the 4096-node grid: every layer must be a valid cover of its radius.
    let graph = Graph::grid(64, 64);
    let layered = build_layered_sparse_cover(&graph, 16);
    assert_eq!(layered.layers(), 5, "radii 1, 2, 4, 8, 16");
    for (j, cover) in layered.iter().enumerate() {
        assert_eq!(cover.radius, 1 << j, "layer {j} has the wrong radius");
        cover.validate(&graph).unwrap_or_else(|e| panic!("layer {j}: {e}"));
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode scale test; debug builds are too slow")]
fn synchronizer_cover_shares_its_one_cluster_layer_upward() {
    // `T` is the grid's `det_grid_deep` bound and a BFS bound elsewhere.
    for (label, graph, time_bound) in [
        ("grid/4096", Graph::grid(64, 64), 127),
        ("torus/4096", Graph::torus(64, 64), 64),
        ("cycle/4096", Graph::cycle(4096), 2048),
        ("grid/8x512", Graph::grid(8, 512), 518),
        ("random-regular/4096", Graph::random_regular(4096, 4, 4096), 16),
    ] {
        let (_, upper) = metrics::diameter_bounds(&graph).unwrap();
        let layered = build_synchronizer_cover(&graph, time_bound, upper);
        for cover in layered.iter() {
            cover.validate(&graph).unwrap_or_else(|e| panic!("{label} r{}: {e}", cover.radius));
        }
        let last = layered.iter().count() - 1;
        for j in last + 1..layered.layers() {
            let fresh = build_sparse_cover(&graph, layered.radius(j));
            assert_same_table(layered.level(j), &fresh, &format!("{label} layer {j}"));
        }
        assert_eq!(layered.level(last).cluster_count(), 1, "{label}: ends one-cluster");
    }
    // `det_grid_deep`'s cover: r32 (3 clusters) and r64 (1), instead of r1..r8192.
    let layered = build_synchronizer_cover(&Graph::grid(64, 64), 127, 126);
    assert_eq!(layered.layers(), 9, "r32 ..= r8192");
    let clusters: Vec<usize> = layered.iter().map(|c| c.cluster_count()).collect();
    assert_eq!(clusters, [3, 1], "2 covers built");
}

/// The synchronous BFS-from-node-0 round count: the `T(A)` a BFS request on
/// `graph` resolves.
fn bfs_time_bound(graph: &Graph) -> usize {
    let run = Session::on(graph)
        .synchronizer(SyncKind::Direct)
        .run(|v| BfsAlgorithm::new(graph, v, &[NodeId(0)]))
        .expect("the synchronous BFS terminates");
    run.metrics.time_to_quiescence.max(1.0) as usize
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode scale test; debug builds are too slow")]
fn bound_built_synchronizer_config_equals_the_exact_diameter_one() {
    // The first five are the sharing test's graphs and `T`s, grid 48² is
    // `det_grid_sharded`'s, and the last six are `service_mix`'s graphs at their
    // BFS `T(A)` (`None`). The closed-form diameter is `None` where the family
    // has none.
    for (label, graph, time_bound, closed_form) in [
        ("grid/4096", Graph::grid(64, 64), Some(127), Some(64 + 64 - 2)),
        ("torus/4096", Graph::torus(64, 64), Some(64), Some(32 + 32)),
        ("cycle/4096", Graph::cycle(4096), Some(2048), Some(2048)),
        ("grid/8x512", Graph::grid(8, 512), Some(518), Some(8 + 512 - 2)),
        ("random-regular/4096", Graph::random_regular(4096, 4, 4096), Some(16), None),
        ("grid/48x48", Graph::grid(48, 48), Some(95), Some(48 + 48 - 2)),
        ("service grid/16x16", Graph::grid(16, 16), None, Some(16 + 16 - 2)),
        ("service grid/32x32", Graph::grid(32, 32), None, Some(32 + 32 - 2)),
        ("service torus/16x16", Graph::torus(16, 16), None, Some(8 + 8)),
        ("service cycle/256", Graph::cycle(256), None, Some(128)),
        ("service random-regular/256", Graph::random_regular(256, 4, 1), None, None),
        ("service random-regular/1024", Graph::random_regular(1024, 4, 2), None, None),
    ] {
        let time_bound = time_bound.unwrap_or_else(|| bfs_time_bound(&graph));
        let exact = metrics::diameter(&graph).expect("connected");
        if let Some(closed_form) = closed_form {
            assert_eq!(exact, closed_form, "{label}: diameter");
        }
        let (lower, upper) = metrics::diameter_bounds(&graph).expect("connected");
        assert!(lower <= exact && exact <= upper, "{label}: {lower} ≤ {exact} ≤ {upper}");
        // Random-regular 4,096 is the one graph here whose double-sweep lower
        // bound (9) misses the diameter (10).
        let gap = if label == "random-regular/4096" { 1 } else { 0 };
        assert_eq!(exact - lower, gap, "{label}: double-sweep gap");
        let exact_covers = build_synchronizer_cover(&graph, time_bound, exact.max(1));
        let from_exact = SynchronizerConfig::with_covers(exact_covers, time_bound as u64);
        assert!(
            *SynchronizerConfig::build(&graph, time_bound as u64) == *from_exact,
            "{label} T={time_bound}: the bound-built config differs from the exact one"
        );
    }
}
