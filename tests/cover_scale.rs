//! Release-mode cover-construction scale tests: the dense-id pipeline on the E9
//! tier graphs (4096 nodes, the size where the old `BTreeMap` builder started to
//! dominate setup time).
//!
//! The pre-dense-id `legacy` builder — kept for one release as the executable
//! reference of a bit-identical equivalence pin — is deleted; what the pipeline
//! owes its callers at scale is the *properties*, checked directly:
//!
//! * **Definition 2.1 validity** — `SparseCover::validate` (tree edges exist,
//!   trees rooted and connected, every `d`-ball covered by one cluster) holds on
//!   4096-node grid / torus / random-regular graphs; the in-crate cover tests
//!   stop at ~60 nodes.
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
//! Ignored under debug builds (ball coverage touches `Σ_v |B(v, d)|` nodes,
//! too slow unoptimized); the CI release perf job runs this file via
//! `cargo test --release --test cover_scale`.

use det_synchronizer::algos::bfs::BfsAlgorithm;
use det_synchronizer::covers::builder::{
    build_layered_sparse_cover, build_sparse_cover, build_synchronizer_cover,
};
use det_synchronizer::graph::{metrics, Graph, NodeId};
use det_synchronizer::prelude::{Session, SyncKind, SynchronizerConfig};

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
            assert!(
                cover.clusters.iter().all(|c| c.member_count() > 0),
                "{label} d={d}: empty cluster"
            );
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
            assert_eq!(layered.level(j).clusters, fresh.clusters, "{label} layer {j}");
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
