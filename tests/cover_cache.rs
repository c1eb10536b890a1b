//! Cover-cache correctness: a cache hit must be *bit-identical* to a cold
//! `SynchronizerConfig::build`, and any change to the topology or the build
//! parameters — even a single removed edge — must miss rather than alias a
//! stale entry.
//!
//! `SynchronizerConfig` derives full structural equality exactly for these
//! assertions: `*cached == *cold` compares the pulse bound, every cover layer,
//! every cluster tree and every precomputed stage table.

use det_synchronizer::algos::bfs::BfsAlgorithm;
use det_synchronizer::prelude::*;
use det_synchronizer::sync::service::{CoverCache, SessionPool, SynchronizerParams};
use std::sync::{Arc, Barrier};

#[test]
fn cache_hit_is_bit_identical_to_a_cold_build_across_families() {
    let cache = CoverCache::new();
    for (label, graph) in [
        ("grid", Graph::grid(6, 6)),
        ("torus", Graph::torus(4, 5)),
        ("random-regular", Graph::random_regular(40, 4, 11)),
    ] {
        for max_pulse in [4u64, 9] {
            let params = SynchronizerParams { max_pulse };
            let cold = SynchronizerConfig::build(&graph, max_pulse);
            let first = cache.get_or_build(&graph, params);
            let hit = cache.get_or_build(&graph, params);
            assert!(Arc::ptr_eq(&first, &hit), "{label}/{max_pulse}: second lookup must hit");
            assert_eq!(*hit, *cold, "{label}/{max_pulse}: cached config differs from cold build");
        }
    }
    // 3 families × 2 bounds: every (graph, params) pair is its own entry.
    assert_eq!(cache.len(), 6);
    assert_eq!(cache.misses(), 6);
    assert_eq!(cache.hits(), 6);
}

#[test]
fn parameter_changes_miss_instead_of_aliasing() {
    let cache = CoverCache::new();
    let graph = Graph::grid(5, 5);
    let a = cache.get_or_build(&graph, SynchronizerParams { max_pulse: 6 });
    let b = cache.get_or_build(&graph, SynchronizerParams { max_pulse: 7 });
    assert!(!Arc::ptr_eq(&a, &b), "a changed bound must not serve the old config");
    assert_ne!(*a, *b);
    assert_eq!((a.max_pulse, b.max_pulse), (6, 7));
    assert_eq!(cache.misses(), 2);
    assert_eq!(cache.hits(), 0);
}

#[test]
fn edited_topologies_miss() {
    // One removed edge makes a distinct topology that must get a distinct config.
    // The edge is on the BFS tree from node 0, which is the tree of the cover's
    // only (one-cluster) layer: an edge off that tree would leave the config equal.
    let graph = Graph::grid(5, 5);
    let edited = Graph::from_edges(
        graph.node_count(),
        graph.edges().map(|(_, u, v)| (u, v)).filter(|&e| e != (NodeId(0), NodeId(1))),
    )
    .expect("a sub-list of a valid edge list");
    assert_eq!(edited.edge_count(), graph.edge_count() - 1);

    let cache = CoverCache::new();
    let params = SynchronizerParams { max_pulse: 8 };
    let before = cache.get_or_build(&graph, params);
    let after = cache.get_or_build(&edited, params);
    assert!(!Arc::ptr_eq(&before, &after), "the edited topology must not alias");
    assert_ne!(*before, *after, "a removed edge must change the built config");
    assert_eq!(cache.misses(), 2, "both topologies built");
    assert_eq!(cache.len(), 2, "both topologies cached side by side");
    // Each topology keeps serving its own config.
    assert!(Arc::ptr_eq(&before, &cache.get_or_build(&graph, params)));
    assert!(Arc::ptr_eq(&after, &cache.get_or_build(&edited, params)));
    // And the cached edited config equals its cold build.
    assert_eq!(*after, *SynchronizerConfig::build(&edited, 8));
}

#[test]
fn same_size_different_structure_graphs_never_alias() {
    // Equal node and edge counts, different wiring: the structural hash keys
    // them apart, and even under a hypothetical hash collision the cache's
    // verify-on-hit (full graph equality) would keep them separate.
    let path = Graph::path(6); // 6 nodes, 5 edges, a line
    let mut star = Graph::new(6); // 6 nodes, 5 edges, a hub
    for i in 1..6 {
        star.add_edge(NodeId(0), NodeId(i)).expect("star edge");
    }
    assert_eq!(path.edge_count(), star.edge_count());
    assert_ne!(path.structural_hash(), star.structural_hash());

    let cache = CoverCache::new();
    let params = SynchronizerParams { max_pulse: 5 };
    let on_path = cache.get_or_build(&path, params);
    let on_star = cache.get_or_build(&star, params);
    assert_ne!(*on_path, *on_star);
    assert!(Arc::ptr_eq(&on_path, &cache.get_or_build(&path, params)));
    assert!(Arc::ptr_eq(&on_star, &cache.get_or_build(&star, params)));
}

#[test]
fn eviction_then_rebuild_matches_the_original_build() {
    let g1 = Graph::grid(4, 4);
    let g2 = Graph::cycle(12);
    let cache = CoverCache::with_capacity(1);
    let params = SynchronizerParams { max_pulse: 7 };

    let first = cache.get_or_build(&g1, params);
    cache.get_or_build(&g2, params); // capacity 1: evicts g1
    assert_eq!(cache.evictions(), 1);
    assert_eq!(cache.len(), 1);
    let rebuilt = cache.get_or_build(&g1, params); // miss again, rebuild
    assert_eq!(cache.evictions(), 2, "g2 evicted in turn");
    assert!(!Arc::ptr_eq(&first, &rebuilt), "the evicted entry is gone; this is a fresh build");
    assert_eq!(*first, *rebuilt, "a rebuild after eviction must be bit-identical");
    assert_eq!(*rebuilt, *SynchronizerConfig::build(&g1, 7));
}

#[test]
fn capacity_one_pool_still_runs_every_request_correctly() {
    // End to end: a pool whose cache thrashes (capacity 1, two alternating
    // topologies) must still produce bit-identical runs — eviction costs
    // rebuild time, never correctness.
    let g1 = Graph::grid(4, 4);
    let g2 = Graph::cycle(10);
    let requests = vec![
        Session::on(&g1).delay(DelayModel::jitter(3)),
        Session::on(&g2).delay(DelayModel::jitter(4)),
        Session::on(&g1).delay(DelayModel::jitter(5)),
        Session::on(&g2).delay(DelayModel::jitter(6)),
    ];
    let pool = SessionPool::with_cache(1, CoverCache::with_capacity(1));
    let results = pool.run_batch::<BfsAlgorithm, _>(&requests, |i, v| {
        BfsAlgorithm::new(requests[i].graph(), v, &[NodeId(0)])
    });
    for (i, (req, result)) in requests.iter().zip(&results).enumerate() {
        let pooled = result.as_ref().unwrap_or_else(|e| panic!("req {i}: {e}"));
        let solo =
            req.run(|v| BfsAlgorithm::new(req.graph(), v, &[NodeId(0)])).expect("standalone");
        assert_eq!(pooled.outputs, solo.outputs, "req {i}");
        assert_eq!(pooled.metrics, solo.metrics, "req {i}");
    }
    assert_eq!(pool.cache().capacity(), 1);
    assert!(pool.cache().evictions() > 0, "alternating topologies must thrash a capacity-1 cache");
}

#[test]
fn concurrent_lookups_of_one_key_build_it_once() {
    // Four threads released together all look up the same key. Whatever the
    // interleaving, the first lookup builds and the other three wait for that
    // build: one miss, three hits, one shared `Arc`. (The barrier only makes
    // the lookups overlap, so a cache that let racing lookups each build
    // would fail here reliably.)
    let graph = Graph::grid(64, 64);
    let params = SynchronizerParams { max_pulse: 16 };
    let cache = CoverCache::new();
    let barrier = Barrier::new(4);
    let configs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    cache.get_or_build(&graph, params)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("lookup thread")).collect()
    });
    assert_eq!((cache.misses(), cache.hits(), cache.len()), (1, 3, 1));
    assert!(configs.iter().all(|cfg| Arc::ptr_eq(cfg, &configs[0])), "one shared build");
}
