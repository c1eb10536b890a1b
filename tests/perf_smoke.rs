//! Release-mode scale smoke test: a synchronized BFS on a 64×64 grid (4096 nodes,
//! the E9 headline scenario) must complete — correctly — within an explicit event
//! budget, and the synchronous engine's BFS on a 65,536-node grid and a
//! 4,096-node cycle must hit its closed forms. Ignored under debug builds, where
//! the unoptimized engines are too slow for a smoke test; CI runs
//! `cargo test --release` for this file in `perf-smoke`.

use det_synchronizer::algos::bfs::BfsAlgorithm;
use det_synchronizer::graph::metrics;
use det_synchronizer::netsim::sync_engine::run_sync;
use det_synchronizer::prelude::*;

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode smoke test; debug engines are too slow")]
fn synchronized_bfs_on_128x128_grid_completes_within_event_budget() {
    // The 16384-node tier the timing-wheel engine opened up (E9's largest grid
    // scenario). The run processes ~7.9M delivery events; a 20M budget leaves
    // headroom for schedule jitter while still catching message blowups.
    let graph = Graph::grid(128, 128);
    let limits = SimLimits { max_events: 20_000_000, max_rounds: 10_000 };
    let run = Session::on(&graph)
        .delay(DelayModel::jitter(1))
        .synchronizer(SyncKind::DetAuto)
        .limits(limits)
        .run(|v| BfsAlgorithm::new(&graph, v, &[NodeId(0)]))
        .expect("128x128 synchronized BFS within the event budget");
    assert_eq!(run.ordering_violations, 0);
    let dist = metrics::bfs_distances(&graph, NodeId(0));
    for v in graph.nodes() {
        assert_eq!(
            run.outputs[v.index()].expect("every node outputs").distance,
            dist[v.index()].expect("grid is connected") as u64,
            "node {v}"
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode smoke test; debug engines are too slow")]
fn synchronized_bfs_on_64x64_grid_completes_within_event_budget() {
    let graph = Graph::grid(64, 64);
    // The refactored engine processes ~1.12M delivery events on this scenario; a
    // 4M budget leaves headroom for schedule jitter while still catching message
    // blowups and livelocks. The round budget guards the ground-truth run.
    let limits = SimLimits { max_events: 4_000_000, max_rounds: 10_000 };
    let run = Session::on(&graph)
        .delay(DelayModel::jitter(1))
        .synchronizer(SyncKind::DetAuto)
        .limits(limits)
        .run(|v| BfsAlgorithm::new(&graph, v, &[NodeId(0)]))
        .expect("64x64 synchronized BFS within the event budget");
    assert_eq!(run.ordering_violations, 0);
    let dist = metrics::bfs_distances(&graph, NodeId(0));
    for v in graph.nodes() {
        assert_eq!(
            run.outputs[v.index()].expect("every node outputs").distance,
            dist[v.index()].expect("grid is connected") as u64,
            "node {v}"
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode smoke test; debug engines are too slow")]
fn sharded_128x128_grid_reproduces_the_recorded_event_count() {
    // `grid/16384/det/jitter` of the retired E9 matrix: 7,900,379 events in the
    // artifact committed at `326dd8c`, recorded there on the serial wheel.
    let graph = Graph::grid(128, 128);
    let run = Session::on(&graph)
        .delay(DelayModel::jitter(7))
        .synchronizer(SyncKind::DetAuto)
        .scheduler(SchedulerKind::Sharded { shards: 4, workers: 2 })
        .pulse_bound(255)
        .run(|v| BfsAlgorithm::new(&graph, v, &[NodeId(0)]))
        .expect("128x128 sharded synchronized BFS");
    assert_eq!(run.metrics.events, 7_900_379);
}

/// Synchronous BFS from `source` against its closed forms: every node but the
/// source forwards to all neighbours except its parent, so `M = 2m − n + 1`; the
/// farthest nodes hear at round `ecc` and their last forwards land one round
/// later, so the run quiesces at `ecc + 1` (on both graphs below every farthest
/// node has a non-parent neighbour).
fn assert_sync_bfs_closed_forms(graph: &Graph, source: NodeId) {
    let report = run_sync(graph, |v| BfsAlgorithm::new(graph, v, &[source]), 100_000)
        .expect("synchronous BFS quiesces");
    let (n, m) = (graph.node_count() as u64, graph.edge_count() as u64);
    assert_eq!(report.messages, 2 * m - n + 1);
    assert_eq!(report.metrics.total_messages(), report.messages);
    let dist = metrics::bfs_distances(graph, source);
    let ecc = dist.iter().map(|d| d.expect("connected") as u64).max().expect("non-empty");
    assert_eq!(report.rounds_to_output, Some(ecc));
    assert_eq!(report.rounds_to_quiescence, ecc + 1);
    for (v, out) in report.outputs().iter().enumerate() {
        assert_eq!(out.map(|o| o.distance), dist[v].map(|d| d as u64), "node {v}");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode smoke test; debug engines are too slow")]
fn synchronous_bfs_on_256x256_grid_from_a_corner_hits_the_closed_forms() {
    assert_sync_bfs_closed_forms(&Graph::grid(256, 256), NodeId(0));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode smoke test; debug engines are too slow")]
fn synchronous_bfs_on_a_4096_cycle_hits_the_closed_forms() {
    assert_sync_bfs_closed_forms(&Graph::cycle(4096), NodeId(0));
}
