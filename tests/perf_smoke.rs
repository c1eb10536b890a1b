//! Release-mode scale smoke test: a synchronized BFS on a 64×64 grid (4096 nodes,
//! the E9 headline scenario) must complete — correctly — within an explicit event
//! budget. Ignored under debug builds, where the unoptimized engines are too slow
//! for a smoke test; CI runs `cargo test --release` for this file in `perf-smoke`.

use det_synchronizer::algos::bfs::BfsAlgorithm;
use det_synchronizer::graph::metrics;
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
