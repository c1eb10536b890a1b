//! Release-mode scale smoke test: a synchronized BFS on a 64×64 grid (4096 nodes,
//! the E9 headline scenario) must complete — correctly — within an explicit event
//! budget, the det synchronizer's per-node state must stay within a memory
//! budget, and the synchronous engine's BFS on a 65,536-node grid and a
//! 4,096-node cycle must hit its closed forms. Ignored under debug builds, where
//! the unoptimized engines are too slow for a smoke test; CI runs
//! `cargo test --release` for this file in `perf-smoke`.

use det_synchronizer::algos::bfs::BfsAlgorithm;
use det_synchronizer::graph::metrics;
use det_synchronizer::netsim::sync_engine::run_sync;
use det_synchronizer::netsim::{run, AsyncReport, RunSpec};
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

/// A det BFS from node 0 under `delay` at the pulse bound `T(A)`; under
/// uniform delays on grid 64² it is `det_grid_deep`'s request.
fn det_bfs(graph: &Graph, delay: DelayModel) -> AsyncReport<DetSynchronizer<BfsAlgorithm<'_>>> {
    let bfs = |v| BfsAlgorithm::new(graph, v, &[NodeId(0)]);
    let t = run_sync(graph, bfs, 100_000).expect("synchronous BFS").rounds_to_quiescence;
    let cfg = SynchronizerConfig::build(graph, t.max(1));
    let limits = SimLimits { max_events: 4_000_000, max_rounds: 10_000 };
    let make = |v| DetSynchronizer::new(v, bfs(v), cfg.clone());
    let (report, _) =
        run(graph, &RunSpec { limits, ..RunSpec::new(delay) }, make, None).expect("det BFS");
    assert!(report.nodes.iter().all(|n| n.algorithm().output().is_some()), "every node outputs");
    report
}

/// Bytes of det synchronizer state (`DetSynchronizer::state_bytes`, buffer
/// capacities included) summed over all nodes after [`det_bfs`] under
/// uniform delays.
fn det_bfs_state_bytes(graph: &Graph) -> usize {
    let report = det_bfs(graph, DelayModel::uniform());
    report.nodes.iter().map(DetSynchronizer::state_bytes).sum()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode smoke test; debug engines are too slow")]
fn det_state_stays_within_its_memory_budget() {
    // Budgets are the measured sums + 5 %: 14,349,824 B on grid 64² (T = 127)
    // and 8,299,680 B on cycle 1,024 (T = 513), against 18,950,176 B and
    // 10,502,304 B with a byte per pulse per pulse set and a 32-item work
    // queue per node. The state is deterministic; a failure here means a
    // field grew, not noise.
    for (name, graph, budget) in [
        ("grid 64²", Graph::grid(64, 64), 15_067_316),
        ("cycle 1,024", Graph::cycle(1_024), 8_714_664),
    ] {
        let bytes = det_bfs_state_bytes(&graph);
        assert!(bytes <= budget, "{name}: det state is {bytes} B, over its {budget} B budget");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode smoke test; debug engines are too slow")]
fn acks_become_events_only_behind_a_waiting_message() {
    // Every delivery draws an ack, but only the acks that find a message
    // queued on their link when they fire are filed as events. The counts
    // equal those of an instrumented copy of the engine that filed every ack
    // and counted, when each fired, whether its link queue was non-empty;
    // a change that files idle acks again moves them.
    for (name, graph, delay, events, scheduled) in [
        ("grid 64² uniform", Graph::grid(64, 64), DelayModel::uniform(), 1_119_962, 18_748),
        ("grid 48² jitter 1", Graph::grid(48, 48), DelayModel::jitter(1), 465_156, 50_670),
    ] {
        let report = det_bfs(&graph, delay);
        let m = &report.metrics;
        assert_eq!((m.events, m.acks), (events, events), "{name}: the schedule moved");
        assert_eq!(report.acks_scheduled, scheduled, "{name}");
    }
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
