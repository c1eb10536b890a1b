//! The `Session` matrix: every synchronizer kind (direct, α, β, det) must produce
//! identical outputs on the same workload suite as `tests/applications.rs`, through
//! the exact same `Session::on(..)…run(..)` call path.

use det_synchronizer::algos::bfs::BfsAlgorithm;
use det_synchronizer::algos::flood::FloodAlgorithm;
use det_synchronizer::algos::leader::LeaderElection;
use det_synchronizer::algos::mst::MstAlgorithm;
use det_synchronizer::covers::builder::build_sparse_cover;
use det_synchronizer::graph::metrics;
use det_synchronizer::graph::weights::EdgeWeights;
use det_synchronizer::prelude::*;
use ds_verify::DigestFlood;
use std::sync::Arc;

fn workloads() -> Vec<(&'static str, Graph)> {
    vec![
        ("path", Graph::path(16)),
        ("cycle", Graph::cycle(14)),
        ("grid", Graph::grid(5, 5)),
        ("caterpillar", Graph::caterpillar(6, 2)),
        ("random", Graph::random_connected(28, 0.1, 13)),
        ("clustered-ring", Graph::clustered_ring(4, 4)),
    ]
}

/// Runs `make` under every [`SyncKind`] on `graph` and asserts all four executions
/// produce the direct (lock-step ground truth) outputs.
fn assert_matrix_matches<A, F>(name: &str, graph: &Graph, delay: DelayModel, mut make: F)
where
    A: EventDriven,
    F: FnMut(NodeId) -> A,
{
    let direct = Session::on(graph)
        .synchronizer(SyncKind::Direct)
        .run(&mut make)
        .unwrap_or_else(|e| panic!("{name}/direct: {e}"));
    assert!(
        direct.outputs.iter().all(Option::is_some),
        "{name}: ground truth left nodes without output"
    );
    for kind in SyncKind::standard_suite() {
        let run = Session::on(graph)
            .delay(delay.clone())
            .synchronizer(kind.clone())
            .run(&mut make)
            .unwrap_or_else(|e| panic!("{name}/{}: {e}", kind.label()));
        assert_eq!(
            run.outputs,
            direct.outputs,
            "{name}: {} diverged from the ground truth under {delay:?}",
            kind.label()
        );
        assert_eq!(run.ordering_violations, 0, "{name}/{}", kind.label());
    }
}

#[test]
fn all_synchronizers_agree_on_flooding_across_the_workload_suite() {
    for (name, graph) in workloads() {
        assert_matrix_matches(name, &graph, DelayModel::jitter(29), |v| {
            FloodAlgorithm::new(&graph, v, NodeId(0), 5)
        });
    }
}

#[test]
fn all_synchronizers_agree_on_bfs_across_the_workload_suite() {
    for (name, graph) in workloads() {
        assert_matrix_matches(name, &graph, DelayModel::slow_cut(3), |v| {
            BfsAlgorithm::new(&graph, v, &[NodeId(0), NodeId(5)])
        });
    }
}

/// The digest flood's outputs depend on every message each node received, at
/// which pulse and how often, so a synchronizer that re-delivers, drops or
/// mixes up a pulse's messages diverges here even where BFS and flooding,
/// which stop listening once they decide, stay correct.
#[test]
fn all_synchronizers_agree_on_the_digest_flood() {
    for (name, graph) in workloads() {
        assert_matrix_matches(name, &graph, DelayModel::jitter(23), |v| {
            DigestFlood::new(&graph, v, 12)
        });
    }
}

#[test]
fn all_synchronizers_agree_on_leader_election() {
    let graph = Graph::clustered_ring(4, 4);
    let d = metrics::diameter(&graph).unwrap().max(1);
    let cover = Arc::new(build_sparse_cover(&graph, d));
    assert_matrix_matches("clustered-ring", &graph, DelayModel::bursty(2), |v| {
        LeaderElection::new(v, cover.clone())
    });
}

#[test]
fn all_synchronizers_agree_on_mst() {
    let graph = Graph::random_connected(20, 0.15, 21);
    let weights = EdgeWeights::random_distinct(&graph, 31);
    let d = metrics::diameter(&graph).unwrap().max(1);
    let cover = Arc::new(build_sparse_cover(&graph, d));
    assert_matrix_matches("random", &graph, DelayModel::jitter(4), |v| {
        MstAlgorithm::new(&graph, &weights, v, cover.clone())
    });
}

#[test]
fn all_synchronizers_agree_under_every_adversary() {
    let graph = Graph::grid(4, 4);
    for delay in DelayModel::standard_suite(11) {
        assert_matrix_matches("grid", &graph, delay.clone(), |v| {
            FloodAlgorithm::new(&graph, v, NodeId(0), 7)
        });
    }
}

/// High-degree cluster trees: a star's centre has `n − 1` tree children and every
/// caterpillar spine node nine legs, so per-child registration marks and barrier
/// countdowns must scale past any fixed width. Det must still reproduce the
/// lock-step outputs, on the serial wheel and on the sharded engine.
#[test]
fn det_matches_direct_on_high_degree_cluster_trees() {
    fn check<A: EventDriven>(name: &str, graph: &Graph, mut make: impl FnMut(NodeId) -> A) {
        let direct = Session::on(graph).synchronizer(SyncKind::Direct).run(&mut make).unwrap();
        assert!(direct.outputs.iter().all(Option::is_some), "{name}: no ground truth");
        for scheduler in
            [SchedulerKind::TimingWheel, SchedulerKind::Sharded { shards: 2, workers: 0 }]
        {
            let run = Session::on(graph)
                .delay(DelayModel::jitter(17))
                .scheduler(scheduler)
                .synchronizer(SyncKind::DetAuto)
                .run(&mut make)
                .unwrap_or_else(|e| panic!("{name}/{scheduler:?}: {e}"));
            assert_eq!(run.outputs, direct.outputs, "{name}/{scheduler:?}");
            assert_eq!(run.ordering_violations, 0, "{name}/{scheduler:?}");
        }
    }
    for (name, graph) in [("star", Graph::star(200)), ("caterpillar", Graph::caterpillar(20, 9))] {
        // The last node is a leaf, so the BFS is as deep as the graph allows: 21
        // pulses on the caterpillar (non-base stages, so registrations cross the
        // nine-leg spine nodes); the star only ever reaches the base-stage barriers,
        // whose countdown at the centre starts at 199.
        let source = NodeId(graph.node_count() - 1);
        check(&format!("{name}/bfs"), &graph, |v| BfsAlgorithm::new(&graph, v, &[source]));
        let d = metrics::diameter(&graph).unwrap().max(1);
        let cover = Arc::new(build_sparse_cover(&graph, d));
        check(&format!("{name}/leader"), &graph, |v| LeaderElection::new(v, cover.clone()));
    }
}

/// Regression test for the registration-abstraction deadlock: on deep pulse
/// schedules (T ≈ 15, reached by an 8×8 grid BFS from a corner) a stale Go-Ahead
/// could wipe a re-dirtied cluster-tree edge and stall the far corner forever.
/// Seeds 1 and 2024 reproduced the stall before the fix.
#[test]
fn det_synchronizer_completes_deep_pulse_schedules() {
    let graph = Graph::grid(8, 8);
    for seed in [1, 2024] {
        let report = Session::on(&graph)
            .delay(DelayModel::jitter(seed))
            .synchronizer(SyncKind::DetAuto)
            .compare(|v| BfsAlgorithm::new(&graph, v, &[NodeId(0)]))
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(
            report.outputs_match(),
            "seed {seed}: det synchronizer diverged or stalled on the 8x8 grid"
        );
    }
}
