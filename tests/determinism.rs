//! The engine contract at the `Session` level: every `SyncKind` over every
//! engine configuration of `ds_verify::rows`, selected through
//! `Session::{scheduler, recycle, record_trace}`, produces the same outputs,
//! metrics and engine counters as the plain wheel run, and every traced run's
//! trace verifies and equals the first one record for record. The rows
//! include the wheel run twice, so this is also the run-to-run determinism
//! check: any hidden dependence on map iteration order, allocation state or
//! thread interleaving shows up as drift. (`Session` picks the thread mode
//! itself: a row's `ThreadMode` is the engine-level test's business.) The
//! loop is `tests/common/mod.rs`'s `check_sessions`.

use det_synchronizer::algos::bfs::BfsAlgorithm;
use det_synchronizer::algos::flood::FloodAlgorithm;
use det_synchronizer::prelude::*;

mod common;
use common::check_sessions;

#[test]
fn every_sync_kind_is_deterministic_on_bfs() {
    let graph = Graph::grid(5, 5);
    for delay in DelayModel::standard_suite(23) {
        check_sessions(&graph, delay, |v| BfsAlgorithm::new(&graph, v, &[NodeId(0), NodeId(13)]));
    }
}

#[test]
fn every_sync_kind_is_deterministic_on_flooding() {
    let graph = Graph::random_connected(24, 0.12, 7);
    check_sessions(&graph, DelayModel::jitter(41), |v| {
        FloodAlgorithm::new(&graph, v, NodeId(0), 9)
    });
}

#[test]
fn sharded_runs_are_deterministic_and_shard_count_independent() {
    // The seeded members of `DelayModel::standard_suite(17)` (the others are
    // the bfs test's) and the outage model, whose multi-τ delays park events
    // in the overflow heap.
    let graph = Graph::grid(5, 5);
    let seeded = [DelayModel::jitter(17), DelayModel::jitter_at_least(18, 0.5)];
    for delay in seeded.into_iter().chain([DelayModel::outage(17, 5, 2)]) {
        check_sessions(&graph, delay, |v| BfsAlgorithm::new(&graph, v, &[NodeId(0), NodeId(13)]));
    }
}
