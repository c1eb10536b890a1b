//! The happens-before contract across random graphs and adversaries, through
//! `Session`, and on the paths that are easiest to get wrong: overflow parks
//! and tracing itself. `ds_verify::check` runs
//! `ds_verify::check_trace` on every traced engine row (seq/tick
//! monotonicity, the one-tick minimum delay on every cause edge, shard
//! consistency, vector-clock incomparability of same-tick cross-shard
//! deliveries) and `ds_verify::check_equivalence` between them, and compares
//! traced rows' reports with the untraced wheel's; every other scenario table
//! over `check` (`tests/scheduler_equiv.rs` and the rest) gets the same.

use det_synchronizer::algos::bfs::BfsAlgorithm;
use det_synchronizer::prelude::*;
use ds_verify::{check, Scenario};

mod common;
use common::check_sessions;

#[test]
fn hb_holds_across_random_graphs_and_jitter_seeds() {
    // `scheduler_equiv`'s random-graph table with every 5th node a source:
    // more same-tick deliveries for the cross-shard incomparability clause.
    for graph_seed in [3u64, 17, 40] {
        let graph = Graph::random_connected(28, 0.12, graph_seed);
        for delay_seed in [1u64, 9, 23] {
            check(&Scenario::new(&graph, DelayModel::jitter(delay_seed)).chatter(5, 3));
        }
    }
}

#[test]
fn hb_holds_under_every_standard_adversary() {
    let graph = Graph::random_connected(24, 0.15, 5);
    for delay in DelayModel::standard_suite(13) {
        check(&Scenario::new(&graph, delay).chatter(5, 3));
    }
    check(&Scenario::new(&graph, DelayModel::outage(13, 5, 2)).chatter(5, 3).reaches_overflow());
}

#[test]
fn overflow_parked_events_keep_the_hb_contract() {
    // The outage adversary's multi-τ delays exceed the wheel horizon (one τ)
    // by design, so events park in the overflow heap and re-enter the wheel
    // in seq order; the traces must not show it.
    let graph = Graph::random_connected(24, 0.15, 5);
    check(&Scenario::new(&graph, DelayModel::outage(13, 5, 2)).reaches_overflow());
}

#[test]
fn tracing_is_zero_overhead_when_off() {
    // Traced and untraced rows alternate over the shard counts: tracing must
    // not draw a sequence number or perturb a queue on any engine.
    let graph = Graph::random_connected(26, 0.14, 11);
    check(&Scenario::new(&graph, DelayModel::jitter(8)));
    let graph = Graph::random_connected(22, 0.16, 19);
    check(&Scenario::new(&graph, DelayModel::jitter(4)).chatter(5, 3));
}

#[test]
fn every_sync_kind_produces_a_clean_trace_through_session() {
    // Full stack: Session → protocols → engines. Every traced row's trace
    // verifies and equals the first; tracing changes no output or metric.
    let graph = Graph::grid(5, 5);
    for seed in [2, 31] {
        check_sessions(&graph, DelayModel::jitter(seed), |v| {
            BfsAlgorithm::new(&graph, v, &[NodeId(0), NodeId(12)])
        });
    }
}
