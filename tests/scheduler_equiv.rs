//! Scheduler equivalence: the timing wheel, the heap reference, the sharded
//! engine and the recycled engine run one schedule on random graphs and
//! grids under every adversary, with and without faults.
//!
//! Each test is a scenario table over `ds_verify::check`, which runs every
//! scenario on every engine configuration of `ds_verify::rows` and asserts
//! the whole engine contract: per-node arrivals, metrics and report fields,
//! verified and equal traces, and the scenario's non-vacuity flags.

use det_synchronizer::algos::bfs::BfsAlgorithm;
use det_synchronizer::netsim::TICKS_PER_UNIT;
use det_synchronizer::prelude::*;
use ds_verify::{check, Scenario};

mod common;
use common::check_sessions;

#[test]
fn all_schedulers_produce_identical_schedules_on_random_graphs() {
    for graph_seed in [3u64, 17, 40] {
        let graph = Graph::random_connected(28, 0.12, graph_seed);
        for delay_seed in [1u64, 9, 23] {
            check(&Scenario::new(&graph, DelayModel::jitter(delay_seed)));
        }
    }
}

#[test]
fn all_schedulers_agree_under_every_standard_adversary() {
    let graph = Graph::random_connected(24, 0.15, 5);
    for delay in DelayModel::standard_suite(13) {
        check(&Scenario::new(&graph, delay));
    }
}

#[test]
fn delays_far_past_the_horizon_agree_on_every_engine() {
    // `outage(7, 100, 70)` delays a message by up to 71 τ, so overflow entries
    // sit dozens of horizons ahead of the clock while in-horizon traffic flows
    // around them; and on a grid, parks two horizons out.
    let graph = Graph::random_connected(26, 0.14, 11);
    check(&Scenario::new(&graph, DelayModel::outage(7, 100, 70)).reaches_overflow());
    let grid = Graph::grid(16, 16);
    check(&Scenario::new(&grid, DelayModel::outage(13, 5, 2)).reaches_overflow());
}

#[test]
fn sharded_matches_the_wheel_across_shard_counts_and_adversaries() {
    // Every adversary, the outage model's overflow parks included, with every
    // 5th node a source, and three of them with every 7th; then a small grid.
    let graph = Graph::random_connected(26, 0.14, 11);
    for delay in DelayModel::standard_suite(7) {
        check(&Scenario::new(&graph, delay).chatter(5, 3));
    }
    for stride in [5, 7] {
        let outage = DelayModel::outage(7, 5, 2);
        check(&Scenario::new(&graph, outage).chatter(stride, 3).reaches_overflow());
    }
    for delay in [DelayModel::jitter(7), DelayModel::uniform()] {
        check(&Scenario::new(&graph, delay));
    }
    let grid = Graph::grid(4, 5);
    check(&Scenario::new(&grid, DelayModel::jitter(9)).chatter(5, 3));
}

#[test]
fn churn_with_a_crash_and_recovery_agrees_on_every_engine() {
    // Link episodes plus a mid-run crash and recovery, under every delay
    // family that places them differently.
    let graph = Graph::random_connected(26, 0.14, 11);
    let churn = FaultPlan::random_churn(&graph, 42, 6, 2, 5 * TICKS_PER_UNIT)
        .node_crash(TICKS_PER_UNIT / 2, NodeId(5))
        .node_recover(3 * TICKS_PER_UNIT, NodeId(5));
    for delay in [DelayModel::uniform(), DelayModel::jitter(3), DelayModel::outage(7, 5, 2)] {
        check(&Scenario::new(&graph, delay).faults(&churn).chatter(5, 3));
    }
}

#[test]
fn sharded_reports_equal_the_wheel_in_every_field_but_pool_dispatches() {
    // Dense ticks: uniform waves on a grid reach the pool.
    let grid = Graph::grid(16, 16);
    check(&Scenario::new(&grid, DelayModel::uniform()).reaches_pool());
}

#[test]
fn fault_drops_on_crowded_ticks_agree_on_every_engine() {
    // Churn on a grid whose uniform waves reach the pool: drops happen on the
    // dense path's bucketing and replay.
    let grid = Graph::grid(16, 16);
    let churn = FaultPlan::random_churn(&grid, 42, 8, 2, 6 * TICKS_PER_UNIT);
    check(&Scenario::new(&grid, DelayModel::uniform()).faults(&churn).reaches_pool());
}

#[test]
fn every_sync_kind_is_scheduler_independent_on_bfs() {
    // Full stack: the synchronizers' outputs and metrics must not depend on
    // the engine row. One BFS source in the far corner gives the deepest
    // pulse schedule a 5×5 grid has.
    let graph = Graph::grid(5, 5);
    for seed in [2, 31] {
        check_sessions(&graph, DelayModel::jitter(seed), |v| {
            BfsAlgorithm::new(&graph, v, &[NodeId(24)])
        });
    }
}
