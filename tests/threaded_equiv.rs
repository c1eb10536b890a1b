//! Worker threads change nothing: dense grid scenarios whose ticks carry far
//! more than `PARALLEL_TICK_THRESHOLD` due events, so every `ThreadMode::ForceOn`
//! row of the engine contract hands phase 1 to the worker pool (each asserts
//! `pool_dispatches > 0`), including pools smaller than the shard count. This
//! is a ThreadSanitizer target of the `analysis` CI job (DESIGN.md §8): TSan
//! watches every cross-thread access while `ds_verify::check` pins that the
//! threaded reports and traces equal the serial ones.

use det_synchronizer::prelude::*;
use ds_verify::{check, Scenario};

#[test]
fn forced_worker_threads_reproduce_the_serial_schedule() {
    // `bursty(3)` splits each wave into a 1-tick and a τ-tick part, both still
    // dense. Jitter spreads a wave over a thousand sparse ticks, none of which
    // reaches the pool; the threaded rows must still agree there.
    let graph = Graph::grid(12, 12);
    check(&Scenario::new(&graph, DelayModel::bursty(3)).chatter(1, 4).reaches_pool());
    check(&Scenario::new(&graph, DelayModel::jitter(3)).chatter(5, 3));
}

#[test]
fn forced_and_disabled_threads_trace_identically() {
    // Uniform delays keep each wave on one tick.
    let graph = Graph::grid(12, 12);
    check(&Scenario::new(&graph, DelayModel::uniform()).chatter(1, 4).reaches_pool());
}

#[test]
fn worker_count_decouples_from_shard_count() {
    // Every forced row spreads its shards over fewer workers (one worker per
    // shard only at k = 1), and its dense waves, every 5th node a source,
    // still reach the pool.
    let graph = Graph::grid(12, 12);
    check(&Scenario::new(&graph, DelayModel::uniform()).chatter(5, 3).reaches_pool());
}
