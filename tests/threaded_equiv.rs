//! Threaded sharded engine vs. the serial wheel, with worker threads forced
//! on. This is the ThreadSanitizer target of the `analysis` CI job (DESIGN.md
//! §8): the grid workloads here put well over `PARALLEL_TICK_THRESHOLD` due
//! events into their dense ticks, so phase 1 genuinely crosses the
//! worker-pool channel hand-off (every forced run asserts
//! `pool_dispatches > 0`) — including pools smaller than the shard count,
//! where one worker serves several shards per barrier — and TSan watches every
//! access while the assertions pin that the threads changed nothing —
//! schedules, metrics and delivery traces all bit-identical to the serial
//! reference.

use det_synchronizer::netsim::protocol::{Ctx, Protocol};
use det_synchronizer::netsim::{
    run_async_faulted_traced, run_async_sharded_faulted_traced_with, MessageClass, ShardedOptions,
    SimLimits, ThreadMode,
};
use det_synchronizer::prelude::*;
use ds_verify::{check_equivalence, check_trace};

/// Dense flood: every node seeds its neighborhood, so each tick of a 12×12
/// grid carries hundreds of due events — far past the parallel threshold.
#[derive(Debug)]
struct Flood<'g> {
    neighbors: &'g [NodeId],
    arrivals: Vec<(NodeId, u64)>,
    waves_left: u64,
}

impl<'g> Flood<'g> {
    fn new(graph: &'g Graph, me: NodeId) -> Self {
        Flood { neighbors: graph.neighbors(me), arrivals: Vec::new(), waves_left: 4 }
    }
}

impl Protocol for Flood<'_> {
    type Message = u64;

    fn on_start(&mut self, ctx: &mut Ctx<u64>) {
        for (i, &u) in self.neighbors.iter().enumerate() {
            ctx.send_with(u, 1, (i % 3) as u64, MessageClass::Algorithm);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<u64>) {
        self.arrivals.push((from, msg));
        if self.waves_left > 0 {
            self.waves_left -= 1;
            for (i, &u) in self.neighbors.iter().enumerate() {
                ctx.send_with(u, msg + 1, (msg + i as u64) % 4, MessageClass::Algorithm);
            }
        }
    }

    fn is_done(&self) -> bool {
        true
    }
}

fn arrivals(report: &det_synchronizer::netsim::AsyncReport<Flood<'_>>) -> Vec<Vec<(NodeId, u64)>> {
    report.nodes.iter().map(|n| n.arrivals.clone()).collect()
}

#[test]
fn forced_worker_threads_reproduce_the_serial_schedule() {
    let graph = Graph::grid(12, 12);
    // Uniform delays keep each wave on one tick; `bursty(3)` splits it into a
    // 1-tick and a τ-tick part, both still dense. (Jitter spreads a wave over
    // a thousand sparse ticks, none of which reaches the pool.)
    for delay in [DelayModel::uniform(), DelayModel::bursty(3)] {
        let (wheel_report, wheel_trace) = run_async_faulted_traced(
            &graph,
            delay.clone(),
            None,
            |v| Flood::new(&graph, v),
            SimLimits::default(),
            SchedulerKind::TimingWheel,
        )
        .expect("wheel run");
        check_trace(&wheel_trace).expect("wheel trace violates HB");

        for shards in [2usize, 4] {
            for workers in [1usize, 2, 4] {
                let (threaded_report, threaded_trace) = run_async_sharded_faulted_traced_with(
                    &graph,
                    delay.clone(),
                    None,
                    |v| Flood::new(&graph, v),
                    SimLimits::default(),
                    ShardedOptions {
                        workers,
                        threads: ThreadMode::ForceOn,
                        ..ShardedOptions::new(shards)
                    },
                )
                .expect("threaded run");
                assert!(
                    threaded_report.pool_dispatches > 0,
                    "phase 1 must cross threads ({shards} shards, {workers} workers, {delay:?})"
                );
                assert_eq!(
                    threaded_report.metrics, wheel_report.metrics,
                    "metrics diverged ({shards} shards, {workers} workers, {delay:?})"
                );
                assert_eq!(
                    arrivals(&threaded_report),
                    arrivals(&wheel_report),
                    "per-node schedules diverged ({shards} shards, {workers} workers, {delay:?})"
                );
                check_trace(&threaded_trace).expect("threaded trace violates HB");
                check_equivalence(&wheel_trace, &threaded_trace).expect("threaded trace diverged");
            }
        }
    }
}

#[test]
fn forced_and_disabled_threads_trace_identically() {
    // Uniform delays put each pulse wave on one tick, so the forced runs
    // genuinely hand phase 1 to the pool: the threaded trace must equal the
    // coordinator-only one record for record.
    let graph = Graph::grid(12, 12);
    let delay = DelayModel::uniform();
    for shards in [2usize, 4] {
        let run = |threads: ThreadMode, workers: usize| {
            run_async_sharded_faulted_traced_with(
                &graph,
                delay.clone(),
                None,
                |v| Flood::new(&graph, v),
                SimLimits::default(),
                ShardedOptions { workers, threads, ..ShardedOptions::new(shards) },
            )
            .expect("sharded run")
        };
        let (off_report, off_trace) = run(ThreadMode::Off, 0);
        let (on_report, on_trace) = run(ThreadMode::ForceOn, 2);
        assert!(on_report.pool_dispatches > 0, "{shards} shards: the pool never engaged");
        assert_eq!(off_report.pool_dispatches, 0, "{shards} shards");
        assert_eq!(on_report.metrics, off_report.metrics, "{shards} shards");
        assert_eq!(arrivals(&on_report), arrivals(&off_report), "{shards} shards");
        assert_eq!(on_trace, off_trace, "{shards} shards");
        check_trace(&on_trace).expect("threaded trace violates HB");
    }
}
