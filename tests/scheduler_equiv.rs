//! Scheduler equivalence: the timing-wheel scheduler, the binary-heap
//! reference, and the sharded engine must produce **identical** executions on
//! every workload, graph and adversary.
//!
//! Two levels of "identical" are pinned, matching each engine's contract:
//!
//! * **Wheel vs. heap** — the wheel is a pure representation change of the one
//!   global event queue, so even the *global interleaving* of activations must
//!   match event for event (the shared `DeliveryLog` below observes it).
//! * **Sharded vs. wheel** — the shard/merge contract (`ds-netsim::sharded`)
//!   guarantees the *schedule*: every per-node arrival stream, every sequence
//!   draw, every metric is bit-identical, while the intra-tick activation
//!   interleaving **across different nodes** is shard order rather than global
//!   seq order (activations within one tick are causally independent, so no
//!   protocol can tell — except one that shares mutable state between node
//!   instances, which is exactly what the global log does). Sharded runs are
//!   therefore compared on the full per-node view plus byte-identical
//!   `RunMetrics`.
//!
//! Any real divergence (a slot drained out of seq order, a mis-rotated horizon,
//! an overflow entry served late, a cross-shard event merged out of order)
//! shows up in both views as a diff against the wheel.

use det_synchronizer::algos::bfs::BfsAlgorithm;
use det_synchronizer::netsim::protocol::{Ctx, Protocol};
use det_synchronizer::netsim::{
    run_async_faulted, run_async_sharded_faulted_with, AsyncReport, MessageClass, ShardedOptions,
    SimLimits, ThreadMode, TICKS_PER_UNIT,
};
use det_synchronizer::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// The sharded challengers, each compared against the wheel reference run.
/// `shards: 1` pins the degenerate single-shard layout; 2 and 4 exercise
/// cross-shard links on every test graph; 7 shards over 2 pool workers pins a
/// non-dividing shard/worker split (`workers: 0` means one worker per shard).
const SHARDED: [SchedulerKind; 4] = [
    SchedulerKind::Sharded { shards: 1, workers: 0 },
    SchedulerKind::Sharded { shards: 2, workers: 1 },
    SchedulerKind::Sharded { shards: 4, workers: 4 },
    SchedulerKind::Sharded { shards: 7, workers: 2 },
];

/// A shared log of every delivery, in engine order: `(from, to, payload)`.
type DeliveryLog = Rc<RefCell<Vec<(NodeId, NodeId, u64)>>>;

/// A chatty protocol that records both the global delivery order (through the
/// shared log) and its own arrival stream, and keeps traffic flowing for a few
/// waves, with mixed per-message priorities so the per-link stage queues are
/// exercised too.
#[derive(Debug)]
struct Recorder<'g> {
    me: NodeId,
    neighbors: &'g [NodeId],
    log: DeliveryLog,
    arrivals: Vec<(NodeId, u64)>,
    waves_left: u64,
}

impl Protocol for Recorder<'_> {
    type Message = u64;

    fn on_start(&mut self, ctx: &mut Ctx<u64>) {
        if self.me.index().is_multiple_of(7) {
            for (i, &u) in self.neighbors.iter().enumerate() {
                ctx.send_with(u, 1, (i % 3) as u64, MessageClass::Algorithm);
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<u64>) {
        self.log.borrow_mut().push((from, self.me, msg));
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

/// Global delivery interleaving, per-node arrival streams, metrics.
type RecorderView = (Vec<(NodeId, NodeId, u64)>, Vec<Vec<(NodeId, u64)>>, RunMetrics);

fn run_recorder(graph: &Graph, delay: DelayModel, scheduler: SchedulerKind) -> RecorderView {
    // The Recorder's shared `Rc` log is deliberately not `Send`:
    // `run_async_faulted` runs `Sharded` kinds on the coordinator thread
    // (sequentially, same execution), so the global interleaving stays
    // observable; the threaded hand-off is pinned by the `ds-netsim` unit
    // tests and the `Session`-level matrix below.
    let log: DeliveryLog = Rc::new(RefCell::new(Vec::new()));
    let report = run_async_faulted(
        graph,
        delay,
        None,
        |v| Recorder {
            me: v,
            neighbors: graph.neighbors(v),
            log: Rc::clone(&log),
            arrivals: Vec::new(),
            waves_left: 3,
        },
        SimLimits::default(),
        scheduler,
    )
    .expect("recorder run");
    let metrics = report.metrics;
    let arrivals = report.nodes.into_iter().map(|n| n.arrivals).collect();
    (Rc::try_unwrap(log).expect("engine dropped its clones").into_inner(), arrivals, metrics)
}

/// Asserts `got` equals the wheel reference at the level `scheduler`'s contract
/// promises: everything for the heap, everything but the global intra-tick
/// interleaving for the sharded engine.
fn assert_schedule_eq(
    wheel: &RecorderView,
    got: &RecorderView,
    scheduler: SchedulerKind,
    context: &dyn Fn() -> String,
) {
    if matches!(scheduler, SchedulerKind::BinaryHeap) {
        assert_eq!(wheel.0, got.0, "global delivery order diverged ({})", context());
    }
    assert_eq!(wheel.1, got.1, "per-node arrival streams diverged ({})", context());
    assert_eq!(wheel.2, got.2, "metrics diverged ({})", context());
    // Same multiset of deliveries in both logs regardless of engine: the
    // sharded log is a permutation of the wheel's within each tick.
    let sort = |mut v: Vec<(NodeId, NodeId, u64)>| {
        v.sort_unstable();
        v
    };
    assert_eq!(
        sort(wheel.0.clone()),
        sort(got.0.clone()),
        "delivery multiset diverged ({})",
        context()
    );
}

#[test]
fn all_schedulers_produce_identical_schedules_on_random_graphs() {
    // Random graphs × jitter seeds: the externally visible schedule must match
    // event for event.
    for graph_seed in [3u64, 17, 40] {
        let graph = Graph::random_connected(28, 0.12, graph_seed);
        for delay_seed in [1u64, 9, 23] {
            let delay = DelayModel::jitter(delay_seed);
            let wheel = run_recorder(&graph, delay.clone(), SchedulerKind::TimingWheel);
            for scheduler in [SchedulerKind::BinaryHeap].into_iter().chain(SHARDED) {
                let got = run_recorder(&graph, delay.clone(), scheduler);
                assert_schedule_eq(&wheel, &got, scheduler, &|| {
                    format!("{scheduler:?}, graph seed {graph_seed}, delay seed {delay_seed}")
                });
            }
        }
    }
}

#[test]
fn all_schedulers_agree_under_every_standard_adversary() {
    // The composite outage model rides along: it is the only shipped adversary
    // whose multi-τ delays reach the wheel's overflow heap, so it pins the
    // overflow path of the equivalence argument too — for the sharded engine,
    // that each shard's overflow heap drains in the same global order.
    let graph = Graph::random_connected(24, 0.15, 5);
    let mut adversaries = DelayModel::standard_suite(13);
    adversaries.push(DelayModel::outage(13, 5, 2));
    for delay in adversaries {
        let wheel = run_recorder(&graph, delay.clone(), SchedulerKind::TimingWheel);
        for scheduler in [SchedulerKind::BinaryHeap].into_iter().chain(SHARDED) {
            let got = run_recorder(&graph, delay.clone(), scheduler);
            assert_schedule_eq(&wheel, &got, scheduler, &|| format!("{scheduler:?}, {delay:?}"));
        }
    }
}

/// Like [`Recorder`] but without the shared `Rc` log, so it is `Send` and can
/// go through [`run_async_sharded_faulted_with`] — the only public surface that
/// exposes the thread mode. The per-node arrival streams plus byte-identical
/// `RunMetrics` are exactly what the sharded contract promises.
#[derive(Debug)]
struct SendRecorder<'g> {
    me: NodeId,
    neighbors: &'g [NodeId],
    arrivals: Vec<(NodeId, u64)>,
    waves_left: u64,
}

impl Protocol for SendRecorder<'_> {
    type Message = u64;

    fn on_start(&mut self, ctx: &mut Ctx<u64>) {
        if self.me.index().is_multiple_of(7) {
            for (i, &u) in self.neighbors.iter().enumerate() {
                ctx.send_with(u, 1, (i % 3) as u64, MessageClass::Algorithm);
            }
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

impl<'g> SendRecorder<'g> {
    fn new(graph: &'g Graph, v: NodeId) -> Self {
        SendRecorder { me: v, neighbors: graph.neighbors(v), arrivals: Vec::new(), waves_left: 3 }
    }
}

/// Per-node arrival streams, metrics, beyond-horizon event count.
type SendView = (Vec<Vec<(NodeId, u64)>>, RunMetrics, u64);

fn send_view(report: AsyncReport<SendRecorder<'_>>) -> SendView {
    let arrivals = report.nodes.into_iter().map(|n| n.arrivals).collect();
    (arrivals, report.metrics, report.overflow_events)
}

fn run_send(graph: &Graph, delay: &DelayModel, scheduler: SchedulerKind) -> SendView {
    let limits = SimLimits::default();
    let init = |v| SendRecorder::new(graph, v);
    send_view(
        run_async_faulted(graph, delay.clone(), None, init, limits, scheduler)
            .expect("recorder run"),
    )
}

fn run_send_sharded(graph: &Graph, delay: &DelayModel, options: ShardedOptions) -> SendView {
    let limits = SimLimits::default();
    let init = |v| SendRecorder::new(graph, v);
    send_view(
        run_async_sharded_faulted_with(graph, delay.clone(), None, init, limits, options)
            .expect("sharded recorder run"),
    )
}

#[test]
fn sharded_matches_the_wheel_across_shard_counts_and_adversaries() {
    // Through the public sharded entry point (coordinator only), per-node
    // arrival streams, RunMetrics and the overflow count are pinned against
    // the serial wheel across shard counts and adversaries — including the
    // outage model, whose multi-τ delays park events in every shard wheel's
    // overflow heap while idle wheels advance in lock-step.
    let graph = Graph::random_connected(26, 0.14, 11);
    let adversaries = [DelayModel::jitter(7), DelayModel::uniform(), DelayModel::outage(7, 5, 2)];
    for delay in &adversaries {
        let wheel = run_send(&graph, delay, SchedulerKind::TimingWheel);
        for shards in [1usize, 2, 4, 7] {
            let options =
                ShardedOptions { threads: ThreadMode::Off, ..ShardedOptions::new(shards) };
            let got = run_send_sharded(&graph, delay, options);
            assert_eq!(wheel, got, "sharded diverged from the wheel (shards={shards}, {delay:?})");
        }
    }
}

#[test]
fn delays_far_past_the_horizon_agree_on_every_engine() {
    // `outage(7, 100, 70)` delays a message by up to 71 τ, so overflow entries
    // sit dozens of horizons ahead of the clock while in-horizon traffic flows
    // around them: the wheel, the heap reference and the sharded engine
    // (threaded or not) must still agree on every arrival stream and metric,
    // and wheel and sharded on the overflow count.
    let graph = Graph::random_connected(26, 0.14, 11);
    let delay = DelayModel::outage(7, 100, 70);
    let wheel = run_send(&graph, &delay, SchedulerKind::TimingWheel);
    assert!(wheel.2 > 0, "the adversary must reach the overflow heap");
    let heap = run_send(&graph, &delay, SchedulerKind::BinaryHeap);
    assert_eq!((&wheel.0, &wheel.1), (&heap.0, &heap.1), "heap diverged from the wheel");
    for shards in [1usize, 3] {
        for threads in [ThreadMode::Off, ThreadMode::ForceOn] {
            let options = ShardedOptions { threads, ..ShardedOptions::new(shards) };
            let got = run_send_sharded(&graph, &delay, options);
            assert_eq!(wheel, got, "sharded diverged from the wheel ({options:?})");
        }
    }
}

/// Every [`AsyncReport`] field but `pool_dispatches`: the per-node arrival
/// streams, the metrics, and the engine internals (overflow parks, arena
/// watermark and bytes, largest due batch, filed acks) that a layout of its
/// own would move.
type FullView = (SendView, [u64; 7]);

fn full_view(report: AsyncReport<SendRecorder<'_>>) -> FullView {
    let internals = [
        report.peak_live_handles,
        report.arena_bytes,
        report.max_batch,
        report.acks_scheduled,
        report.batched_ticks,
        report.dropped_events,
        report.fault_transitions,
    ];
    (send_view(report), internals)
}

#[test]
fn sharded_reports_equal_the_wheel_in_every_field_but_pool_dispatches() {
    // The sharded engine runs on the serial layout, so its report matches
    // the wheel's field for field — sequential or pooled, with dense ticks
    // (uniform delays on a grid reach the pool), overflow parks (outage)
    // and fault drops on crowded ticks (churn).
    let random = Graph::random_connected(24, 0.15, 5);
    let grid = Graph::grid(16, 16);
    let churn = FaultPlan::random_churn(&grid, 42, 8, 2, 6 * TICKS_PER_UNIT);
    let mut adversaries = DelayModel::standard_suite(13);
    adversaries.push(DelayModel::outage(13, 5, 2));
    // `(graph, delay, faults, dense)`: `dense` cases must reach the pool.
    let mut cases: Vec<(&Graph, DelayModel, Option<&FaultPlan>, bool)> =
        adversaries.into_iter().map(|delay| (&random, delay, None, false)).collect();
    cases.push((&grid, DelayModel::uniform(), None, true));
    cases.push((&grid, DelayModel::uniform(), Some(&churn), true));
    cases.push((&grid, DelayModel::outage(13, 5, 2), None, false));
    let limits = SimLimits::default();
    for (graph, delay, faults, dense) in cases {
        let init = |v| SendRecorder::new(graph, v);
        let wheel = run_async_faulted(
            graph,
            delay.clone(),
            faults,
            init,
            limits,
            SchedulerKind::TimingWheel,
        )
        .expect("wheel run");
        let wheel = full_view(wheel);
        for kind in SHARDED {
            let SchedulerKind::Sharded { shards, workers } = kind else { unreachable!() };
            for threads in [ThreadMode::Off, ThreadMode::ForceOn] {
                let options = ShardedOptions { shards, workers, threads };
                let report = run_async_sharded_faulted_with(
                    graph,
                    delay.clone(),
                    faults,
                    init,
                    limits,
                    options,
                )
                .expect("sharded run");
                let pooled = report.pool_dispatches > 0;
                assert_eq!(
                    wheel,
                    full_view(report),
                    "report diverged ({options:?}, {delay:?}, faults: {})",
                    faults.is_some()
                );
                if dense && threads == ThreadMode::ForceOn && shards > 1 {
                    assert!(pooled, "{options:?}, {delay:?}: the grid's waves must reach the pool");
                }
            }
        }
    }
}

#[test]
fn every_sync_kind_is_scheduler_independent_on_bfs() {
    // Full stack: the synchronizers' executions (outputs *and* byte-identical
    // RunMetrics) must not depend on the scheduler choice. The `Sharded` kinds
    // here go through `Session::run` → `run_async_sharded_faulted_with`, which engages worker threads when the
    // host has spare cores — on multi-core CI this pins the cross-thread
    // hand-off end to end.
    let graph = Graph::grid(5, 5);
    for kind in SyncKind::standard_suite() {
        for delay_seed in [2u64, 31] {
            let run = |scheduler: SchedulerKind| {
                Session::on(&graph)
                    .delay(DelayModel::jitter(delay_seed))
                    .synchronizer(kind.clone())
                    .scheduler(scheduler)
                    .run(|v| BfsAlgorithm::new(&graph, v, &[NodeId(0), NodeId(12)]))
                    .unwrap_or_else(|e| panic!("{}: {e}", kind.label()))
            };
            let wheel = run(SchedulerKind::TimingWheel);
            for scheduler in [SchedulerKind::BinaryHeap].into_iter().chain(SHARDED) {
                let got = run(scheduler);
                assert_eq!(
                    wheel.outputs,
                    got.outputs,
                    "{} outputs diverged ({scheduler:?})",
                    kind.label()
                );
                assert_eq!(
                    wheel.metrics,
                    got.metrics,
                    "{} metrics diverged ({scheduler:?})",
                    kind.label()
                );
                assert_eq!(wheel.ordering_violations, got.ordering_violations);
            }
        }
    }
}
