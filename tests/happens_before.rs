//! The happens-before checker over the scheduler-equivalence matrix: every
//! scenario `tests/scheduler_equiv.rs` pins by example is re-run here with
//! delivery tracing on, and the recorded trace is *verified* against the
//! ordering model of the shard/merge contract (DESIGN.md §6 and §8):
//!
//! * `ds_verify::check_trace` — seq/tick monotonicity, the one-tick minimum
//!   delay on every cause edge, shard consistency, and vector-clock
//!   incomparability of same-tick cross-shard deliveries (no cross-shard
//!   order is forced by anything but `seq`);
//! * `ds_verify::check_equivalence` — the serial and sharded traces of one
//!   scenario agree record for record on everything but the shard assignment;
//! * zero overhead when off — a traced run's report is bit-identical to the
//!   untraced run's.

use det_synchronizer::algos::bfs::BfsAlgorithm;
use det_synchronizer::netsim::protocol::{Ctx, Protocol};
use det_synchronizer::netsim::{
    run_async_faulted, run_async_faulted_traced, MessageClass, SimLimits,
};
use det_synchronizer::prelude::*;
use ds_verify::{check_equivalence, check_trace};

/// The sharded challengers: degenerate single shard, real cross-shard
/// layouts, and a non-dividing shard/worker split (`workers: 0` means one
/// pool worker per shard).
const SHARDED: [SchedulerKind; 4] = [
    SchedulerKind::Sharded { shards: 1, workers: 0 },
    SchedulerKind::Sharded { shards: 2, workers: 1 },
    SchedulerKind::Sharded { shards: 4, workers: 4 },
    SchedulerKind::Sharded { shards: 7, workers: 2 },
];

/// Chatty flood keeping several waves of traffic flowing with mixed per-link
/// priorities — the same workload shape the equivalence suite uses.
#[derive(Debug)]
struct Chatter<'g> {
    me: NodeId,
    neighbors: &'g [NodeId],
    arrivals: Vec<(NodeId, u64)>,
    waves_left: u64,
}

impl<'g> Chatter<'g> {
    fn new(graph: &'g Graph, me: NodeId) -> Self {
        Chatter { me, neighbors: graph.neighbors(me), arrivals: Vec::new(), waves_left: 3 }
    }
}

impl Protocol for Chatter<'_> {
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

/// Runs the scenario traced on the wheel and on every sharded layout,
/// verifies each trace, verifies serial/sharded trace agreement, and returns
/// the serial record count (so callers can assert the scenario was
/// non-trivial).
fn verify_scenario(graph: &Graph, delay: &DelayModel, context: &str) -> usize {
    let (wheel_report, wheel_trace) = run_async_faulted_traced(
        graph,
        delay.clone(),
        None,
        |v| Chatter::new(graph, v),
        SimLimits::default(),
        SchedulerKind::TimingWheel,
    )
    .unwrap_or_else(|e| panic!("wheel run failed ({context}): {e}"));
    let report = check_trace(&wheel_trace).unwrap_or_else(|violations| {
        panic!("wheel trace violates HB ({context}):\n{}", render(&violations))
    });
    assert_eq!(report.records, wheel_trace.records.len());

    for scheduler in SHARDED {
        let (sharded_report, sharded_trace) = run_async_faulted_traced(
            graph,
            delay.clone(),
            None,
            |v| Chatter::new(graph, v),
            SimLimits::default(),
            scheduler,
        )
        .unwrap_or_else(|e| panic!("{scheduler:?} run failed ({context}): {e}"));
        check_trace(&sharded_trace).unwrap_or_else(|violations| {
            panic!("{scheduler:?} trace violates HB ({context}):\n{}", render(&violations))
        });
        check_equivalence(&wheel_trace, &sharded_trace).unwrap_or_else(|violations| {
            panic!(
                "{scheduler:?} trace diverged from the wheel ({context}):\n{}",
                render(&violations)
            )
        });
        assert_eq!(
            sharded_report.metrics, wheel_report.metrics,
            "metrics diverged ({scheduler:?}, {context})"
        );
    }
    wheel_trace.records.len()
}

fn render(violations: &[ds_verify::HbViolation]) -> String {
    violations.iter().map(|v| format!("  {v}")).collect::<Vec<_>>().join("\n")
}

#[test]
fn hb_holds_across_random_graphs_and_jitter_seeds() {
    for graph_seed in [3u64, 17, 40] {
        let graph = Graph::random_connected(28, 0.12, graph_seed);
        for delay_seed in [1u64, 9, 23] {
            let records = verify_scenario(
                &graph,
                &DelayModel::jitter(delay_seed),
                &format!("graph seed {graph_seed}, delay seed {delay_seed}"),
            );
            assert!(records > 0, "scenario delivered nothing");
        }
    }
}

#[test]
fn hb_holds_under_every_standard_adversary() {
    let graph = Graph::random_connected(24, 0.15, 5);
    let mut adversaries = DelayModel::standard_suite(13);
    adversaries.push(DelayModel::outage(13, 5, 2));
    for delay in adversaries {
        verify_scenario(&graph, &delay, &format!("{delay:?}"));
    }
}

#[test]
fn overflow_parked_events_keep_the_hb_contract() {
    // The outage adversary's multi-τ delays exceed the wheel horizon
    // (`max_delay_ticks` = one τ) by design, so events provably park in the
    // overflow heap — `overflow_events` counts them. The HB contract must
    // survive the park-and-replay path on every engine: overflow entries
    // re-enter the wheel in seq order, and the trace must not show it.
    let graph = Graph::random_connected(24, 0.15, 5);
    let delay = DelayModel::outage(13, 5, 2);
    let (report, trace) = run_async_faulted_traced(
        &graph,
        delay.clone(),
        None,
        |v| Chatter::new(&graph, v),
        SimLimits::default(),
        SchedulerKind::TimingWheel,
    )
    .expect("outage wheel run");
    assert!(
        report.overflow_events > 0,
        "outage adversary failed to reach the overflow heap — the scenario proves nothing"
    );
    check_trace(&trace).expect("overflow path broke the HB contract on the wheel");

    for scheduler in SHARDED {
        let (sharded_report, sharded_trace) = run_async_faulted_traced(
            &graph,
            delay.clone(),
            None,
            |v| Chatter::new(&graph, v),
            SimLimits::default(),
            scheduler,
        )
        .expect("outage sharded run");
        assert!(sharded_report.overflow_events > 0, "sharded overflow heaps unused");
        assert_eq!(sharded_report.overflow_events, report.overflow_events);
        check_trace(&sharded_trace)
            .expect("overflow path broke the HB contract on the sharded engine");
        check_equivalence(&trace, &sharded_trace).expect("overflow traces diverged");
    }
}

#[test]
fn tracing_is_zero_overhead_when_off() {
    // Bit-identity of the *report* between a traced and an untraced run, on
    // both engines: tracing must not draw a sequence number or perturb a
    // queue. (The netsim unit tests additionally pin per-node arrivals.)
    let graph = Graph::random_connected(26, 0.14, 11);
    let delay = DelayModel::jitter(8);
    for scheduler in
        [SchedulerKind::TimingWheel, SchedulerKind::BinaryHeap].into_iter().chain(SHARDED)
    {
        let untraced = run_async_faulted(
            &graph,
            delay.clone(),
            None,
            |v| Chatter::new(&graph, v),
            SimLimits::default(),
            scheduler,
        )
        .expect("untraced run");
        let (traced, trace) = run_async_faulted_traced(
            &graph,
            delay.clone(),
            None,
            |v| Chatter::new(&graph, v),
            SimLimits::default(),
            scheduler,
        )
        .expect("traced run");
        assert_eq!(traced.metrics, untraced.metrics, "{scheduler:?} metrics diverged");
        assert_eq!(traced.overflow_events, untraced.overflow_events);
        assert_eq!(traced.pool_dispatches, untraced.pool_dispatches);
        let arrivals =
            |r: &det_synchronizer::netsim::AsyncReport<Chatter<'_>>| -> Vec<Vec<(NodeId, u64)>> {
                r.nodes.iter().map(|n| n.arrivals.clone()).collect()
            };
        assert_eq!(arrivals(&traced), arrivals(&untraced), "{scheduler:?} schedules diverged");
        assert_eq!(trace.records.len() as u64, traced.metrics.events);
    }
}

#[test]
fn every_sync_kind_produces_a_clean_trace_through_session() {
    // Full stack: Session → protocols → engines, every synchronizer × jitter
    // seed × scheduler. The recorded traces must verify and agree across
    // schedulers, and requesting a trace must not change outputs or metrics.
    let graph = Graph::grid(5, 5);
    for kind in SyncKind::standard_suite() {
        if matches!(kind, SyncKind::Direct) {
            continue; // lock-step execution has no deliveries to trace
        }
        for delay_seed in [2u64, 31] {
            let run = |scheduler: SchedulerKind, trace: bool| {
                Session::on(&graph)
                    .delay(DelayModel::jitter(delay_seed))
                    .synchronizer(kind.clone())
                    .scheduler(scheduler)
                    .record_trace(trace)
                    .run(|v| BfsAlgorithm::new(&graph, v, &[NodeId(0), NodeId(12)]))
                    .unwrap_or_else(|e| panic!("{}: {e}", kind.label()))
            };
            let plain = run(SchedulerKind::TimingWheel, false);
            assert!(plain.trace.is_none());
            let wheel = run(SchedulerKind::TimingWheel, true);
            assert_eq!(wheel.outputs, plain.outputs, "{} trace changed outputs", kind.label());
            assert_eq!(wheel.metrics, plain.metrics, "{} trace changed metrics", kind.label());
            let wheel_trace = wheel.trace.expect("trace requested");
            check_trace(&wheel_trace).unwrap_or_else(|v| {
                panic!("{} wheel trace violates HB:\n{}", kind.label(), render(&v))
            });
            for scheduler in SHARDED {
                let got = run(scheduler, true);
                assert_eq!(got.outputs, wheel.outputs);
                assert_eq!(got.metrics, wheel.metrics);
                let got_trace = got.trace.expect("trace requested");
                check_trace(&got_trace).unwrap_or_else(|v| {
                    panic!("{} {scheduler:?} trace violates HB:\n{}", kind.label(), render(&v))
                });
                check_equivalence(&wheel_trace, &got_trace).unwrap_or_else(|v| {
                    panic!("{} {scheduler:?} trace diverged:\n{}", kind.label(), render(&v))
                });
            }
        }
    }
}
