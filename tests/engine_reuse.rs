//! Engine-reuse hygiene: recycled engine state must start every run
//! indistinguishable from cold state — the reset contract of
//! `ds-netsim::recycle`.
//!
//! The recycled entry point promotes the engine's finished-run
//! "every arena handle returned" `debug_assert` into a hard assertion on
//! every run; here the same invariant is additionally *test-visible* through
//! [`EngineSlab::is_clean`], checked back-to-back across reuse, cross-graph
//! adoption and error-run discard.

use det_synchronizer::netsim::protocol::{Ctx, Protocol};
use det_synchronizer::netsim::{
    run_async_faulted, run_async_recycled, AsyncReport, EngineSlab, MessageClass, SlabBank,
};
use det_synchronizer::prelude::*;

/// Multi-wave flood with per-hop payload, owned adjacency (recycled slabs are
/// keyed by message `TypeId`, so protocols own their data).
#[derive(Debug)]
struct Flood {
    neighbors: Vec<NodeId>,
    arrivals: Vec<(NodeId, u64)>,
    waves_left: u64,
}

impl Flood {
    fn new(graph: &Graph, me: NodeId) -> Self {
        Flood { neighbors: graph.neighbors(me).to_vec(), arrivals: Vec::new(), waves_left: 3 }
    }
}

impl Protocol for Flood {
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

fn arrivals(report: &AsyncReport<Flood>) -> Vec<Vec<(NodeId, u64)>> {
    report.nodes.iter().map(|n| n.arrivals.clone()).collect()
}

/// A cold (freshly allocated) run on the serial wheel.
fn cold_run(graph: &Graph, delay: DelayModel, faults: Option<&FaultPlan>) -> AsyncReport<Flood> {
    run_async_faulted(
        graph,
        delay,
        faults,
        |v| Flood::new(graph, v),
        SimLimits::default(),
        SchedulerKind::TimingWheel,
    )
    .expect("cold run")
}

/// Asserts a recycled run equals a cold run on everything but arena capacity.
fn assert_matches_cold(recycled: &AsyncReport<Flood>, cold: &AsyncReport<Flood>, what: &str) {
    assert_eq!(recycled.metrics, cold.metrics, "{what}: metrics");
    assert_eq!(arrivals(recycled), arrivals(cold), "{what}: per-node schedules");
    assert_eq!(recycled.peak_live_handles, cold.peak_live_handles, "{what}: arena high-water");
    assert_eq!(recycled.max_batch, cold.max_batch, "{what}: max due batch");
    // `arena_bytes` is excluded by design: recycled capacity may exceed cold.
}

#[test]
fn recycled_state_starts_every_run_empty_and_matches_cold_runs() {
    let graph = Graph::grid(8, 8);
    let mut slab = EngineSlab::new();
    assert!(slab.is_clean(), "a fresh slab is trivially clean");
    for (round, delay) in
        [DelayModel::jitter(5), DelayModel::uniform(), DelayModel::jitter_at_least(9, 0.5)]
            .into_iter()
            .enumerate()
    {
        let cold = cold_run(&graph, delay.clone(), None);
        let recycled = run_async_recycled(
            &graph,
            delay,
            None,
            |v| Flood::new(&graph, v),
            SimLimits::default(),
            &mut slab,
        )
        .expect("recycled run");
        assert_matches_cold(&recycled, &cold, &format!("round {round}"));
        // The test-visible reset invariant: after every finished run the slab
        // holds no live arena handles and no queued link traffic.
        assert!(slab.is_clean(), "round {round}: slab not clean after a finished run");
        assert_eq!(slab.runs(), round as u64 + 1);
    }
}

#[test]
fn one_slab_serves_different_graphs_back_to_back() {
    // Adoption rewrites the link table for the new topology (growing or
    // shrinking it) — a slab is not pinned to the graph it first ran.
    let graphs = [
        Graph::grid(7, 7),
        Graph::path(9),
        Graph::torus(5, 5),
        Graph::cycle(20),
        Graph::grid(3, 3),
    ];
    let mut slab = EngineSlab::new();
    for (i, graph) in graphs.iter().enumerate() {
        let delay = DelayModel::jitter(3 + i as u64);
        let cold = cold_run(graph, delay.clone(), None);
        let recycled = run_async_recycled(
            graph,
            delay,
            None,
            |v| Flood::new(graph, v),
            SimLimits::default(),
            &mut slab,
        )
        .expect("recycled run");
        assert_matches_cold(&recycled, &cold, &format!("graph {i}"));
        assert!(slab.is_clean(), "graph {i}");
    }
    assert_eq!(slab.runs(), graphs.len() as u64);
}

#[test]
fn faulted_runs_recycle_cleanly_too() {
    // Fault-dropped deliveries still return their arena handles; the reset
    // contract holds for partial runs exactly like for complete ones.
    let graph = Graph::grid(6, 6);
    let plan = FaultPlan::new()
        .node_crash(0, NodeId(0))
        .link_down(0, NodeId(7), NodeId(8))
        .link_up(5000, NodeId(7), NodeId(8));
    let mut slab = EngineSlab::new();
    for round in 0..2 {
        let cold = cold_run(&graph, DelayModel::jitter(4), Some(&plan));
        let recycled = run_async_recycled(
            &graph,
            DelayModel::jitter(4),
            Some(&plan),
            |v| Flood::new(&graph, v),
            SimLimits::default(),
            &mut slab,
        )
        .expect("recycled faulted run");
        assert_matches_cold(&recycled, &cold, &format!("faulted round {round}"));
        assert!(cold.dropped_events > 0, "the plan must actually drop deliveries");
        assert_eq!(recycled.dropped_events, cold.dropped_events);
        assert_eq!(recycled.fault_transitions, cold.fault_transitions);
        assert!(slab.is_clean(), "faulted round {round}");
    }
}

#[test]
fn error_runs_discard_slab_state_without_poisoning_later_runs() {
    let graph = Graph::grid(6, 6);
    let mut slab = EngineSlab::new();
    // A successful run first, so the slab actually holds recycled state.
    run_async_recycled(
        &graph,
        DelayModel::jitter(5),
        None,
        |v| Flood::new(&graph, v),
        SimLimits::default(),
        &mut slab,
    )
    .expect("warmup run");
    assert_eq!(slab.runs(), 1);

    // Starve the event budget mid-run: the engine errors with live handles.
    let starved = SimLimits { max_events: 10, ..SimLimits::default() };
    let err = run_async_recycled(
        &graph,
        DelayModel::jitter(5),
        None,
        |v| Flood::new(&graph, v),
        starved,
        &mut slab,
    );
    assert!(err.is_err(), "the starved budget must abort the run");
    // The slab discarded the aborted engine state wholesale: still clean
    // (degraded to cold capacity), never poisoned, run count unchanged.
    assert!(slab.is_clean(), "an error run must leave the slab clean");
    assert_eq!(slab.runs(), 1, "an aborted run does not count");

    // And the next run through the same slab matches a cold run exactly.
    let cold = cold_run(&graph, DelayModel::jitter(5), None);
    let after = run_async_recycled(
        &graph,
        DelayModel::jitter(5),
        None,
        |v| Flood::new(&graph, v),
        SimLimits::default(),
        &mut slab,
    )
    .expect("post-error run");
    assert_matches_cold(&after, &cold, "post-error");
    assert!(slab.is_clean());
}

#[test]
fn bank_recycles_across_checkouts_and_keeps_slabs_clean() {
    let graph = Graph::grid(5, 5);
    let bank = SlabBank::new();
    let mut last_events = None;
    for round in 0..4 {
        let mut slab = bank.checkout::<u64>();
        let report = run_async_recycled(
            &graph,
            DelayModel::jitter(7),
            None,
            |v| Flood::new(&graph, v),
            SimLimits::default(),
            &mut slab,
        )
        .expect("bank run");
        // check_in asserts cleanliness itself; the explicit check keeps the
        // invariant visible in the test.
        assert!(slab.is_clean(), "round {round}");
        bank.check_in(slab);
        if let Some(events) = last_events {
            assert_eq!(report.metrics.events, events, "round {round}: schedule drifted");
        }
        last_events = Some(report.metrics.events);
    }
    assert_eq!(bank.checkouts(), 4);
    assert_eq!(bank.reuses(), 3, "every checkout after the first reuses the pooled slab");
}
