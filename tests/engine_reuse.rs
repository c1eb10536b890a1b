//! Engine-reuse hygiene: recycled engine state must start every run
//! indistinguishable from cold state — the reset contract of
//! `ds-netsim::recycle`.
//!
//! The equivalence tests are scenario tables over `ds_verify::check`, whose
//! cold-slab row runs a fresh `EngineSlab` and whose warm-slab row runs one
//! that has already served the scenario and a denser run on another graph
//! (both asserting `EngineSlab::is_clean` after). The rest pin the specific
//! failures: an aborted run's slab discard and the bank's pooling.

use det_synchronizer::netsim::{run_async_recycled, AsyncReport, EngineSlab, SimError, SlabBank};
use det_synchronizer::prelude::*;
use ds_verify::{check, Chatter, Scenario};

#[test]
fn recycled_state_starts_every_run_empty_and_matches_cold_runs() {
    // Every node a source, three delay models.
    let graph = Graph::grid(8, 8);
    for delay in [DelayModel::jitter(5), DelayModel::uniform(), DelayModel::jitter_at_least(9, 0.5)]
    {
        check(&Scenario::new(&graph, delay).chatter(1, 3));
    }
}

#[test]
fn single_source_floods_recycle_like_cold_runs() {
    // Node 0 the only source, every node echoing once: a plain flood under
    // every standard adversary.
    for graph in [Graph::grid(6, 6), Graph::cycle(17), Graph::grid(3, 9)] {
        for delay in DelayModel::standard_suite(7) {
            check(&Scenario::new(&graph, delay).chatter(usize::MAX, 1));
        }
    }
}

#[test]
fn one_slab_serves_different_graphs_back_to_back() {
    // Adoption rewrites the link table for the new topology, growing or
    // shrinking it: the warm slab's earlier run is on K₁₆.
    let graphs = [
        Graph::grid(7, 7),
        Graph::path(9),
        Graph::torus(5, 5),
        Graph::cycle(20),
        Graph::grid(3, 3),
    ];
    for (i, graph) in graphs.iter().enumerate() {
        check(&Scenario::new(graph, DelayModel::jitter(3 + i as u64)).chatter(1, 3));
    }
}

#[test]
fn faulted_runs_recycle_cleanly_too() {
    // Fault-dropped deliveries still return their arena handles.
    let graph = Graph::grid(6, 6);
    let plan = FaultPlan::new()
        .node_crash(0, NodeId(0))
        .link_down(0, NodeId(7), NodeId(8))
        .link_up(5000, NodeId(7), NodeId(8));
    check(&Scenario::new(&graph, DelayModel::jitter(4)).faults(&plan).chatter(1, 3));
}

fn recycled<'g>(
    graph: &'g Graph,
    limits: SimLimits,
    slab: &mut EngineSlab<u64>,
) -> Result<AsyncReport<Chatter<'g>>, SimError> {
    let delay = DelayModel::jitter(5);
    run_async_recycled(graph, delay, None, |v| Chatter::new(graph, v, 1, 3), limits, slab)
}

#[test]
fn error_runs_discard_slab_state_without_poisoning_later_runs() {
    let graph = Graph::grid(6, 6);
    let mut slab = EngineSlab::new();
    // A successful run first, so the slab actually holds recycled state.
    let warm = recycled(&graph, SimLimits::default(), &mut slab).expect("warmup run");
    assert_eq!(slab.runs(), 1);

    // Starve the event budget mid-run: the engine errors with live handles.
    let starved = SimLimits { max_events: 10, ..SimLimits::default() };
    assert!(recycled(&graph, starved, &mut slab).is_err(), "the starved budget must abort");
    // The slab discarded the aborted engine state wholesale: still clean
    // (degraded to cold capacity), never poisoned, run count unchanged.
    assert!(slab.is_clean(), "an error run must leave the slab clean");
    assert_eq!(slab.runs(), 1, "an aborted run does not count");

    // And the next run through the same slab matches the first exactly.
    let after = recycled(&graph, SimLimits::default(), &mut slab).expect("post-error run");
    assert_eq!(after.metrics, warm.metrics);
    let arrivals = |r: &AsyncReport<Chatter>| -> Vec<Vec<(NodeId, u64)>> {
        r.nodes.iter().map(|c| c.arrivals().to_vec()).collect()
    };
    assert_eq!(arrivals(&after), arrivals(&warm));
    assert_eq!(after.peak_live_handles, warm.peak_live_handles);
    assert!(slab.is_clean());
}

#[test]
fn bank_recycles_across_checkouts_and_keeps_slabs_clean() {
    let graph = Graph::grid(5, 5);
    let bank = SlabBank::new();
    let mut last_events = None;
    for round in 0..4 {
        let mut slab = bank.checkout::<u64>();
        let report = recycled(&graph, SimLimits::default(), &mut slab).expect("bank run");
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
