//! Pooled determinism: every [`Session`] dispatched through a
//! [`SessionPool`] is bit-identical to the same session's own `run` — the
//! service layer's headline guarantee.
//!
//! The matrix mixes graphs, delay adversaries, synchronizer kinds (direct, α,
//! β, det with and without a shared config), schedulers (serial wheel and
//! sharded), fault plans and a traced request, and checks every comparable
//! field of [`SynchronizedRun`]. The single deliberate exclusion is
//! `arena_bytes`: a recycled payload arena may carry more *capacity* than a
//! cold run ever allocated, and capacity is an engine internal that never
//! influences a schedule (like `AsyncReport::overflow_events`).

use det_synchronizer::algos::bfs::{BfsAlgorithm, BfsOutput};
use det_synchronizer::netsim::PulseCtx;
use det_synchronizer::prelude::*;
use det_synchronizer::sync::service::SessionPool;

/// Runs one request standalone — the reference execution.
fn run_standalone(req: &Session<'_>) -> SynchronizedRun<BfsOutput> {
    req.run(|v| BfsAlgorithm::new(req.graph(), v, &[NodeId(0)])).expect("standalone run")
}

/// Asserts a pooled result equals its standalone reference on every field a
/// schedule determines. `arena_bytes` is excluded — see the module docs.
fn assert_bit_identical<O: std::fmt::Debug + PartialEq>(
    pooled: &SynchronizedRun<O>,
    solo: &SynchronizedRun<O>,
    what: &str,
) {
    assert_eq!(pooled.outputs, solo.outputs, "{what}: outputs");
    assert_eq!(pooled.metrics, solo.metrics, "{what}: metrics");
    assert_eq!(pooled.ordering_violations, solo.ordering_violations, "{what}: violations");
    assert_eq!(pooled.dropped_events, solo.dropped_events, "{what}: dropped events");
    assert_eq!(pooled.fault_transitions, solo.fault_transitions, "{what}: fault transitions");
    assert_eq!(pooled.health, solo.health, "{what}: health");
    assert_eq!(pooled.peak_live_handles, solo.peak_live_handles, "{what}: arena high-water");
    assert_eq!(pooled.max_batch, solo.max_batch, "{what}: max due batch");
}

#[test]
fn mixed_matrix_is_bit_identical_across_worker_counts() {
    let grid = Graph::grid(6, 6);
    let torus = Graph::torus(4, 4);
    let rr = Graph::random_regular(48, 4, 9);
    let path = Graph::path(12);
    let shared_cfg = SynchronizerConfig::build(&grid, 12);
    let crash_plan = FaultPlan::new().node_crash(0, NodeId(0));
    let churn_plan =
        FaultPlan::new().link_down(0, NodeId(3), NodeId(4)).link_up(4000, NodeId(3), NodeId(4));

    let requests: Vec<Session<'_>> = vec![
        // 0: the cacheable default — DetAuto, auto-resolved bound.
        Session::on(&grid).delay(DelayModel::jitter(3)),
        // 1: α with the bound resolved from the ground truth inside the pool.
        Session::on(&torus).delay(DelayModel::jitter(5)).synchronizer(SyncKind::Alpha),
        // 2: β on an irregular topology, uniform delays.
        Session::on(&rr).synchronizer(SyncKind::Beta { root: NodeId(0) }),
        // 3: det under a crash fault plan with an explicit bound.
        Session::on(&path).delay(DelayModel::jitter(7)).pulse_bound(10).faults(crash_plan),
        // 4: an explicitly shared config (the Theorem 5.3 setting) — bypasses
        // the cache entirely.
        Session::on(&grid)
            .delay(DelayModel::slow_cut(2))
            .synchronizer(SyncKind::Det(shared_cfg))
            .pulse_bound(12),
        // 5: request 0 repeated verbatim — must reproduce it exactly.
        Session::on(&grid).delay(DelayModel::jitter(3)),
        // 6: the lock-step ground truth itself, pooled.
        Session::on(&torus).synchronizer(SyncKind::Direct),
        // 7: the sharded engine inside a pooled request, link churn live.
        Session::on(&rr)
            .delay(DelayModel::jitter(11))
            .scheduler(SchedulerKind::Sharded { shards: 2, workers: 2 })
            .pulse_bound(14)
            .faults(churn_plan),
        // 8: a traced request, served from the cover cache like request 0.
        Session::on(&grid).delay(DelayModel::jitter(3)).record_trace(true),
    ];

    let standalone: Vec<_> = requests.iter().map(run_standalone).collect();
    let schedule_keys = |run: &SynchronizedRun<BfsOutput>| -> Vec<_> {
        let trace = run.trace.as_ref().expect("request 8 records a trace");
        trace.records.iter().map(|r| r.schedule_key()).collect()
    };
    let solo_keys = schedule_keys(&standalone[8]);
    assert!(!solo_keys.is_empty());
    let make = |i: usize, v: NodeId| BfsAlgorithm::new(requests[i].graph(), v, &[NodeId(0)]);
    for workers in [0usize, 1, 2, 4] {
        let pool = SessionPool::new(workers);
        let results = pool.run_batch::<BfsAlgorithm, _>(&requests, make);
        assert_eq!(results.len(), requests.len());
        for (i, (pooled, solo)) in results.iter().zip(&standalone).enumerate() {
            let pooled = pooled.as_ref().unwrap_or_else(|e| panic!("req {i}: {e}"));
            assert_bit_identical(pooled, solo, &format!("workers={workers}, req {i}"));
        }
        // The repeated request reproduced the original inside the same batch.
        let (a, b) = (results[0].as_ref().unwrap(), results[5].as_ref().unwrap());
        assert_eq!(a.outputs, b.outputs, "repeat submission diverged");
        assert_eq!(a.metrics, b.metrics, "repeat submission diverged");
        // The pooled trace is the standalone one, delivery for delivery.
        let pooled_keys = schedule_keys(results[8].as_ref().unwrap());
        assert_eq!(pooled_keys, solo_keys, "workers={workers}: traced request diverged");
    }
}

#[test]
fn resubmitting_a_batch_to_a_warm_pool_is_identical() {
    // Second submission runs against a warm cover cache and recycled engine
    // slabs — both must be invisible to the schedules.
    let grid = Graph::grid(5, 5);
    let cycle = Graph::cycle(14);
    let requests = vec![
        Session::on(&grid).delay(DelayModel::jitter(3)),
        Session::on(&cycle).delay(DelayModel::jitter(5)),
        Session::on(&grid).delay(DelayModel::jitter(8)),
    ];
    let make = |i: usize, v: NodeId| BfsAlgorithm::new(requests[i].graph(), v, &[NodeId(0)]);
    let pool = SessionPool::new(2);
    let first = pool.run_batch::<BfsAlgorithm, _>(&requests, make);
    // Both grid requests land on the same worker (dispatch is by submission
    // index), so the grid config is built exactly once; the cycle topology is
    // the second build.
    assert_eq!(pool.cache().misses(), 2, "one build per distinct topology");
    let misses_after_first = pool.cache().misses();
    let second = pool.run_batch::<BfsAlgorithm, _>(&requests, make);
    assert_eq!(
        pool.cache().misses(),
        misses_after_first,
        "the resubmitted batch must be served entirely from the cache"
    );
    assert!(pool.bank().reuses() > 0, "the second batch must recycle engine slabs");
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        let (a, b) = (a.as_ref().expect("first"), b.as_ref().expect("second"));
        assert_bit_identical(b, a, &format!("resubmission req {i}"));
    }
}

#[test]
fn out_of_order_completion_reassembles_by_submission_index() {
    // Request 0 is far larger than the rest: with several workers the small
    // requests complete long before it, so results genuinely arrive out of
    // submission order — and must still come back reassembled by index.
    let big = Graph::grid(10, 10);
    let tiny: Vec<Graph> = (0..6).map(|i| Graph::path(3 + i)).collect();
    let mut requests = vec![Session::on(&big).delay(DelayModel::jitter(2))];
    for g in &tiny {
        requests.push(Session::on(g).delay(DelayModel::jitter(4)));
    }
    let standalone: Vec<_> = requests.iter().map(run_standalone).collect();
    let make = |i: usize, v: NodeId| BfsAlgorithm::new(requests[i].graph(), v, &[NodeId(0)]);
    let results = SessionPool::new(3).run_batch::<BfsAlgorithm, _>(&requests, make);
    for (i, (pooled, solo)) in results.iter().zip(&standalone).enumerate() {
        let pooled = pooled.as_ref().unwrap_or_else(|e| panic!("req {i}: {e}"));
        // Output lengths differ per request (distinct graphs), so a single
        // misrouted slot would fail loudly here.
        assert_eq!(pooled.outputs.len(), requests[i].graph().node_count(), "req {i} misrouted");
        assert_bit_identical(pooled, solo, &format!("req {i}"));
    }
}

#[test]
fn mixed_success_and_failure_slots_stay_independent() {
    let grid = Graph::grid(4, 4);
    let requests = vec![
        Session::on(&grid).delay(DelayModel::jitter(3)),
        // An unusable event budget: fails validation in its own slot.
        Session::on(&grid).limits(SimLimits { max_events: 0, ..SimLimits::default() }),
        // A starved event budget: fails inside the simulation.
        Session::on(&grid)
            .delay(DelayModel::jitter(3))
            .pulse_bound(8)
            .limits(SimLimits { max_events: 5, ..SimLimits::default() }),
        Session::on(&grid).delay(DelayModel::jitter(3)),
    ];
    let standalone = run_standalone(&requests[0]);
    let results = SessionPool::new(2).run_batch::<BfsAlgorithm, _>(&requests, |i, v| {
        BfsAlgorithm::new(requests[i].graph(), v, &[NodeId(0)])
    });
    assert_bit_identical(results[0].as_ref().expect("req 0"), &standalone, "req 0");
    assert!(
        matches!(results[1], Err(SessionError::InvalidLimits { what: "max_events" })),
        "{:?}",
        results[1].as_ref().err()
    );
    assert!(matches!(results[2], Err(SessionError::Sim(_))), "{:?}", results[2].as_ref().err());
    // The failing slots must not have disturbed the succeeding ones — nor can
    // a failed run's engine state ever re-enter the recycling bank.
    assert_bit_identical(results[3].as_ref().expect("req 3"), &standalone, "req 3");
}

/// BFS that panics in `on_init` when `cursed` — a hostile protocol.
struct CursedBfs<'g> {
    bfs: BfsAlgorithm<'g>,
    cursed: bool,
}

impl EventDriven for CursedBfs<'_> {
    type Msg = u64;
    type Output = BfsOutput;

    fn on_init(&mut self, ctx: &mut PulseCtx<u64>) {
        assert!(!self.cursed, "cursed on_init");
        self.bfs.on_init(ctx);
    }

    fn on_pulse(&mut self, received: &[(NodeId, u64)], ctx: &mut PulseCtx<u64>) {
        self.bfs.on_pulse(received, ctx);
    }

    fn output(&self) -> Option<BfsOutput> {
        self.bfs.output()
    }
}

/// Runs a 3-request batch whose middle request must fail with `expected`,
/// inline and on two workers, twice per pool (the second batch runs on the
/// bank and cache the failure left behind): the outer slots stay bit-identical
/// to a standalone run of request 0.
fn assert_only_the_middle_slot_fails<A, F>(
    requests: &[Session<'_>],
    make: F,
    expected: &SessionError,
) where
    A: EventDriven<Output = BfsOutput>,
    F: FnMut(usize, NodeId) -> A + Clone + Send,
{
    let standalone = run_standalone(&requests[0]);
    for workers in [0, 2] {
        let pool = SessionPool::new(workers);
        for batch in 0..2 {
            let results = pool.run_batch::<A, _>(requests, make.clone());
            let what = format!("workers={workers}, batch {batch}");
            assert_bit_identical(results[0].as_ref().expect("req 0"), &standalone, &what);
            assert_eq!(results[1].as_ref().err(), Some(expected), "{what}");
            assert_bit_identical(results[2].as_ref().expect("req 2"), &standalone, &what);
        }
    }
}

#[test]
fn a_panicking_protocol_fails_its_own_slot_not_the_batch() {
    // With an explicit bound the panic hits inside the engine, slab checked out.
    let grid = Graph::grid(4, 4);
    let requests = vec![Session::on(&grid).delay(DelayModel::jitter(3)).pulse_bound(8); 3];
    let make = |i: usize, v: NodeId| CursedBfs {
        bfs: BfsAlgorithm::new(&grid, v, &[NodeId(0)]),
        cursed: i == 1,
    };
    let expected = SessionError::ProtocolPanicked { message: "cursed on_init".into() };
    assert_only_the_middle_slot_fails(&requests, make, &expected);
}

#[test]
fn an_absurd_pulse_bound_fails_its_own_slot_not_the_process() {
    // Per-pulse state is sized by the bound, so before the `max_rounds` rule
    // this request aborted the whole process on a 26 TB allocation — beyond
    // what `catch_unwind` can turn into an error.
    let grid = Graph::grid(4, 4);
    let ok = Session::on(&grid).delay(DelayModel::jitter(3)).pulse_bound(8);
    let requests = vec![ok.clone(), ok.clone().pulse_bound(1 << 40), ok];
    let make = |_: usize, v: NodeId| BfsAlgorithm::new(&grid, v, &[NodeId(0)]);
    let max_rounds = SimLimits::default().max_rounds;
    let expected = SessionError::PulseBoundTooLarge { bound: 1 << 40, max_rounds };
    assert_only_the_middle_slot_fails(&requests, make, &expected);
}

#[test]
fn a_synchronizer_that_cannot_run_on_its_graph_fails_its_own_slot() {
    // Unvalidated, the first three panic inside the spanning-tree or cover
    // build and the pool would blame the protocol with `ProtocolPanicked`; the
    // det config built for a bigger graph would run to wrong outputs.
    let grid = Graph::grid(4, 4);
    let split = Graph::from_edges(4, [(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))])
        .expect("two disjoint edges");
    let bigger_cfg = SynchronizerConfig::build(&Graph::grid(6, 6), 8);
    let ok = Session::on(&grid).delay(DelayModel::jitter(3)).pulse_bound(8);
    let hostile = [
        (
            Session::on(&grid).synchronizer(SyncKind::Beta { root: NodeId(99) }),
            "the beta root is not a node of the graph",
        ),
        (
            Session::on(&split).synchronizer(SyncKind::Beta { root: NodeId(0) }),
            "beta needs a connected graph",
        ),
        (Session::on(&split), "det needs a non-empty connected graph"),
        (
            Session::on(&grid).synchronizer(SyncKind::Det(bigger_cfg)),
            "the det config was built for a graph with a different node count",
        ),
    ];
    for (bad, what) in hostile {
        let requests = vec![ok.clone(), bad, ok.clone()];
        let make = |i: usize, v: NodeId| BfsAlgorithm::new(requests[i].graph(), v, &[NodeId(0)]);
        assert_only_the_middle_slot_fails(
            &requests,
            make,
            &SessionError::InvalidSynchronizer { what },
        );
    }
}
