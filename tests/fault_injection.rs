//! Dynamic-topology fault injection, end to end (DESIGN.md §9).
//!
//! Two contracts are pinned here:
//!
//! * **Determinism under faults** — for every [`FaultPlan`] the engine
//!   contract (`ds_verify::check`) holds: the wheel, the heap, the sharded
//!   engine over every shard and worker count with and without threads, and
//!   the recycled engine run one schedule, drop the same deliveries and apply
//!   the same transitions, and every faulted trace passes the happens-before
//!   checker (drops remove deliveries, they never reorder the survivors).
//!   Faults change *what* happens, never make it nondeterministic.
//! * **Graceful degradation** — workloads (flood via `Session`, BFS and
//!   leader election via their `ds-algos` wrappers) terminate under crash-stop
//!   failures with an explicit partial-result status ([`RunHealth`]) instead
//!   of hanging or fabricating outputs.

use det_synchronizer::netsim::TICKS_PER_UNIT;
use det_synchronizer::prelude::*;
use det_synchronizer::sync::session::{Session, SyncKind};
use ds_verify::{check, Scenario};

/// Under every fault plan and delay model, every node a source echoing three
/// waves so barriers stay busy while the plan flips links and nodes under
/// them: the engine contract holds.
#[test]
fn every_fault_plan_is_bit_identical_across_the_engine_matrix() {
    let graph = Graph::grid(6, 6);
    let (_, u, v) = graph.edges().next().expect("non-empty graph");
    let plans = [
        FaultPlan::new()
            .link_down(TICKS_PER_UNIT / 4, u, v)
            .node_crash(TICKS_PER_UNIT / 2, NodeId(7))
            .link_up(2 * TICKS_PER_UNIT, u, v)
            .node_recover(3 * TICKS_PER_UNIT, NodeId(7)),
        FaultPlan::random_churn(&graph, 33, 5, 2, 4 * TICKS_PER_UNIT),
        FaultPlan::new().node_crash(0, NodeId(0)).node_crash(1, NodeId(13)),
    ];
    for plan in &plans {
        for delay in [DelayModel::jitter(5), DelayModel::outage(7, 5, 2)] {
            check(&Scenario::new(&graph, delay).faults(plan).chatter(1, 3));
        }
    }
}

/// A flood whose source survives but whose path is cut: the run terminates and
/// the health status names exactly the nodes the partition starved.
#[test]
fn severed_flood_terminates_with_explicit_partial_status() {
    use det_synchronizer::sync::event_driven::{EventDriven, PulseCtx};

    #[derive(Debug)]
    struct PulseFlood {
        me: NodeId,
        neighbors: Vec<NodeId>,
        hops: Option<u64>,
    }
    impl EventDriven for PulseFlood {
        type Msg = u64;
        type Output = u64;
        fn on_init(&mut self, ctx: &mut PulseCtx<u64>) {
            if self.me == NodeId(0) {
                self.hops = Some(0);
                for &u in &self.neighbors {
                    ctx.send(u, 1);
                }
            }
        }
        fn on_pulse(&mut self, received: &[(NodeId, u64)], ctx: &mut PulseCtx<u64>) {
            if self.hops.is_none() {
                if let Some(&(_, h)) = received.first() {
                    self.hops = Some(h);
                    for &u in &self.neighbors {
                        ctx.send(u, h + 1);
                    }
                }
            }
        }
        fn output(&self) -> Option<u64> {
            self.hops
        }
    }

    // Path 0-1-2-3-4-5 with node 2 crashed from the start: nothing can cross.
    let graph = Graph::path(6);
    let plan = FaultPlan::new().node_crash(0, NodeId(2));
    for kind in [SyncKind::Alpha, SyncKind::DetAuto] {
        let run = Session::on(&graph)
            .delay(DelayModel::jitter(9))
            .synchronizer(kind.clone())
            .pulse_bound(12)
            .faults(plan.clone())
            .run(|v| PulseFlood { me: v, neighbors: graph.neighbors(v).to_vec(), hops: None })
            .unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
        assert_eq!(run.outputs[0], Some(0), "{}: the source still outputs", kind.label());
        for far in 2..6 {
            assert_eq!(run.outputs[far], None, "{}: node {far} is unreachable", kind.label());
        }
        assert!(run.health.is_partial(), "{}", kind.label());
        assert_eq!(run.health.crashed, vec![NodeId(2)], "{}", kind.label());
        for far in 2..6 {
            assert!(run.health.missing.contains(&NodeId(far)), "{}", kind.label());
        }
        assert!(run.fault_transitions >= 1, "{}", kind.label());
    }
}

/// BFS under a crash: terminates, reports health, and every distance it does
/// report is the length of a real path — never shorter than the true distance.
#[test]
fn faulted_bfs_terminates_and_never_underestimates_distances() {
    let graph = Graph::grid(4, 4);
    let crashed = NodeId(5);
    let plan = FaultPlan::new().node_crash(0, crashed);
    let report = run_synchronized_multi_bfs_faulted(
        &graph,
        &[NodeId(0)],
        DelayModel::jitter(3),
        Some(&plan),
    )
    .expect("faulted BFS terminates");
    assert_eq!(report.health.crashed, vec![crashed]);
    assert!(report.health.missing.contains(&crashed), "a crashed node cannot adopt a distance");
    assert_eq!(report.outputs[&NodeId(0)].distance, 0, "the source knows itself");
    let dist = det_synchronizer::graph::metrics::bfs_distances(&graph, NodeId(0));
    for (&v, out) in &report.outputs {
        assert!(
            out.distance >= dist[v.index()].unwrap() as u64,
            "node {v} reported {} below its true distance",
            out.distance
        );
    }
    // Same plan, same seed: the degraded result is deterministic too.
    let again = run_synchronized_multi_bfs_faulted(
        &graph,
        &[NodeId(0)],
        DelayModel::jitter(3),
        Some(&plan),
    )
    .expect("repeat faulted BFS");
    assert_eq!(again.outputs, report.outputs);
    assert_eq!(again.health, report.health);
}

/// Leader election with the minimum-id node crashed: the run terminates with an
/// explicit status, and whatever nodes do produce an output agree on it.
#[test]
fn faulted_leader_election_terminates_and_survivors_agree() {
    let graph = Graph::clustered_ring(3, 3);
    let plan = FaultPlan::new().node_crash(0, NodeId(0));
    let report =
        run_synchronized_leader_election_faulted(&graph, DelayModel::jitter(8), Some(&plan))
            .expect("faulted election terminates");
    assert_eq!(report.health.crashed, vec![NodeId(0)]);
    assert!(report.health.is_partial());
    let elected: Vec<NodeId> = report.outputs.iter().flatten().copied().collect();
    match report.leader {
        Some(leader) => assert!(elected.iter().all(|&l| l == leader), "survivors disagree"),
        None => assert!(elected.is_empty(), "leader is None only when nobody elected"),
    }
    // Fault-free baseline on the same graph still elects the global minimum.
    let clean = run_synchronized_leader_election(&graph, DelayModel::jitter(8)).expect("clean run");
    assert_eq!(clean.leader, Some(NodeId(0)));
    assert!(!clean.health.is_partial());
}
