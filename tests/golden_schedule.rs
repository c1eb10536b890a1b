//! Golden schedules: digests of whole executions, recorded by the code at
//! commit `005986dbfd5e45a54187418aae3faa8ce59f4f5f` — the last commit at
//! which the serial engine's per-event path, its three-pass batch path and the
//! sharded engine's two merge arms were four independent copies of the
//! delivery/ack/drop rules.
//!
//! Since then both engines draw every sequence number in one shared effects
//! core (`ds-netsim::effects`), so the equivalence suites (`scheduler_equiv`,
//! `threaded_equiv`, `fault_injection`, ...) compare that core with itself: a
//! wrong seq draw would move every engine in lock-step and still pass them.
//! The constants below are the outside reference — they were produced by
//! running this file against the commit above, **not** by the current code,
//! and must never be regenerated to make a failing change pass. A schedule
//! change that is intended has to say so and re-record them from a commit
//! whose schedules are independently justified. The four α/β outage and
//! churn rows, the det BFS rows from sources other than node 0 and the
//! digest-flood rows were recorded the same way, each at a later commit
//! named above them.
//!
//! Each scenario runs on every engine configuration and must reproduce
//!
//! * the **schedule digest**: FNV-1a over every delivery's
//!   [`DeliveryRecord::schedule_key`](det_synchronizer::netsim::DeliveryRecord::schedule_key)
//!   in processing order, followed by the counters below, and
//! * the **counter digest**: FNV-1a over `(events, acks, algorithm messages,
//!   control messages, time_to_output bits, time_to_quiescence bits,
//!   dropped_events, fault_transitions)` alone.
//!
//! `RECORDED_EVENTS` is the events-only identity gate of the retired E9/E11
//! smoke matrices: `metrics.events` copied from the two JSON artifacts committed
//! at `326dd8c` (DESIGN.md §4), the parent of the commit that deleted them. Same
//! rule: never produced by the code under test, never re-recorded to pass.

use det_synchronizer::algos::bfs::BfsAlgorithm;
use det_synchronizer::netsim::protocol::Protocol;
use det_synchronizer::netsim::sync_engine::run_sync;
use det_synchronizer::netsim::{
    run, AsyncReport, DeliveryTrace, EngineSlab, MessageClass, RunSpec, ThreadMode, TICKS_PER_UNIT,
};
use det_synchronizer::prelude::*;
use det_synchronizer::sync::alpha::AlphaSynchronizer;
use det_synchronizer::sync::beta::{BetaSynchronizer, SpanningTree};
use det_synchronizer::sync::service::{ServiceRequest, SessionPool};
use ds_verify::DigestFlood;

/// 64-bit FNV-1a over a stream of `u64` words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// `None` and `Some(0)` must hash differently: a tag word, then the value.
    fn opt(&mut self, w: Option<u64>) {
        self.word(u64::from(w.is_some()));
        self.word(w.unwrap_or(0));
    }
}

fn hash_counters<P>(h: &mut Fnv, report: &AsyncReport<P>) {
    let m = &report.metrics;
    h.word(m.events);
    h.word(m.acks);
    h.word(m.class_messages(MessageClass::Algorithm));
    h.word(m.class_messages(MessageClass::Control));
    h.opt(m.time_to_output.map(f64::to_bits));
    h.word(m.time_to_quiescence.to_bits());
    h.word(report.dropped_events);
    h.word(report.fault_transitions);
}

fn counter_digest<P>(report: &AsyncReport<P>) -> u64 {
    let mut h = Fnv::new();
    hash_counters(&mut h, report);
    h.0
}

fn schedule_digest<P>(report: &AsyncReport<P>, trace: &DeliveryTrace) -> u64 {
    let mut h = Fnv::new();
    for rec in &trace.records {
        let (seq, tick, src, dst, cause) = rec.schedule_key();
        h.word(seq);
        h.word(tick);
        h.word(src.index() as u64);
        h.word(dst.index() as u64);
        h.opt(cause);
    }
    hash_counters(&mut h, report);
    h.0
}

/// The digests one scenario must reproduce on every engine configuration.
struct Golden {
    schedule: u64,
    counters: u64,
}

/// Runs `make`'s protocol on the wheel, the heap, the single-shard sharded
/// engine, three shards over two forced workers and the wheel on a fresh
/// engine slab, every run traced, and checks each against `golden`. Returns
/// the recycled wheel's report, so each scenario can assert it exercises the
/// machinery it is there for.
fn check<P, F>(
    name: &str,
    graph: &Graph,
    delay: &DelayModel,
    faults: Option<&FaultPlan>,
    make: F,
    golden: &Golden,
) -> AsyncReport<P>
where
    P: Protocol + Send,
    P::Message: Send,
    F: Fn(NodeId) -> P,
{
    let (off, on) = (ThreadMode::Off, ThreadMode::ForceOn);
    let configs = [
        (SchedulerKind::TimingWheel, off, false),
        (SchedulerKind::BinaryHeap, off, false),
        (SchedulerKind::Sharded { shards: 1, workers: 0 }, off, false),
        (SchedulerKind::Sharded { shards: 3, workers: 2 }, on, false),
        (SchedulerKind::TimingWheel, off, true),
    ];
    let mut slab = EngineSlab::new();
    let mut last = None;
    for (scheduler, threads, recycled) in configs {
        let config = format!("{scheduler:?} {threads:?}, recycled {recycled}");
        let spec =
            RunSpec { faults, scheduler, threads, trace: true, ..RunSpec::new(delay.clone()) };
        let (report, trace) = run(graph, &spec, &make, recycled.then_some(&mut slab))
            .unwrap_or_else(|e| panic!("{name} on {config}: {e}"));
        assert!(report.metrics.events > 0, "{name} on {config}: the scenario must do work");
        let trace = trace.expect("the run was traced");
        let (schedule, counters) = (schedule_digest(&report, &trace), counter_digest(&report));
        assert_eq!(
            (schedule, counters),
            (golden.schedule, golden.counters),
            "{name} on {config}: got schedule {schedule:#018x} counters {counters:#018x}"
        );
        last = Some(report);
    }
    last.expect("the recycled run")
}

fn det_bfs<'g>(
    graph: &'g Graph,
    max_pulse: u64,
) -> impl Fn(NodeId) -> DetSynchronizer<BfsAlgorithm<'g>> {
    let cfg = SynchronizerConfig::build(graph, max_pulse);
    move |v| DetSynchronizer::new(v, BfsAlgorithm::new(graph, v, &[NodeId(0)]), cfg.clone())
}

fn alpha_bfs<'g>(
    graph: &'g Graph,
    max_pulse: u64,
) -> impl Fn(NodeId) -> AlphaSynchronizer<'g, BfsAlgorithm<'g>> {
    move |v| AlphaSynchronizer::new(graph, v, BfsAlgorithm::new(graph, v, &[NodeId(0)]), max_pulse)
}

fn beta_bfs<'g>(
    graph: &'g Graph,
    max_pulse: u64,
) -> impl Fn(NodeId) -> BetaSynchronizer<BfsAlgorithm<'g>> {
    let tree = SpanningTree::bfs(graph, NodeId(0));
    move |v| {
        BetaSynchronizer::new(tree.clone(), v, BfsAlgorithm::new(graph, v, &[NodeId(0)]), max_pulse)
    }
}

#[test]
fn det_bfs_on_a_deep_grid_under_uniform_delays() {
    // Corner-rooted BFS on 16×16 needs 30 pulses: a deep schedule (T ≥ 14),
    // where det-synchronizer seq mistakes actually surface, and uniform
    // delays put hundreds of deliveries on one tick.
    let graph = Graph::grid(16, 16);
    let wheel = check(
        "det/grid16x16/uniform",
        &graph,
        &DelayModel::uniform(),
        None,
        det_bfs(&graph, 32),
        &Golden { schedule: 0xfb68_700b_0c03_322e, counters: 0x94ea_141d_f55d_f992 },
    );
    // A batch holds a tick's deliveries (155 on the busiest tick) and only
    // the acks filed behind a waiting message; 128 is the sharded engine's
    // pool threshold.
    assert!(wheel.max_batch >= 128, "uniform delays must pile a whole wave onto one tick");
}

#[test]
fn alpha_bfs_on_a_torus_under_jitter() {
    let graph = Graph::torus(12, 12);
    check(
        "alpha/torus12x12/jitter7",
        &graph,
        &DelayModel::jitter(7),
        None,
        alpha_bfs(&graph, 14),
        &Golden { schedule: 0x3601_5a5b_9403_0681, counters: 0xaa74_8fd8_6b84_9d01 },
    );
}

#[test]
fn beta_bfs_on_a_random_regular_graph_under_floored_jitter() {
    // The 500-tick delay floor spreads each wave over half a time unit of
    // sparse ticks: many thin barriers on the sharded engine.
    let graph = Graph::random_regular(64, 4, 5);
    check(
        "beta/regular64x4/jitter_at_least",
        &graph,
        &DelayModel::jitter_at_least(19, 0.5),
        None,
        beta_bfs(&graph, 12),
        &Golden { schedule: 0x0230_0d5b_895b_6416, counters: 0x92fc_853d_fd4d_67ff },
    );
}

#[test]
fn det_bfs_under_outages_through_the_overflow_tiers() {
    // Multi-τ outage delays park deliveries beyond the wheel's horizon.
    let graph = Graph::grid(8, 8);
    let wheel = check(
        "det/grid8x8/outage",
        &graph,
        &DelayModel::outage(11, 4, 2),
        None,
        det_bfs(&graph, 16),
        &Golden { schedule: 0x0ef9_b7ad_2407_277f, counters: 0x9cc7_1d76_e514_45ae },
    );
    assert!(wheel.overflow_events > 0, "outage delays must park events past the horizon");
}

/// Short link episodes and crash/recover pairs while the opening waves are
/// dense, then one crash that never recovers. Dropped messages starve the det
/// schedule (no retransmission), so these runs end partial — by design.
fn churn_and_crash(graph: &Graph) -> FaultPlan {
    FaultPlan::random_churn(graph, 33, 10, 3, 12 * TICKS_PER_UNIT)
        .node_crash(2 * TICKS_PER_UNIT + 7, NodeId(9))
        .node_recover(5 * TICKS_PER_UNIT, NodeId(9))
        .node_crash(9 * TICKS_PER_UNIT, NodeId(63))
}

#[test]
fn det_bfs_under_link_churn_and_crashes() {
    let graph = Graph::grid(8, 8);
    let wheel = check(
        "det/grid8x8/churn+crash/jitter5",
        &graph,
        &DelayModel::jitter(5),
        Some(&churn_and_crash(&graph)),
        det_bfs(&graph, 16),
        &Golden { schedule: 0xc745_952f_6987_dc70, counters: 0x0b62_64d5_735c_f557 },
    );
    assert!(wheel.dropped_events > 0, "the fault plan must actually eat deliveries");
}

#[test]
fn det_bfs_under_link_churn_and_crashes_on_dense_ticks() {
    // Uniform delays put drops, acks and live deliveries on the same crowded
    // tick — the case the recording commit ran through its three-pass batch.
    let graph = Graph::grid(8, 8);
    let wheel = check(
        "det/grid8x8/churn+crash/uniform",
        &graph,
        &DelayModel::uniform(),
        Some(&churn_and_crash(&graph)),
        det_bfs(&graph, 16),
        &Golden { schedule: 0xae1c_15d3_10c6_d903, counters: 0x041d_8a83_9eef_7448 },
    );
    assert!(wheel.dropped_events > 0, "the fault plan must actually eat deliveries");
    // The busiest tick carries 28 deliveries.
    assert!(wheel.max_batch >= 24, "drops must land on crowded ticks");
}

// The four rows below were recorded at commit `19c140b`, the last commit whose
// α and β kept one state slot per pulse `0 ..= max_pulse`: they pin the
// baselines' two-pulse window (each module's docs) where it is subtlest — on
// deliveries parked far past the horizon, and on runs that lose deliveries.

#[test]
fn alpha_bfs_under_outages_through_the_overflow_tiers() {
    let graph = Graph::grid(8, 8);
    let wheel = check(
        "alpha/grid8x8/outage",
        &graph,
        &DelayModel::outage(11, 4, 2),
        None,
        alpha_bfs(&graph, 16),
        &Golden { schedule: 0x261d_b7d4_537d_bda3, counters: 0xf1ec_d4c5_f23e_f0f4 },
    );
    assert_eq!(wheel.metrics.events, 4_130, "recorded with the digests");
    assert!(wheel.overflow_events > 0, "outage delays must park events past the horizon");
}

#[test]
fn beta_bfs_under_outages_through_the_overflow_tiers() {
    let graph = Graph::grid(8, 8);
    let wheel = check(
        "beta/grid8x8/outage",
        &graph,
        &DelayModel::outage(11, 4, 2),
        None,
        beta_bfs(&graph, 16),
        &Golden { schedule: 0x4ef3_d0c0_e741_898a, counters: 0x9bce_4f42_ed18_0fba },
    );
    assert_eq!(wheel.metrics.events, 2_464, "recorded with the digests");
    assert!(wheel.overflow_events > 0, "outage delays must park events past the horizon");
}

#[test]
fn alpha_bfs_under_link_churn_and_crashes() {
    let graph = Graph::grid(8, 8);
    let wheel = check(
        "alpha/grid8x8/churn+crash/jitter5",
        &graph,
        &DelayModel::jitter(5),
        Some(&churn_and_crash(&graph)),
        alpha_bfs(&graph, 16),
        &Golden { schedule: 0x89ec_d295_0556_bed0, counters: 0xd1b2_b5b8_668a_910e },
    );
    assert_eq!(wheel.metrics.events, 912, "recorded with the digests");
    assert!(wheel.dropped_events > 0, "the fault plan must actually eat deliveries");
}

#[test]
fn beta_bfs_under_link_churn_and_crashes() {
    let graph = Graph::grid(8, 8);
    let wheel = check(
        "beta/grid8x8/churn+crash/jitter5",
        &graph,
        &DelayModel::jitter(5),
        Some(&churn_and_crash(&graph)),
        beta_bfs(&graph, 16),
        &Golden { schedule: 0xd353_bad7_5e59_e086, counters: 0x5c15_446d_a6f6_615e },
    );
    assert_eq!(wheel.metrics.events, 64, "recorded with the digests");
    assert!(wheel.dropped_events > 0, "the fault plan must actually eat deliveries");
}

/// One family's 7 recorded scenario counts (see the module docs); per-kind
/// pairs are `[uniform, jitter(7)]`.
struct RecordedEvents {
    family: &'static str,
    direct: u64,
    alpha: [u64; 2],
    beta: [u64; 2],
    det: [u64; 2],
    /// Sum over a pooled batch of 8 det requests, `jitter(3..=10)`.
    service_batch: Option<u64>,
}

#[rustfmt::skip]
const RECORDED_EVENTS: [RecordedEvents; 4] = [
    RecordedEvents { family: "grid/256", direct: 705, alpha: [32_130, 32_130], beta: [17_730, 17_730], det: [21_107, 21_033], service_batch: Some(168_699) },
    RecordedEvents { family: "torus/256", direct: 769, alpha: [19_970, 19_970], beta: [10_718, 10_718], det: [15_815, 15_809], service_batch: None },
    RecordedEvents { family: "cycle/256", direct: 257, alpha: [67_074, 67_074], beta: [66_814, 66_814], det: [79_744, 79_744], service_batch: None },
    RecordedEvents { family: "random-regular/256", direct: 765, alpha: [10_710, 10_710], beta: [6_120, 6_120], det: [10_764, 10_764], service_batch: Some(86_112) },
];

#[test]
fn recorded_event_counts_hold_on_both_engines_and_through_the_pool() {
    let graphs = [
        Graph::grid(16, 16),
        Graph::torus(16, 16),
        Graph::cycle(256),
        Graph::random_regular(256, 4, 256),
    ];
    let delays = [DelayModel::uniform(), DelayModel::jitter(7)];
    let engines = [SchedulerKind::TimingWheel, SchedulerKind::Sharded { shards: 4, workers: 2 }];
    for (graph, rec) in graphs.iter().zip(&RECORDED_EVENTS) {
        let family = rec.family;
        let bfs = |v| BfsAlgorithm::new(graph, v, &[NodeId(0)]);
        let direct = Session::on(graph).synchronizer(SyncKind::Direct).run(bfs).expect("direct");
        assert_eq!(direct.metrics.events, rec.direct, "{family}/direct");
        let t = direct.metrics.time_to_quiescence.max(1.0) as u64;
        let kinds = [
            (SyncKind::Alpha, rec.alpha),
            (SyncKind::Beta { root: NodeId(0) }, rec.beta),
            (SyncKind::DetAuto, rec.det),
        ];
        for (kind, recorded) in kinds {
            for (delay, events) in delays.iter().zip(recorded) {
                for scheduler in engines {
                    let what = format!("{family}/{}/{delay:?} on {scheduler:?}", kind.label());
                    let run = Session::on(graph)
                        .delay(delay.clone())
                        .synchronizer(kind.clone())
                        .scheduler(scheduler)
                        .pulse_bound(t)
                        .run(bfs)
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_eq!(run.outputs, direct.outputs, "{what}: diverged from direct");
                    assert_eq!(run.metrics.events, events, "{what}: events");
                }
            }
        }
        let Some(batch_events) = rec.service_batch else { continue };
        let requests: Vec<_> = (3..=10)
            .map(|seed| ServiceRequest::on(graph).delay(DelayModel::jitter(seed)).pulse_bound(t))
            .collect();
        for workers in [1, 4] {
            let events: u64 = SessionPool::new(workers)
                .run_batch::<BfsAlgorithm, _>(&requests, |_, v| bfs(v))
                .into_iter()
                .map(|run| run.expect("pooled request").metrics.events)
                .sum();
            assert_eq!(events, batch_events, "{family}: batch of 8 over {workers} workers");
        }
    }
}

// The rows below were recorded at commit `9e65c25`, before the det
// synchronizer's work queue took range items and its pulse sets went
// bit-packed; both changes keep every schedule, so these rows must not move.

/// Det BFS from `source` (every golden row above starts at node 0).
fn det_bfs_from<'g>(
    graph: &'g Graph,
    source: NodeId,
    max_pulse: u64,
) -> impl Fn(NodeId) -> DetSynchronizer<BfsAlgorithm<'g>> {
    let cfg = SynchronizerConfig::build(graph, max_pulse);
    move |v| DetSynchronizer::new(v, BfsAlgorithm::new(graph, v, &[source]), cfg.clone())
}

/// Checks a BFS row's outputs against the synchronous ground truth.
fn assert_bfs_outputs(
    graph: &Graph,
    source: NodeId,
    report: &AsyncReport<DetSynchronizer<BfsAlgorithm<'_>>>,
) {
    let dist = det_synchronizer::graph::metrics::bfs_distances(graph, source);
    for (v, node) in report.nodes.iter().enumerate() {
        let out = node.algorithm().output().expect("every node outputs");
        assert_eq!(Some(out.distance), dist[v].map(|d| d as u64), "node {v}");
    }
}

#[test]
fn det_bfs_from_the_far_corner_of_a_grid() {
    let graph = Graph::grid(32, 32);
    let source = NodeId(1_023);
    let wheel = check(
        "det/grid32x32/from1023/jitter3",
        &graph,
        &DelayModel::jitter(3),
        None,
        det_bfs_from(&graph, source, 62),
        &Golden { schedule: 0x958f_ccc3_3b52_c8a2, counters: 0xe310_2b3c_6e72_349a },
    );
    assert_eq!(wheel.metrics.events, 138_642, "recorded with the digests");
    assert_bfs_outputs(&graph, source, &wheel);
}

#[test]
fn det_bfs_from_an_interior_grid_node() {
    // Row 10, column 21: off every axis of symmetry, 42 hops from its farthest corner.
    let graph = Graph::grid(32, 32);
    let source = NodeId(10 * 32 + 21);
    let wheel = check(
        "det/grid32x32/from341/uniform",
        &graph,
        &DelayModel::uniform(),
        None,
        det_bfs_from(&graph, source, 42),
        &Golden { schedule: 0x0dd2_f23b_69ab_1e81, counters: 0xae7e_781c_38a9_4dea },
    );
    assert_eq!(wheel.metrics.events, 126_344, "recorded with the digests");
    assert_bfs_outputs(&graph, source, &wheel);
}

#[test]
fn det_bfs_from_a_torus_node() {
    let graph = Graph::torus(32, 32);
    let source = NodeId(500);
    let wheel = check(
        "det/torus32x32/from500/jitter5",
        &graph,
        &DelayModel::jitter(5),
        None,
        det_bfs_from(&graph, source, 32),
        &Golden { schedule: 0xaf2c_4135_f934_21a8, counters: 0x751a_498a_0d3d_ce21 },
    );
    assert_eq!(wheel.metrics.events, 94_925, "recorded with the digests");
    assert_bfs_outputs(&graph, source, &wheel);
}

/// Pulses of the digest-flood rows: deep enough for non-base det stages.
const DIGEST_PULSES: u64 = 16;

/// One digest-flood row: the delay model, its digests and the wheel's event count.
type DigestRow = (DelayModel, Golden, u64);

/// Runs the digest flood under each row's delay model and checks the digests,
/// the event count and the outputs against the synchronous ground truth: the
/// algorithm's output depends on every message, so a message delivered twice,
/// lost or handed to the wrong pulse changes an output.
fn check_digest_rows<P, F>(
    kind: &str,
    graph: &Graph,
    rows: [DigestRow; 3],
    make: F,
    output: impl Fn(&P) -> Option<u64>,
) where
    P: Protocol + Send,
    P::Message: Send,
    F: Fn(NodeId) -> P,
{
    let truth = run_sync(graph, |v| DigestFlood::new(graph, v, DIGEST_PULSES), 1_000)
        .expect("synchronous digest flood")
        .outputs();
    for (delay, golden, events) in rows {
        let name = format!("{kind}/digest/{delay:?}");
        let wheel = check(&name, graph, &delay, None, &make, &golden);
        assert_eq!(wheel.metrics.events, events, "{name}: recorded with the digests");
        let outputs: Vec<_> = wheel.nodes.iter().map(&output).collect();
        assert_eq!(outputs, truth, "{name}: outputs diverged from the synchronous run");
    }
}

fn digest_rows(recorded: [(u64, u64, u64); 3]) -> [DigestRow; 3] {
    let delays = [DelayModel::uniform(), DelayModel::jitter(13), DelayModel::outage(11, 4, 2)];
    let mut rows = recorded.into_iter();
    delays.map(|delay| {
        let (schedule, counters, events) = rows.next().expect("three rows");
        (delay, Golden { schedule, counters }, events)
    })
}

#[test]
fn det_digest_flood_under_every_delay_family() {
    let graph = Graph::grid(6, 6);
    let cfg = SynchronizerConfig::build(&graph, DIGEST_PULSES);
    let make = |v| DetSynchronizer::new(v, DigestFlood::new(&graph, v, DIGEST_PULSES), cfg.clone());
    #[rustfmt::skip]
    let rows = digest_rows([
        (0x4e46_2b3c_abe8_5804, 0x53f2_0ce9_e1e8_05bc, 9_570),
        (0x0c69_1b46_878f_d9d2, 0x09d9_1ea4_87ba_04e4, 9_570),
        (0x9bf9_04fa_375d_8d61, 0x7cf3_6f0b_6be7_0a0d, 9_570),
    ]);
    check_digest_rows("det", &graph, rows, make, |n| n.algorithm().output());
}

#[test]
fn alpha_digest_flood_under_every_delay_family() {
    let graph = Graph::grid(6, 6);
    let make = |v| {
        AlphaSynchronizer::new(&graph, v, DigestFlood::new(&graph, v, DIGEST_PULSES), DIGEST_PULSES)
    };
    #[rustfmt::skip]
    let rows = digest_rows([
        (0x528c_f49f_88ad_0d1f, 0x5cf7_57c3_6de5_6703, 5_880),
        (0x40e3_dc91_b9aa_c04a, 0xe5c7_141c_fe96_f5e8, 5_880),
        (0x4d9a_ea24_3f32_181c, 0xf8fe_1869_3fef_8a41, 5_880),
    ]);
    check_digest_rows("alpha", &graph, rows, make, |n| n.algorithm().output());
}

#[test]
fn beta_digest_flood_under_every_delay_family() {
    let graph = Graph::grid(6, 6);
    let tree = SpanningTree::bfs(&graph, NodeId(0));
    let make = |v| {
        BetaSynchronizer::new(
            tree.clone(),
            v,
            DigestFlood::new(&graph, v, DIGEST_PULSES),
            DIGEST_PULSES,
        )
    };
    #[rustfmt::skip]
    let rows = digest_rows([
        (0x47b6_8a18_b0f2_e1bc, 0x0d13_ddd1_736d_80f6, 5_030),
        (0x1cea_5dcc_7ecf_7d89, 0x1566_b980_9069_6e06, 5_030),
        (0x28f0_88b3_3b5b_84ef, 0x6590_2ab8_e3d8_9b0b, 5_030),
    ]);
    check_digest_rows("beta", &graph, rows, make, |n| n.algorithm().output());
}
