//! The adapter: the only file of the benchmark that names repo APIs.
//!
//! Everything the harness needs from `ds-graph` / `ds-covers` / `ds-netsim` /
//! `ds-sync` / `ds-algos` goes through here — building graphs from recipes,
//! the set-up a cold request pays, one verified top-level call
//! (`Session::run` or `SessionPool::run_batch`), the traced mirror of that
//! call, and the bare data-structure replays — so when the run entry points
//! are collapsed (ROADMAP item 2) the follow-up is a change to this file.
//!
//! The traced path cannot put spans inside the crates (nothing in `crates/`
//! changes), so it re-creates what `Session::run` does from public pieces:
//! it resolves the pulse bound, instantiates the synchronizer protocol around
//! the algorithm itself, drives `run_async*` directly, and collects outputs.
//! Protocol and algorithm are wrapped in [`Timed`] / [`TimedAlg`], which
//! accumulate `(calls, busy)` per node; summed after the run they become the
//! `sync.protocol` and `algos.on_pulse` aggregate spans.

use crate::replay::{DeliveryRow, ReplaySchedule};
use crate::trace::Tracer;
use crate::workloads::{
    AlgoSpec, Call, DelaySpec, EngineSpec, GraphSpec, PoolSpec, SyncSpec, WorkloadSpec,
};
use ds_algos::bfs::{BfsAlgorithm, BfsOutput};
use ds_algos::leader::LeaderElection;
use ds_covers::builder::{build_sparse_cover, build_synchronizer_cover};
use ds_covers::SparseCover;
use ds_graph::{metrics, Graph, NodeId};
use ds_netsim::arena::{EvRef, PayloadArena};
use ds_netsim::async_engine::{run_async_faulted, SimLimits};
use ds_netsim::delay::DelayModel;
use ds_netsim::event_driven::{EventDriven, PulseCtx};
use ds_netsim::metrics::{MessageClass, RunMetrics};
use ds_netsim::protocol::{Ctx, Protocol};
use ds_netsim::recycle::{run_async_recycled, SlabBank};
use ds_netsim::scheduler::{EventScheduler, TimingWheel};
use ds_netsim::sharded::{run_async_sharded_faulted_with, ShardedOptions, ThreadMode};
use ds_netsim::stage_queue::StageQueue;
use ds_netsim::sync_engine::run_sync;
use ds_netsim::{AsyncReport, FaultPlan, SchedulerKind, SimError, TICKS_PER_UNIT};
use ds_sync::alpha::AlphaSynchronizer;
use ds_sync::beta::{BetaSynchronizer, SpanningTree};
use ds_sync::service::{CoverCache, ServiceRequest, SessionPool, SynchronizerParams};
use ds_sync::session::{Session, SessionError, SyncKind};
use ds_sync::synchronizer::{DetSynchronizer, SynchronizerConfig};
use ds_sync::SynchronizedRun;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// What a run reports
// ---------------------------------------------------------------------------

/// Counters of the *simulated* execution. Deterministic: a request must
/// reproduce them exactly on every iteration, and a host-only optimisation
/// must leave them bit-identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimCounters {
    /// Delivery events processed.
    pub events: u64,
    /// Link acknowledgments (one per delivery in a fault-free run).
    pub acks: u64,
    pub messages: u64,
    pub algorithm_messages: u64,
    /// `time_to_output` as bits, so the comparison is exact.
    pub time_to_output_bits: Option<u64>,
    pub time_to_quiescence_bits: u64,
    pub dropped_events: u64,
    pub fault_transitions: u64,
    pub ordering_violations: u64,
}

impl SimCounters {
    fn of(metrics: &RunMetrics, dropped: u64, transitions: u64, violations: u64) -> Self {
        SimCounters {
            events: metrics.events,
            acks: metrics.acks,
            messages: metrics.total_messages(),
            algorithm_messages: metrics.class_messages(MessageClass::Algorithm),
            time_to_output_bits: metrics.time_to_output.map(f64::to_bits),
            time_to_quiescence_bits: metrics.time_to_quiescence.to_bits(),
            dropped_events: dropped,
            fault_transitions: transitions,
            ordering_violations: violations,
        }
    }
}

/// Engine internals: host-side facts about how the engine ran the schedule.
/// Reported per layer, never part of run identity. The last two are only
/// visible on the engine's own report, which the traced path reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    pub batched_ticks: u64,
    pub peak_live_handles: u64,
    pub arena_bytes: u64,
    pub max_batch: u64,
    pub overflow_events: u64,
    pub pool_dispatches: u64,
}

/// One request's result as the harness sees it.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Why the request counts as failed; `None` when it verified.
    pub failure: Option<String>,
    pub sim: SimCounters,
    pub engine: EngineCounters,
    /// `time_to_output / T(A)`; `None` for churned requests.
    pub time_overhead: Option<f64>,
    /// `total_messages / M(A)`; `None` for churned requests.
    pub message_overhead: Option<f64>,
}

impl Outcome {
    fn failed(why: String) -> Outcome {
        Outcome {
            failure: Some(why),
            sim: SimCounters::of(&RunMetrics::default(), 0, 0, 0),
            engine: EngineCounters::default(),
            time_overhead: None,
            message_overhead: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Set-up: recipes → graphs, ground truth, configurations, pool
// ---------------------------------------------------------------------------

enum TruthOutputs {
    Bfs(Vec<Option<BfsOutput>>),
    Leader(Vec<Option<NodeId>>),
}

/// The synchronous ground truth of one `(graph, algorithm)` pair.
struct GroundTruth {
    graph: usize,
    algo: AlgoSpec,
    outputs: TruthOutputs,
    /// `T(A)`: rounds to quiescence.
    rounds: u64,
    /// `M(A)`.
    messages: u64,
}

struct PreparedRequest {
    graph: usize,
    /// BFS source set (unused by leader election).
    sources: [NodeId; 1],
    /// Whole-graph cover leader election convergecasts on.
    leader_cover: Option<Arc<SparseCover>>,
    truth: usize,
    kind: SyncKind,
    delay: DelayModel,
    scheduler: SchedulerKind,
    faults: Option<FaultPlan>,
    /// `Some(T(A))` for session workloads; `None` lets the service resolve it
    /// per request, as a client that does not know `T(A)` would.
    pulse_bound: Option<u64>,
    is_bfs: bool,
}

/// Everything set-up produces: what a cold request pays for before its first
/// asynchronous event.
pub struct Prepared {
    graphs: Vec<Graph>,
    truths: Vec<GroundTruth>,
    requests: Vec<PreparedRequest>,
    pool: Option<SessionPool>,
    pass: Vec<Call>,
}

fn build_graph(spec: GraphSpec) -> Graph {
    match spec {
        GraphSpec::Grid { rows, cols } => Graph::grid(rows, cols),
        GraphSpec::Torus { rows, cols } => Graph::torus(rows, cols),
        GraphSpec::Cycle { n } => Graph::cycle(n),
        GraphSpec::RandomRegular { n, degree, seed } => Graph::random_regular(n, degree, seed),
    }
}

fn build_delay(spec: DelaySpec) -> DelayModel {
    match spec {
        DelaySpec::Uniform => DelayModel::uniform(),
        DelaySpec::Jitter { seed } => DelayModel::jitter(seed),
        DelaySpec::JitterAtLeast { seed, min_fraction } => {
            DelayModel::jitter_at_least(seed, min_fraction)
        }
        DelaySpec::Outage { seed, period_units, outage_units } => {
            DelayModel::outage(seed, period_units, outage_units)
        }
    }
}

fn build_scheduler(spec: EngineSpec) -> SchedulerKind {
    match spec {
        EngineSpec::Wheel => SchedulerKind::TimingWheel,
        EngineSpec::Heap => SchedulerKind::BinaryHeap,
        EngineSpec::Sharded { shards, workers } => SchedulerKind::Sharded { shards, workers },
    }
}

/// Runs `f` inside a span when tracing, bare otherwise.
fn spanned<T>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce(&mut Option<&mut Tracer>) -> T,
) -> T {
    match tr {
        Some(tracer) => tracer.scope(name, |t| f(&mut Some(t))),
        None => f(&mut None),
    }
}

/// `SynchronizerConfig::build`, or under tracing its three public steps with
/// a span each (`tests::the_traced_config_build_equals_the_real_one` pins the
/// two to the same result).
fn build_config(
    graph: &Graph,
    max_pulse: u64,
    tr: &mut Option<&mut Tracer>,
) -> Arc<SynchronizerConfig> {
    if tr.is_none() {
        return SynchronizerConfig::build(graph, max_pulse);
    }
    spanned(tr, "sync.config_build", |tr| {
        let (_, upper) = spanned(tr, "graph.diameter_bounds", |_| metrics::diameter_bounds(graph))
            .expect("workload graphs are connected");
        let covers = spanned(tr, "covers.build", |_| {
            build_synchronizer_cover(graph, max_pulse as usize, upper.max(1))
        });
        SynchronizerConfig::with_covers(covers, max_pulse)
    })
}

/// Churn plan of a request: a few link and node outages inside the first
/// pulses, where they are sure to hit traffic.
fn churn_plan(graph: &Graph, seed: u64) -> FaultPlan {
    FaultPlan::random_churn(graph, seed, 6, 2, 5 * TICKS_PER_UNIT)
}

impl Prepared {
    /// One from-scratch set-up of `spec`: graph generation, the `Direct`
    /// ground-truth runs, `SynchronizerConfig::build` for prebuilt det
    /// requests, the leader-election covers, and for a pooled workload the
    /// pool, its cache and a prewarm of every cacheable configuration. With a
    /// tracer, each layer call gets a span.
    pub fn build(spec: &WorkloadSpec, mut tracer: Option<&mut Tracer>) -> Prepared {
        let tr = &mut tracer;
        let graphs: Vec<Graph> = spanned(tr, "graph.generate", |_| {
            spec.graphs.iter().copied().map(build_graph).collect()
        });
        let mut leader_covers: Vec<Option<Arc<SparseCover>>> = vec![None; graphs.len()];
        let mut prebuilt: Vec<(usize, u64, Arc<SynchronizerConfig>)> = Vec::new();
        let mut truths: Vec<GroundTruth> = Vec::new();
        let mut requests = Vec::with_capacity(spec.requests.len());
        for req in &spec.requests {
            let graph = &graphs[req.graph];
            let (sources, is_bfs) = match req.algo {
                AlgoSpec::Bfs { source } => ([NodeId(source)], true),
                AlgoSpec::Leader => ([NodeId(0)], false),
            };
            let leader_cover = (!is_bfs).then(|| {
                Arc::clone(leader_covers[req.graph].get_or_insert_with(|| {
                    let diameter = spanned(tr, "graph.diameter", |_| metrics::diameter(graph))
                        .expect("workload graphs are connected");
                    spanned(tr, "covers.build", |_| {
                        Arc::new(build_sparse_cover(graph, diameter.max(1)))
                    })
                }))
            });
            let truth = match truths.iter().position(|t| t.graph == req.graph && t.algo == req.algo)
            {
                Some(at) => at,
                None => {
                    truths.push(spanned(tr, "netsim.sync_engine", |_| {
                        ground_truth(req.graph, req.algo, graph, &sources, leader_cover.as_ref())
                    }));
                    truths.len() - 1
                }
            };
            let rounds = truths[truth].rounds;
            let kind = match req.sync {
                SyncSpec::Alpha => SyncKind::Alpha,
                SyncSpec::Beta => SyncKind::Beta { root: NodeId(0) },
                SyncSpec::DetAuto => SyncKind::DetAuto,
                SyncSpec::DetPrebuilt => {
                    let at = prebuilt.iter().position(|(g, t, _)| (*g, *t) == (req.graph, rounds));
                    let cfg = match at {
                        Some(at) => Arc::clone(&prebuilt[at].2),
                        None => {
                            let cfg = build_config(graph, rounds, tr);
                            prebuilt.push((req.graph, rounds, Arc::clone(&cfg)));
                            cfg
                        }
                    };
                    SyncKind::Det(cfg)
                }
            };
            requests.push(PreparedRequest {
                graph: req.graph,
                sources,
                leader_cover,
                truth,
                kind,
                delay: build_delay(req.delay),
                scheduler: build_scheduler(req.engine),
                faults: req.churn.map(|seed| churn_plan(graph, seed)),
                pulse_bound: spec.pool.is_none().then_some(rounds),
                is_bfs,
            });
        }
        let pool = spec.pool.map(|PoolSpec { workers, cache_capacity }| {
            let pool = SessionPool::with_cache(workers, CoverCache::with_capacity(cache_capacity));
            // Prewarm: a long-lived service has seen its topologies before
            // the timed loop starts. More keys than capacity, so this
            // already evicts.
            for req in requests.iter().filter(|r| matches!(r.kind, SyncKind::DetAuto)) {
                let params = SynchronizerParams { max_pulse: truths[req.truth].rounds };
                spanned(tr, "sync.cache.prewarm", |_| {
                    pool.cache().get_or_build(&graphs[req.graph], params)
                });
            }
            pool
        });
        Prepared { graphs, truths, requests, pool, pass: spec.pass.clone() }
    }

    pub fn pass(&self) -> &[Call] {
        &self.pass
    }

    pub fn request_count(&self) -> usize {
        self.requests.len()
    }

    /// Whether request `r` runs fault-free (its outputs must equal the
    /// ground truth and it contributes to the overhead means).
    pub fn is_fault_free(&self, r: usize) -> bool {
        self.requests[r].faults.is_none()
    }

    /// `(n, m)` of the graph request `r` runs on.
    pub fn graph_size(&self, r: usize) -> (usize, usize) {
        let g = &self.graphs[self.requests[r].graph];
        (g.node_count(), g.edge_count())
    }

    /// BFS source of request `r` (`None` for leader election).
    pub fn bfs_source(&self, r: usize) -> Option<usize> {
        self.requests[r].is_bfs.then(|| self.requests[r].sources[0].index())
    }

    /// `(hits, misses, evictions)` of the pool's cover cache; zeros without a pool.
    pub fn cache_counters(&self) -> (u64, u64, u64) {
        self.pool
            .as_ref()
            .map_or((0, 0, 0), |p| (p.cache().hits(), p.cache().misses(), p.cache().evictions()))
    }

    /// `(checkouts, reuses)` of the pool's slab bank; zeros without a pool.
    pub fn slab_counters(&self) -> (u64, u64) {
        self.pool.as_ref().map_or((0, 0), |p| (p.bank().checkouts(), p.bank().reuses()))
    }
}

fn ground_truth(
    graph_index: usize,
    algo: AlgoSpec,
    graph: &Graph,
    sources: &[NodeId; 1],
    leader_cover: Option<&Arc<SparseCover>>,
) -> GroundTruth {
    let session = Session::on(graph).synchronizer(SyncKind::Direct);
    let (outputs, metrics) = match leader_cover {
        None => {
            let run = session
                .run(|v| BfsAlgorithm::new(graph, v, sources))
                .expect("the synchronous BFS terminates");
            (TruthOutputs::Bfs(run.outputs), run.metrics)
        }
        Some(cover) => {
            let run = session
                .run(|v| LeaderElection::new(v, Arc::clone(cover)))
                .expect("the synchronous election terminates");
            (TruthOutputs::Leader(run.outputs), run.metrics)
        }
    };
    GroundTruth {
        graph: graph_index,
        algo,
        outputs,
        rounds: (metrics.time_to_quiescence as u64).max(1),
        messages: metrics.total_messages(),
    }
}

// ---------------------------------------------------------------------------
// The two algorithms, behind one trait so calls are written once
// ---------------------------------------------------------------------------

/// A benchmarked algorithm: how to instantiate it for a prepared request,
/// how its outputs compare with the ground truth, and what a churned run may
/// still claim.
trait BenchAlgo<'p>: EventDriven + Sized {
    fn make(p: &'p Prepared, req: &'p PreparedRequest, v: NodeId) -> Self;
    fn equals_truth(out: &[Option<Self::Output>], truth: &TruthOutputs) -> bool;
    /// Whether a churned run's partial outputs are still sound against the
    /// fault-free truth.
    fn degraded_outputs_sound(out: &[Option<Self::Output>], truth: &TruthOutputs) -> bool;
}

impl<'p> BenchAlgo<'p> for BfsAlgorithm<'p> {
    fn make(p: &'p Prepared, req: &'p PreparedRequest, v: NodeId) -> Self {
        BfsAlgorithm::new(&p.graphs[req.graph], v, &req.sources)
    }

    fn equals_truth(out: &[Option<BfsOutput>], truth: &TruthOutputs) -> bool {
        matches!(truth, TruthOutputs::Bfs(want) if want == out)
    }

    /// Drops can starve a node, never mislead it: a reported distance is the
    /// length of a real path, so it is never below the true distance.
    fn degraded_outputs_sound(out: &[Option<BfsOutput>], truth: &TruthOutputs) -> bool {
        let TruthOutputs::Bfs(truth) = truth else { return false };
        out.iter().zip(truth).all(|(got, want)| match (got, want) {
            (Some(got), Some(want)) => got.distance >= want.distance,
            (Some(_), None) => false,
            (None, _) => true,
        })
    }
}

impl<'p> BenchAlgo<'p> for LeaderElection {
    fn make(_: &'p Prepared, req: &'p PreparedRequest, v: NodeId) -> Self {
        let cover = req.leader_cover.as_ref().expect("leader requests carry their cover");
        LeaderElection::new(v, Arc::clone(cover))
    }

    fn equals_truth(out: &[Option<NodeId>], truth: &TruthOutputs) -> bool {
        matches!(truth, TruthOutputs::Leader(want) if want == out)
    }

    /// Survivors agree: every output descends from one root's broadcast.
    fn degraded_outputs_sound(out: &[Option<NodeId>], _: &TruthOutputs) -> bool {
        let mut decided = out.iter().flatten();
        decided.next().is_none_or(|first| decided.all(|other| other == first))
    }
}

// ---------------------------------------------------------------------------
// One verified top-level call
// ---------------------------------------------------------------------------

/// What the engine reported for one finished run, from either path.
struct Finished<O> {
    outputs: Vec<Option<O>>,
    metrics: RunMetrics,
    ordering_violations: u64,
    dropped_events: u64,
    fault_transitions: u64,
    /// `health` as `Session` computed it; the traced path derives its own.
    health: Option<(Vec<NodeId>, Vec<NodeId>)>,
    engine: EngineCounters,
}

impl<O> Finished<O> {
    fn of_run(run: SynchronizedRun<O>) -> Self {
        Finished {
            outputs: run.outputs,
            metrics: run.metrics,
            ordering_violations: run.ordering_violations,
            dropped_events: run.dropped_events,
            fault_transitions: run.fault_transitions,
            health: Some((run.health.crashed, run.health.missing)),
            engine: EngineCounters {
                batched_ticks: run.batched_ticks,
                peak_live_handles: run.peak_live_handles,
                arena_bytes: run.arena_bytes,
                max_batch: run.max_batch,
                overflow_events: 0,
                pool_dispatches: 0,
            },
        }
    }
}

/// Checks a finished run against the ground truth (fault-free) or against
/// what a churned run may claim, and condenses it to an [`Outcome`].
fn verify<'p, A: BenchAlgo<'p>>(
    p: &'p Prepared,
    req: &'p PreparedRequest,
    run: Finished<A::Output>,
) -> Outcome {
    let truth = &p.truths[req.truth];
    let missing: Vec<NodeId> =
        (0..run.outputs.len()).filter(|&i| run.outputs[i].is_none()).map(NodeId).collect();
    let failure = match &req.faults {
        None => {
            if !A::equals_truth(&run.outputs, &truth.outputs) {
                Some("outputs differ from the Direct ground truth".to_string())
            } else if run.ordering_violations != 0 {
                Some(format!("{} ordering violations", run.ordering_violations))
            } else if run.dropped_events != 0 || run.fault_transitions != 0 {
                Some("a fault-free run reported drops or fault transitions".to_string())
            } else if run.metrics.time_to_output.is_none() {
                Some("some node never produced its output".to_string())
            } else {
                None
            }
        }
        Some(plan) => {
            let crashed = plan.crashed_at_end(run.outputs.len());
            if !run.metrics.time_to_quiescence.is_finite() {
                Some("the churned run did not terminate".to_string())
            } else if run.health.as_ref().is_some_and(|h| *h != (crashed, missing)) {
                Some("RunHealth disagrees with the outputs or the fault plan".to_string())
            } else if !A::degraded_outputs_sound(&run.outputs, &truth.outputs) {
                Some("a churned run reported an unsound output".to_string())
            } else {
                None
            }
        }
    };
    let fault_free = req.faults.is_none();
    Outcome {
        failure,
        time_overhead: run
            .metrics
            .time_to_output
            .filter(|_| fault_free)
            .map(|t| t / truth.rounds.max(1) as f64),
        message_overhead: fault_free
            .then(|| run.metrics.total_messages() as f64 / truth.messages.max(1) as f64),
        sim: SimCounters::of(
            &run.metrics,
            run.dropped_events,
            run.fault_transitions,
            run.ordering_violations,
        ),
        engine: run.engine,
    }
}

fn outcome_of<'p, A: BenchAlgo<'p>>(
    p: &'p Prepared,
    req: &'p PreparedRequest,
    result: Result<SynchronizedRun<A::Output>, SessionError>,
) -> Outcome {
    match result {
        Ok(run) => verify::<A>(p, req, Finished::of_run(run)),
        Err(e) => Outcome::failed(format!("request returned an error: {e}")),
    }
}

/// How a stand-alone run of one request departs from its recipe: the A/B
/// variants the per-layer comparisons need.
#[derive(Clone, Copy, Debug, Default)]
pub struct Variant<'b> {
    /// Run on this engine instead of the request's own.
    pub engine: Option<EngineSpec>,
    /// Draw engine state from this recycling bank.
    pub bank: Option<&'b Bank>,
}

/// A recycling bank of engine slabs (`SlabBank`), opaque to the harness.
#[derive(Clone, Debug, Default)]
pub struct Bank(SlabBank);

impl Bank {
    pub fn new() -> Bank {
        Bank::default()
    }
}

fn session_for<'p>(p: &'p Prepared, req: &'p PreparedRequest, variant: Variant<'_>) -> Session<'p> {
    let mut session = Session::on(&p.graphs[req.graph])
        .delay(req.delay.clone())
        .scheduler(variant.engine.map_or(req.scheduler, build_scheduler))
        .synchronizer(req.kind.clone());
    if let Some(bound) = req.pulse_bound {
        session = session.pulse_bound(bound);
    }
    if let Some(plan) = &req.faults {
        session = session.faults(plan.clone());
    }
    if let Some(bank) = variant.bank {
        session = session.recycle(bank.0.clone());
    }
    session
}

fn run_session<'p, A: BenchAlgo<'p>>(p: &'p Prepared, r: usize, variant: Variant<'_>) -> Outcome {
    let req = &p.requests[r];
    let result = session_for(p, req, variant).run(|v| A::make(p, req, v));
    outcome_of::<A>(p, req, result)
}

fn run_pooled<'p, A>(p: &'p Prepared, pool: &SessionPool, batch: &[usize]) -> Vec<Outcome>
where
    A: BenchAlgo<'p>,
    A::Output: Send,
{
    let reqs: Vec<&'p PreparedRequest> = batch.iter().map(|&r| &p.requests[r]).collect();
    let service: Vec<ServiceRequest<'p>> = reqs
        .iter()
        .map(|req| {
            let mut s = ServiceRequest::on(&p.graphs[req.graph])
                .delay(req.delay.clone())
                .synchronizer(req.kind.clone())
                .scheduler(req.scheduler);
            if let Some(bound) = req.pulse_bound {
                s = s.pulse_bound(bound);
            }
            if let Some(plan) = &req.faults {
                s = s.faults(plan.clone());
            }
            s
        })
        .collect();
    let make_reqs = reqs.clone();
    let results = pool.run_batch(&service, move |i, v| A::make(p, make_reqs[i], v));
    results.into_iter().zip(reqs).map(|(result, req)| outcome_of::<A>(p, req, result)).collect()
}

impl Prepared {
    /// One top-level call, request in → verified run out: each batch goes to
    /// the pool's `run_batch` when the workload has a pool, and through
    /// `Session::run` otherwise. Outcomes come back in `call` order.
    pub fn run_call(&self, call: &Call) -> Vec<Outcome> {
        let mut outcomes = Vec::new();
        for batch in call {
            let bfs = self.requests[batch[0]].is_bfs;
            debug_assert!(batch.iter().all(|&r| self.requests[r].is_bfs == bfs));
            match (&self.pool, bfs) {
                (Some(pool), true) => {
                    outcomes.extend(run_pooled::<BfsAlgorithm>(self, pool, batch))
                }
                (Some(pool), false) => {
                    outcomes.extend(run_pooled::<LeaderElection>(self, pool, batch))
                }
                (None, _) => outcomes
                    .extend(batch.iter().map(|&r| self.run_standalone(r, Variant::default()))),
            }
        }
        outcomes
    }

    /// Request `r` through a stand-alone `Session`, optionally on another
    /// engine or over recycled engine state.
    pub fn run_standalone(&self, r: usize, variant: Variant<'_>) -> Outcome {
        if self.requests[r].is_bfs {
            run_session::<BfsAlgorithm>(self, r, variant)
        } else {
            run_session::<LeaderElection>(self, r, variant)
        }
    }
}

// ---------------------------------------------------------------------------
// The traced mirror of one call
// ---------------------------------------------------------------------------

/// A protocol wrapper that accumulates how often and how long the wrapped
/// protocol's handlers ran. Two clock reads per activation.
struct Timed<P> {
    inner: P,
    calls: u64,
    busy_ns: u64,
}

impl<P> Timed<P> {
    fn new(inner: P) -> Self {
        Timed { inner, calls: 0, busy_ns: 0 }
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Message = P::Message;

    fn on_start(&mut self, ctx: &mut Ctx<Self::Message>) {
        let start = Instant::now();
        self.inner.on_start(ctx);
        self.busy_ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut Ctx<Self::Message>) {
        let start = Instant::now();
        self.inner.on_message(from, msg, ctx);
        self.busy_ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

/// The same for the wrapped algorithm's pulse handlers.
#[derive(Debug)]
struct TimedAlg<A> {
    inner: A,
    calls: u64,
    busy_ns: u64,
}

impl<A> TimedAlg<A> {
    fn new(inner: A) -> Self {
        TimedAlg { inner, calls: 0, busy_ns: 0 }
    }
}

impl<A: EventDriven> EventDriven for TimedAlg<A> {
    type Msg = A::Msg;
    type Output = A::Output;

    fn on_init(&mut self, ctx: &mut PulseCtx<Self::Msg>) {
        let start = Instant::now();
        self.inner.on_init(ctx);
        self.busy_ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
    }

    fn on_pulse(&mut self, received: &[(NodeId, Self::Msg)], ctx: &mut PulseCtx<Self::Msg>) {
        let start = Instant::now();
        self.inner.on_pulse(received, ctx);
        self.busy_ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
    }

    fn output(&self) -> Option<Self::Output> {
        self.inner.output()
    }
}

/// Drives the engine the request names with `Timed` nodes — the same
/// dispatch `ds-sync`'s executor makes — inside a `netsim.run` span, and
/// hangs the accumulated protocol and algorithm totals off it.
fn drive<P, F>(
    graph: &Graph,
    req: &PreparedRequest,
    bank: Option<&SlabBank>,
    tr: &mut Tracer,
    mut make: F,
) -> Result<AsyncReport<Timed<P>>, SimError>
where
    P: Protocol + Send,
    P::Message: Send + 'static,
    F: FnMut(NodeId) -> P,
{
    let limits = SimLimits::default();
    let faults = req.faults.as_ref();
    tr.scope("netsim.run", |tr| {
        let make = |v| Timed::new(make(v));
        let report = match (req.scheduler, bank) {
            (SchedulerKind::TimingWheel, Some(bank)) => {
                let mut slab = bank.checkout::<P::Message>();
                let report =
                    run_async_recycled(graph, req.delay.clone(), faults, make, limits, &mut slab)?;
                bank.check_in(slab);
                report
            }
            (SchedulerKind::Sharded { shards, workers }, _) => run_async_sharded_faulted_with(
                graph,
                req.delay.clone(),
                faults,
                make,
                limits,
                ShardedOptions {
                    workers,
                    threads: ThreadMode::Auto,
                    ..ShardedOptions::new(shards)
                },
            )?,
            (kind, _) => run_async_faulted(graph, req.delay.clone(), faults, make, limits, kind)?,
        };
        let calls = report.nodes.iter().map(|n| n.calls).sum();
        let busy = report.nodes.iter().map(|n| n.busy_ns).sum();
        tr.aggregate(None, "sync.protocol", calls, busy);
        Ok(report)
    })
}

/// One cover-cache lookup under a `sync.cache.lookup` span, classified after
/// the fact as `sync.cache.hit` or `sync.cache.miss` (an aggregate child that
/// covers the whole lookup) by whether the cache's miss counter moved. Exact
/// because the traced run is inline: nothing else touches the cache meanwhile.
fn cached_config(
    cache: &CoverCache,
    graph: &Graph,
    max_pulse: u64,
    tr: &mut Tracer,
) -> Arc<SynchronizerConfig> {
    let misses_before = cache.misses();
    let lookup = tr.spans().len();
    let cfg = tr.scope("sync.cache.lookup", |_| {
        cache.get_or_build(graph, SynchronizerParams { max_pulse })
    });
    let outcome =
        if cache.misses() == misses_before { "sync.cache.hit" } else { "sync.cache.miss" };
    let busy = tr.spans()[lookup].duration_ns();
    tr.aggregate(Some(lookup), outcome, 1, busy);
    cfg
}

/// Closes a traced engine run: hangs the algorithm wrappers' summed totals
/// under the run's `sync.protocol` aggregate (the most recent span), collects
/// the outputs, and copies the engine's own counters.
fn finish<P, A: EventDriven>(
    tr: &mut Tracer,
    report: &AsyncReport<Timed<P>>,
    algorithm_of: impl Fn(&P) -> &TimedAlg<A>,
    ordering_violations: u64,
) -> Finished<A::Output> {
    let protocol = tr.spans().len() - 1;
    debug_assert_eq!(tr.spans()[protocol].name, "sync.protocol");
    let algorithms = || report.nodes.iter().map(|n| algorithm_of(&n.inner));
    let (calls, busy) =
        algorithms().fold((0, 0), |(calls, busy), a| (calls + a.calls, busy + a.busy_ns));
    tr.aggregate(Some(protocol), "algos.on_pulse", calls, busy);
    Finished {
        outputs: algorithms().map(TimedAlg::output).collect(),
        metrics: report.metrics.clone(),
        ordering_violations,
        dropped_events: report.dropped_events,
        fault_transitions: report.fault_transitions,
        health: None,
        engine: EngineCounters {
            batched_ticks: report.batched_ticks,
            peak_live_handles: report.peak_live_handles,
            arena_bytes: report.arena_bytes,
            max_batch: report.max_batch,
            overflow_events: report.overflow_events,
            pool_dispatches: report.pool_dispatches,
        },
    }
}

/// The traced equivalent of `Session::run` / the service's `run_one` for one
/// request, inline on the calling thread.
fn run_traced<'p, A: BenchAlgo<'p>>(p: &'p Prepared, r: usize, tr: &mut Tracer) -> Outcome {
    let req = &p.requests[r];
    let graph = &p.graphs[req.graph];
    let bank = p.pool.as_ref().map(SessionPool::bank);
    let finished = tr.scope("sync.session.run", |tr| -> Result<Finished<A::Output>, SimError> {
        let bound = match req.pulse_bound {
            Some(bound) => bound.max(1),
            None => tr.scope("netsim.sync_engine", |_| {
                run_sync(graph, |v| A::make(p, req, v), SimLimits::default().max_rounds)
                    .map(|sync| sync.rounds_to_quiescence.max(1))
            })?,
        };
        match &req.kind {
            SyncKind::Det(_) | SyncKind::DetAuto => {
                let cfg = match (&req.kind, &p.pool) {
                    (SyncKind::Det(cfg), _) => Arc::clone(cfg),
                    (_, Some(pool)) => cached_config(pool.cache(), graph, bound, tr),
                    (_, None) => build_config(graph, bound, &mut Some(&mut *tr)),
                };
                let report = drive(graph, req, bank, tr, |v| {
                    DetSynchronizer::new(v, TimedAlg::new(A::make(p, req, v)), cfg.clone())
                })?;
                let violations = report.nodes.iter().map(|n| n.inner.ordering_violations()).sum();
                Ok(finish(tr, &report, DetSynchronizer::algorithm, violations))
            }
            SyncKind::Alpha => {
                let report = drive(graph, req, bank, tr, |v| {
                    AlphaSynchronizer::new(graph, v, TimedAlg::new(A::make(p, req, v)), bound)
                })?;
                Ok(finish(tr, &report, AlphaSynchronizer::algorithm, 0))
            }
            SyncKind::Beta { root } => {
                let tree = SpanningTree::bfs(graph, *root);
                let report = drive(graph, req, bank, tr, |v| {
                    let alg = TimedAlg::new(A::make(p, req, v));
                    BetaSynchronizer::new(Arc::clone(&tree), v, alg, bound)
                })?;
                Ok(finish(tr, &report, BetaSynchronizer::algorithm, 0))
            }
            SyncKind::Direct => unreachable!("no workload times the lock-step executor"),
        }
    });
    tr.scope("verify", |_| match finished {
        Ok(run) => verify::<A>(p, req, run),
        Err(e) => Outcome::failed(format!("request returned an error: {e}")),
    })
}

impl Prepared {
    /// The traced mirror of [`Prepared::run_call`]: every request of the call
    /// runs inline on this thread with spans at each layer boundary, pooled
    /// requests still going through the pool's cache and slab bank.
    /// `first_request_id` numbers the call's requests in the trace.
    pub fn run_call_traced(
        &self,
        call: &Call,
        tr: &mut Tracer,
        first_request_id: u64,
    ) -> Vec<Outcome> {
        call.iter()
            .flatten()
            .zip(first_request_id..)
            .map(|(&r, id)| {
                tr.set_request(id);
                if self.requests[r].is_bfs {
                    run_traced::<BfsAlgorithm>(self, r, tr)
                } else {
                    run_traced::<LeaderElection>(self, r, tr)
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Per-layer probes outside the request path
// ---------------------------------------------------------------------------

/// Shape of the layered cover a det request synchronizes over.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoverShape {
    pub layers: u64,
    pub clusters: u64,
    pub max_membership: u64,
    pub max_height: u64,
}

impl Prepared {
    /// Cover shape of request `r`'s configuration; zeros for alpha and beta,
    /// which use no cover.
    pub fn cover_shape(&self, r: usize) -> CoverShape {
        let req = &self.requests[r];
        let cfg = match &req.kind {
            SyncKind::Det(cfg) => Arc::clone(cfg),
            SyncKind::DetAuto => {
                SynchronizerConfig::build(&self.graphs[req.graph], self.truths[req.truth].rounds)
            }
            _ => return CoverShape::default(),
        };
        let of = |f: fn(&SparseCover) -> usize| cfg.covers.iter().map(f).max().unwrap_or(0) as u64;
        CoverShape {
            layers: cfg.covers.layers() as u64,
            clusters: cfg.covers.iter().map(SparseCover::cluster_count).sum::<usize>() as u64,
            max_membership: of(SparseCover::max_membership),
            max_height: of(SparseCover::max_height),
        }
    }

    /// Seconds one `Graph::structural_hash` over request `r`'s graph takes
    /// (the floor under a cover-cache hit), median of `reps`.
    pub fn structural_hash_s(&self, r: usize, reps: usize) -> f64 {
        let graph = &self.graphs[self.requests[r].graph];
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let start = Instant::now();
                black_box(black_box(graph).structural_hash());
                start.elapsed().as_secs_f64()
            })
            .collect();
        crate::stats::median(&samples)
    }

    /// Request `r`'s delivery trace (one `Session::record_trace(true)` run)
    /// as replay rows.
    pub fn delivery_rows(&self, r: usize) -> Result<Vec<DeliveryRow>, String> {
        let req = &self.requests[r];
        let graph = &self.graphs[req.graph];
        let session = session_for(self, req, Variant::default()).record_trace(true);
        let trace = if req.is_bfs {
            session.run(|v| BfsAlgorithm::make(self, req, v)).map(|run| run.trace)
        } else {
            session.run(|v| LeaderElection::make(self, req, v)).map(|run| run.trace)
        }
        .map_err(|e| e.to_string())?
        .ok_or("the session recorded no trace")?;
        Ok(trace
            .records
            .iter()
            .map(|rec| DeliveryRow {
                seq: rec.seq,
                tick: rec.tick,
                link: graph.edge_id(rec.src, rec.dst).expect("deliveries cross edges").0,
                cause: rec.cause,
            })
            .collect())
    }
}

/// Wall time of one `SessionPool::run_batch` over eight requests with next
/// to no work in them (lock-step BFS on a two-node path): what a call pays to
/// spin the `workers` threads up and down. Median of `reps`.
pub fn pool_spinup_s(workers: usize, reps: usize) -> f64 {
    let graph = Graph::path(2);
    let sources = [NodeId(0)];
    let pool = SessionPool::new(workers);
    let requests: Vec<ServiceRequest<'_>> =
        (0..8).map(|_| ServiceRequest::on(&graph).synchronizer(SyncKind::Direct)).collect();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let results = pool.run_batch(&requests, |_, v| BfsAlgorithm::new(&graph, v, &sources));
            assert!(results.iter().all(Result::is_ok), "the no-op batch must succeed");
            start.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&samples)
}

// ---------------------------------------------------------------------------
// Bare data-structure replays
// ---------------------------------------------------------------------------

/// Stand-in payload for the arena replay: the size class of the protocols'
/// message enums.
type ReplayPayload = [u64; 4];

/// Seconds to push the schedule through a bare `TimingWheel`: every delivery
/// is scheduled when its cause is drained, and drained at its own tick. The
/// wheel's horizon is the schedule's largest cause→effect distance, so
/// deliveries released by an acknowledgment do not spill into overflow tiers
/// they never saw in the engine (there the acknowledgment was an event of
/// its own).
pub fn replay_wheel_s(schedule: &ReplaySchedule) -> f64 {
    let horizon = schedule.max_distance.max(TICKS_PER_UNIT);
    let start = Instant::now();
    let mut wheel: TimingWheel<EvRef> = TimingWheel::new(horizon);
    let mut seq = 0u64;
    for &root in &schedule.roots {
        wheel.schedule(schedule.tick[root as usize], seq, EvRef::deliver(0, root));
        seq += 1;
    }
    let mut due = Vec::new();
    let mut drained = 0usize;
    while wheel.take_due(&mut due).is_some() {
        for (_, event) in due.drain(..) {
            drained += 1;
            for &child in schedule.children_of(event.payload as usize) {
                let at = schedule.tick[child as usize];
                wheel.schedule(at, seq, EvRef::deliver(schedule.link[child as usize], child));
                seq += 1;
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(drained, schedule.len(), "the wheel replay must drain every delivery");
    elapsed
}

/// Seconds to push the schedule through bare per-link `StageQueue`s: a
/// delivery is queued on its link when its cause is processed (priority: the
/// pulse-sized time bucket it lands in) and popped when its own turn comes.
pub fn replay_stage_queue_s(schedule: &ReplaySchedule) -> f64 {
    let start = Instant::now();
    let mut queues: Vec<StageQueue<u32>> = (0..schedule.links).map(|_| StageQueue::new()).collect();
    let mut seq = 0u64;
    let mut push = |queues: &mut Vec<StageQueue<u32>>, i: u32| {
        let priority = schedule.tick[i as usize] / TICKS_PER_UNIT;
        queues[schedule.link[i as usize] as usize].push(priority, seq, i);
        seq += 1;
    };
    for &root in &schedule.roots {
        push(&mut queues, root);
    }
    let mut popped = 0usize;
    for i in 0..schedule.len() {
        popped += usize::from(queues[schedule.link[i] as usize].pop().is_some());
        for &child in schedule.children_of(i) {
            push(&mut queues, child);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(popped, schedule.len(), "the queue replay must pop every delivery");
    elapsed
}

/// Seconds to push the schedule through a bare `PayloadArena`: a payload is
/// allocated when the delivery's cause is processed and taken at its turn.
pub fn replay_arena_s(schedule: &ReplaySchedule) -> f64 {
    let start = Instant::now();
    let mut arena: PayloadArena<ReplayPayload> = PayloadArena::new();
    let mut handle = vec![0u32; schedule.len()];
    for &root in &schedule.roots {
        handle[root as usize] = arena.alloc([u64::from(root); 4]);
    }
    let mut checksum = 0u64;
    for i in 0..schedule.len() {
        checksum = checksum.wrapping_add(arena.take(handle[i])[0]);
        for &child in schedule.children_of(i) {
            handle[child as usize] = arena.alloc([u64::from(child); 4]);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(arena.live(), 0, "the arena replay must return every handle");
    black_box(checksum);
    elapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{self, RequestSpec};

    /// A small det-on-grid workload: one prebuilt-det request per corner.
    fn small_grid(engine: EngineSpec, delay: DelaySpec) -> WorkloadSpec {
        let requests: Vec<RequestSpec> = [0usize, 7, 56, 63]
            .iter()
            .map(|&source| RequestSpec {
                graph: 0,
                algo: AlgoSpec::Bfs { source },
                sync: SyncSpec::DetPrebuilt,
                delay,
                engine,
                churn: None,
            })
            .collect();
        WorkloadSpec {
            name: "small_grid",
            graphs: vec![GraphSpec::Grid { rows: 8, cols: 8 }],
            pass: (0..requests.len()).map(|r| vec![vec![r]]).collect(),
            requests,
            pool: None,
            calls_per_second: 1.0,
            setup_reps: 1,
        }
    }

    #[test]
    fn the_traced_config_build_equals_the_real_one() {
        let graph = Graph::grid(9, 7);
        let mut tracer = Tracer::new();
        let traced = build_config(&graph, 14, &mut Some(&mut tracer));
        assert_eq!(*traced, *SynchronizerConfig::build(&graph, 14));
        let names: Vec<_> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["sync.config_build", "graph.diameter_bounds", "covers.build"]);
    }

    #[test]
    fn traced_and_untraced_calls_agree_on_every_simulated_counter() {
        for (engine, delay) in [
            (EngineSpec::Wheel, DelaySpec::Uniform),
            (EngineSpec::Heap, DelaySpec::Jitter { seed: 5 }),
            (
                EngineSpec::Sharded { shards: 2, workers: 0 },
                DelaySpec::JitterAtLeast { seed: 9, min_fraction: 0.5 },
            ),
        ] {
            let spec = small_grid(engine, delay);
            let p = Prepared::build(&spec, None);
            let mut tracer = Tracer::new();
            for call in p.pass() {
                let plain = p.run_call(call);
                let traced = p.run_call_traced(call, &mut tracer, 0);
                assert_eq!(plain.len(), 1);
                assert_eq!(plain[0].failure, None);
                assert_eq!(traced[0].failure, None);
                assert_eq!(plain[0].sim, traced[0].sim);
                assert!(plain[0].sim.events > 0 && plain[0].time_overhead.is_some());
            }
            let totals = tracer.layer_totals(0);
            let protocol = crate::trace::total_of(&totals, "sync.protocol");
            // One activation per delivery plus one start per node, per request.
            let events: u64 = p.pass().iter().map(|c| p.run_call(c)[0].sim.events).sum();
            assert_eq!(protocol.calls, events + 4 * 64);
            assert!(crate::trace::total_of(&totals, "algos.on_pulse").calls >= 4 * 64);
        }
    }

    #[test]
    fn the_service_mix_verifies_pooled_traced_and_standalone() {
        let mut spec = workloads::generate("service_mix", 5);
        // The first cycle is enough here.
        spec.pass.truncate(1);
        spec.requests.truncate(16);
        let p = Prepared::build(&spec, None);
        let (_, prewarm_misses, prewarm_evictions) = p.cache_counters();
        assert!(prewarm_misses >= 6 && prewarm_evictions > 0);
        let call = &p.pass()[0];
        let pooled = p.run_call(call);
        let again = p.run_call(call);
        let mut tracer = Tracer::new();
        let traced = p.run_call_traced(call, &mut tracer, 100);
        assert_eq!(pooled.len(), 16);
        for (i, &r) in call.iter().flatten().enumerate() {
            assert_eq!(pooled[i].failure, None, "request {r}");
            assert_eq!(traced[i].failure, None, "request {r}");
            assert_eq!(pooled[i].sim, again[i].sim, "request {r}");
            assert_eq!(pooled[i].sim, traced[i].sim, "request {r}");
            assert_eq!(pooled[i].sim, p.run_standalone(r, Variant::default()).sim, "request {r}");
            assert_eq!(pooled[i].time_overhead.is_some(), p.is_fault_free(r));
        }
        assert!(pooled.iter().any(|o| o.sim.dropped_events > 0), "churn must drop something");
        assert!(tracer.spans().iter().any(|s| s.name == "sync.cache.lookup" && s.request >= 100));
        let (checkouts, reuses) = p.slab_counters();
        assert!(checkouts >= 48 && reuses > 0);
    }

    #[test]
    fn replays_drain_a_real_trace() {
        let spec = small_grid(EngineSpec::Wheel, DelaySpec::Jitter { seed: 3 });
        let p = Prepared::build(&spec, None);
        let rows = p.delivery_rows(0).expect("traced run");
        assert_eq!(rows.len() as u64, p.run_standalone(0, Variant::default()).sim.events);
        let schedule = ReplaySchedule::build(&rows);
        assert!(schedule.max_distance <= 2 * TICKS_PER_UNIT);
        assert!(replay_wheel_s(&schedule) > 0.0);
        assert!(replay_stage_queue_s(&schedule) > 0.0);
        assert!(replay_arena_s(&schedule) > 0.0);
    }

    #[test]
    fn variants_keep_the_schedule_and_the_probes_report() {
        let spec = small_grid(EngineSpec::Wheel, DelaySpec::Uniform);
        let p = Prepared::build(&spec, None);
        let base = p.run_standalone(0, Variant::default());
        let bank = Bank::new();
        for variant in [
            Variant { engine: Some(EngineSpec::Heap), bank: None },
            Variant { engine: Some(EngineSpec::Sharded { shards: 2, workers: 0 }), bank: None },
            Variant { engine: None, bank: Some(&bank) },
            Variant { engine: None, bank: Some(&bank) },
        ] {
            let other = p.run_standalone(0, variant);
            assert_eq!(other.failure, None);
            assert_eq!(other.sim, base.sim);
        }
        assert_eq!((bank.0.checkouts(), bank.0.reuses()), (2, 1));
        let shape = p.cover_shape(0);
        assert!(shape.layers > 0 && shape.clusters > 0 && shape.max_membership > 0);
        assert_eq!(p.graph_size(0), (64, 112));
        assert_eq!(p.bfs_source(1), Some(7));
        assert!(p.structural_hash_s(0, 3) > 0.0);
        assert!(pool_spinup_s(2, 3) > 0.0);
    }
}
