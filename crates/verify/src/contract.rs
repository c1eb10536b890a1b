//! The engine-equivalence contract: every engine configuration runs one
//! schedule.
//!
//! The paper's synchronizer is deterministic — if `𝒜` is, so is `𝒜′` — and
//! the simulator promises the engine-level form of that claim: the timing
//! wheel, the binary-heap reference, the sharded engine at any shard and
//! worker count with or without worker threads, a cold or a recycled engine
//! slab, traced or not, all produce the same schedule. This module asserts
//! the whole promise in one place:
//!
//! * [`Chatter`] — the one engine-level test protocol: a multi-wave flood
//!   with mixed per-message priorities;
//! * [`rows`] — the one list of engine configurations;
//! * [`check`] — runs a [`Scenario`] on every row and asserts every clause.
//!
//! # Clauses
//!
//! 1. **Reports.** Every row's per-node arrival streams, [`RunMetrics`] and
//!    [`AsyncReport`] fields equal the first (untraced wheel) row's. Three
//!    fields are exempt, each named once with its reason: `overflow_events`
//!    on the heap (`Engine::reports_overflow`), `arena_bytes` on the warm
//!    slab ([`Engine::reports_arena_bytes`]) and `pool_dispatches` on every
//!    row (`View::of`; clause 3 checks it instead).
//! 2. **Traces.** Every traced row's trace passes [`check_trace`], has one
//!    record per delivery and the row's shard count, and equals the first
//!    traced row's record for record under [`check_equivalence`]. On the
//!    serial engines record order is processing order, so the heap row
//!    compares the global delivery interleaving too.
//! 3. **Non-vacuity.** A scenario that expects it reaches the overflow heap
//!    ([`Scenario::reaches_overflow`]) or the worker pool on every threaded
//!    row ([`Scenario::reaches_pool`]); rows without worker threads never
//!    touch the pool; a fault plan fires and drops deliveries; the slab ends
//!    clean; and a reseeded jitter or outage delay changes the trace, so the
//!    schedule is not independent of the adversary.
//!
//! The `Session`-level rows (every `SyncKind` over the same list) live with
//! the integration tests, which can see `ds-sync`.

use crate::hb::{check_equivalence, check_trace, HbViolation};
use ds_graph::{Graph, NodeId};
use ds_netsim::{
    run_async_faulted, run_async_faulted_traced, run_async_recycled,
    run_async_sharded_faulted_traced_with, run_async_sharded_faulted_with, AsyncReport, Ctx,
    DelayModel, DeliveryTrace, EngineSlab, FaultPlan, MessageClass, Protocol, RunMetrics,
    SchedulerKind, ShardedOptions, SimError, SimLimits, ThreadMode,
};
use std::fmt;

/// Multi-wave flood: every `stride`-th node sends to all its neighbours at
/// start, and every node re-sends to all its neighbours on each of the first
/// `waves` messages it receives. Per-message priorities vary, so the per-link
/// stage queues reorder traffic; a node is done once it is a source or has
/// received something, so the time to output depends on the schedule too.
#[derive(Clone, Debug)]
pub struct Chatter<'g> {
    neighbors: &'g [NodeId],
    source: bool,
    waves_left: u64,
    arrivals: Vec<(NodeId, u64)>,
}

impl<'g> Chatter<'g> {
    /// Node `me`'s instance: a source iff `me` is a multiple of `stride`,
    /// echoing its first `waves` messages.
    pub fn new(graph: &'g Graph, me: NodeId, stride: usize, waves: u64) -> Self {
        Chatter {
            neighbors: graph.neighbors(me),
            source: me.index().is_multiple_of(stride),
            waves_left: waves,
            arrivals: Vec::new(),
        }
    }

    /// Every `(sender, payload)` this node received, in arrival order.
    pub fn arrivals(&self) -> &[(NodeId, u64)] {
        &self.arrivals
    }
}

impl Protocol for Chatter<'_> {
    type Message = u64;

    fn on_start(&mut self, ctx: &mut Ctx<u64>) {
        if self.source {
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
        self.source || !self.arrivals.is_empty()
    }
}

/// One engine an engine-contract row runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// [`SchedulerKind::TimingWheel`], freshly allocated.
    Wheel,
    /// [`SchedulerKind::BinaryHeap`].
    Heap,
    /// The sharded engine. [`ThreadMode::Off`] rows go through
    /// [`run_async_faulted`] with [`SchedulerKind::Sharded`],
    /// [`ThreadMode::ForceOn`] rows through [`run_async_sharded_faulted_with`].
    Sharded(ShardedOptions),
    /// [`run_async_recycled`] on a fresh [`EngineSlab`].
    ColdSlab,
    /// [`run_async_recycled`] on a slab that has already run the scenario and
    /// a denser run on another graph.
    WarmSlab,
}

impl Engine {
    /// Whether the engine's `overflow_events` equals the wheel's. The heap
    /// has no horizon, so it parks nothing and reports 0.
    fn reports_overflow(self) -> bool {
        self != Engine::Heap
    }

    /// Whether the engine's `arena_bytes` equals a cold run's. A warm slab's
    /// arena keeps the capacity of the larger runs before it.
    pub fn reports_arena_bytes(self) -> bool {
        self != Engine::WarmSlab
    }
}

/// One engine configuration: an engine, traced or not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Row {
    /// The engine.
    pub engine: Engine,
    /// Whether the run records a [`DeliveryTrace`].
    pub traced: bool,
}

impl Row {
    /// The scheduler this row selects through `SchedulerKind`-level APIs
    /// such as `Session::scheduler` (the slabs run the wheel).
    pub fn scheduler(&self) -> SchedulerKind {
        match self.engine {
            Engine::Heap => SchedulerKind::BinaryHeap,
            Engine::Sharded(o) => SchedulerKind::Sharded { shards: o.shards, workers: o.workers },
            Engine::Wheel | Engine::ColdSlab | Engine::WarmSlab => SchedulerKind::TimingWheel,
        }
    }

    /// Whether the row's run may hand work to worker threads.
    fn threaded(&self) -> bool {
        matches!(self.engine, Engine::Sharded(o) if o.threads == ThreadMode::ForceOn && o.shards > 1)
    }
}

/// The engine configurations for a graph of `n` nodes, defined once: the
/// wheel, and the wheel run again (traced); the heap (traced); the sharded
/// engine at `k` ∈ {1, 2, 3, 4, 7, n, n + 1} shards over worker counts that
/// mostly do not divide `k` (`0` is one worker per shard, and `n + 1` clamps
/// to `n`), each under [`ThreadMode::Off`] and [`ThreadMode::ForceOn`]; and a
/// cold and a warm slab (recycled runs have no traced form). The first row
/// is the reference.
///
/// Shard counts 1, 2, 4 and 7 are traced under one thread mode and
/// untraced under the other; 3, `n` and `n + 1` run untraced only: a trace
/// doubles a run's cost, and what could order a cross-shard pair (a cause
/// edge inside one tick) does not depend on `k`.
pub fn rows(n: usize) -> Vec<Row> {
    let row = |engine, traced| Row { engine, traced };
    let mut rows =
        vec![row(Engine::Wheel, false), row(Engine::Wheel, true), row(Engine::Heap, true)];
    let (off, on) = (Some(ThreadMode::Off), Some(ThreadMode::ForceOn));
    let splits = [
        (1, 0, off),
        (2, 1, on),
        (3, 2, None),
        (4, 3, on),
        (7, 2, off),
        (n, 3, None),
        (n + 1, 1, None),
    ];
    for (shards, workers, traced_mode) in splits {
        for threads in [ThreadMode::Off, ThreadMode::ForceOn] {
            let traced = traced_mode == Some(threads);
            rows.push(row(Engine::Sharded(ShardedOptions { shards, workers, threads }), traced));
        }
    }
    rows.push(row(Engine::ColdSlab, false));
    rows.push(row(Engine::WarmSlab, false));
    rows
}

/// A run [`check`] puts through every row: a graph, a delay adversary, an
/// optional fault plan, the [`Chatter`]'s shape and what the run must reach.
#[derive(Clone)]
pub struct Scenario<'a> {
    graph: &'a Graph,
    delay: DelayModel,
    faults: Option<&'a FaultPlan>,
    stride: usize,
    waves: u64,
    overflow: bool,
    pool: bool,
}

impl<'a> Scenario<'a> {
    /// [`Chatter`] on `graph` under `delay`: every 7th node a source, three
    /// echo waves, no faults, nothing expected beyond the contract.
    pub fn new(graph: &'a Graph, delay: DelayModel) -> Self {
        Scenario { graph, delay, faults: None, stride: 7, waves: 3, overflow: false, pool: false }
    }

    /// Runs under `plan`; [`check`] then asserts that the plan fired and
    /// dropped deliveries.
    #[must_use]
    pub fn faults(mut self, plan: &'a FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Every `stride`-th node is a source; every node echoes `waves` messages.
    #[must_use]
    pub fn chatter(mut self, stride: usize, waves: u64) -> Self {
        self.stride = stride;
        self.waves = waves;
        self
    }

    /// The wheel must park events in its overflow heap.
    #[must_use]
    pub fn reaches_overflow(mut self) -> Self {
        self.overflow = true;
        self
    }

    /// Every row with worker threads and more than one shard must ship a
    /// dense tick to the worker pool.
    #[must_use]
    pub fn reaches_pool(mut self) -> Self {
        self.pool = true;
        self
    }

    fn make(&self) -> impl FnMut(NodeId) -> Chatter<'a> + '_ {
        |v| Chatter::new(self.graph, v, self.stride, self.waves)
    }

    /// One run on `row`, with the trace if the row asks for one.
    fn run(&self, row: Row, slab: &mut EngineSlab<u64>) -> Result<Run<'a>, SimError> {
        let (graph, faults, limits) = (self.graph, self.faults, SimLimits::default());
        let delay = self.delay.clone();
        match row.engine {
            Engine::ColdSlab | Engine::WarmSlab => {
                run_async_recycled(graph, delay, faults, self.make(), limits, slab)
                    .map(|report| (report, None))
            }
            Engine::Sharded(opts) if opts.threads != ThreadMode::Off => {
                if row.traced {
                    run_async_sharded_faulted_traced_with(
                        graph,
                        delay,
                        faults,
                        self.make(),
                        limits,
                        opts,
                    )
                    .map(|(report, trace)| (report, Some(trace)))
                } else {
                    run_async_sharded_faulted_with(graph, delay, faults, self.make(), limits, opts)
                        .map(|report| (report, None))
                }
            }
            _ if row.traced => {
                run_async_faulted_traced(graph, delay, faults, self.make(), limits, row.scheduler())
                    .map(|(report, trace)| (report, Some(trace)))
            }
            _ => run_async_faulted(graph, delay, faults, self.make(), limits, row.scheduler())
                .map(|report| (report, None)),
        }
    }
}

impl fmt::Debug for Scenario<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes / {} edges, {:?}, faults: {}, chatter stride {} waves {}",
            self.graph.node_count(),
            self.graph.edge_count(),
            self.delay,
            self.faults.is_some(),
            self.stride,
            self.waves
        )
    }
}

type Run<'g> = (AsyncReport<Chatter<'g>>, Option<DeliveryTrace>);

/// What a row is compared on: every [`AsyncReport`] field, with the nodes
/// reduced to their arrival streams and the exempt fields `None` on the rows
/// they are exempt on.
#[derive(Debug, PartialEq)]
struct View {
    arrivals: Vec<Vec<(NodeId, u64)>>,
    metrics: RunMetrics,
    overflow_events: Option<u64>,
    peak_live_handles: u64,
    arena_bytes: Option<u64>,
    max_batch: u64,
    acks_scheduled: u64,
    batched_ticks: u64,
    dropped_events: u64,
    fault_transitions: u64,
}

impl View {
    /// `report` as compared on `engine`'s row. The destructuring names every
    /// field, so a new one fails to compile here until it is compared or
    /// exempted.
    fn of(report: &AsyncReport<Chatter<'_>>, engine: Engine) -> View {
        let AsyncReport {
            metrics,
            nodes,
            overflow_events,
            peak_live_handles,
            arena_bytes,
            max_batch,
            acks_scheduled,
            batched_ticks,
            // Exempt on every row: it counts what the worker threads did,
            // which the thread mode decides; `check` asserts it on its own.
            pool_dispatches: _,
            dropped_events,
            fault_transitions,
        } = report;
        View {
            arrivals: nodes.iter().map(|c| c.arrivals.clone()).collect(),
            metrics: metrics.clone(),
            overflow_events: engine.reports_overflow().then_some(*overflow_events),
            peak_live_handles: *peak_live_handles,
            arena_bytes: engine.reports_arena_bytes().then_some(*arena_bytes),
            max_batch: *max_batch,
            acks_scheduled: *acks_scheduled,
            batched_ticks: *batched_ticks,
            dropped_events: *dropped_events,
            fault_transitions: *fault_transitions,
        }
    }
}

/// The warm slab's earlier run: complete graph K₁₆, every node a source,
/// uniform delays, no echoes — 240 payloads live at once, more than most
/// scenarios hold, so a recycled arena watermark that is not reset shows.
fn warm_up(slab: &mut EngineSlab<u64>) {
    let graph = Graph::complete(16);
    run_async_recycled(
        &graph,
        DelayModel::uniform(),
        None,
        |v| Chatter::new(&graph, v, 1, 0),
        SimLimits::default(),
        slab,
    )
    .expect("warm-up run");
}

/// `delay` under the next seed, if it has one.
fn reseeded(delay: &DelayModel) -> Option<DelayModel> {
    match *delay {
        DelayModel::Jitter { seed, min_ticks } => {
            Some(DelayModel::Jitter { seed: seed + 1, min_ticks })
        }
        DelayModel::Outage { seed, period_units, outage_units } => {
            Some(DelayModel::Outage { seed: seed + 1, period_units, outage_units })
        }
        _ => None,
    }
}

fn render(violations: &[HbViolation]) -> String {
    violations.iter().map(|v| format!("\n  {v}")).collect()
}

/// Runs `scenario` on every row of [`rows`] and asserts the contract (module
/// docs): reports, traces and non-vacuity.
///
/// # Panics
///
/// Panics, naming the row and the scenario, on the first clause that fails
/// or if a run errors.
pub fn check(scenario: &Scenario<'_>) {
    let n = scenario.graph.node_count();
    let mut slab = EngineSlab::new();
    let mut reference: Option<AsyncReport<Chatter<'_>>> = None;
    let mut reference_trace: Option<DeliveryTrace> = None;
    for row in rows(n) {
        let at = || format!("{row:?}, {scenario:?}");
        if row.engine == Engine::WarmSlab {
            warm_up(&mut slab);
        }
        let (report, trace) =
            scenario.run(row, &mut slab).unwrap_or_else(|e| panic!("run failed ({}): {e}", at()));

        if row.threaded() && scenario.pool {
            assert!(report.pool_dispatches > 0, "the pool was never reached ({})", at());
        } else if !row.threaded() {
            assert_eq!(report.pool_dispatches, 0, "the pool ran without threads ({})", at());
        }
        if let Some(trace) = trace {
            check_trace(&trace)
                .unwrap_or_else(|v| panic!("trace violates HB ({}):{}", at(), render(&v)));
            assert_eq!(trace.records.len() as u64, report.metrics.events, "{}", at());
            let shards = match row.engine {
                Engine::Sharded(o) => o.shards.min(n),
                _ => 1,
            };
            assert_eq!(trace.shards as usize, shards, "trace shard count ({})", at());
            match &reference_trace {
                Some(first) => check_equivalence(first, &trace)
                    .unwrap_or_else(|v| panic!("trace diverged ({}):{}", at(), render(&v))),
                None => reference_trace = Some(trace),
            }
        }
        match &reference {
            Some(first) => assert_eq!(
                View::of(&report, row.engine),
                View::of(first, row.engine),
                "report diverged ({})",
                at()
            ),
            None => {
                assert!(report.metrics.events > 0, "nothing was delivered ({})", at());
                if scenario.overflow {
                    assert!(report.overflow_events > 0, "no overflow park ({})", at());
                }
                if scenario.faults.is_some() {
                    assert!(
                        report.fault_transitions > 0 && report.dropped_events > 0,
                        "the fault plan never fired ({})",
                        at()
                    );
                }
                reference = Some(report);
            }
        }
    }
    assert!(slab.is_clean() && slab.runs() == 3, "the warm slab did not end clean ({scenario:?})");

    if let Some(delay) = reseeded(&scenario.delay) {
        let other = Scenario { delay, ..scenario.clone() };
        let row = Row { engine: Engine::Wheel, traced: true };
        let (_, trace) = other.run(row, &mut slab).expect("reseeded run");
        let (first, trace) = (reference_trace.as_ref(), trace.as_ref());
        assert!(
            check_equivalence(first.expect("a traced row"), trace.expect("traced")).is_err(),
            "a reseeded delay left the trace unchanged ({scenario:?})"
        );
    }
}
