//! The [`Session`] builder: the single entry point for executing event-driven
//! algorithms under any synchronizer.
//!
//! A session names a graph, a delay adversary, simulation budgets and a
//! [`SyncKind`] (the paper's synchronizer, [`SyncKind::DetAuto`], unless another
//! is chosen); [`Session::run`] executes the algorithm once under that
//! synchronizer, and [`Session::compare`] additionally runs the lock-step ground
//! truth and reports the overhead factors the paper's theorems bound. A session
//! is plain data, so it is also the request a
//! [`SessionPool`](crate::service::SessionPool) runs in batches.
//!
//! ```
//! use ds_graph::{Graph, NodeId};
//! use ds_netsim::delay::DelayModel;
//! use ds_sync::session::{Session, SyncKind};
//! # use ds_netsim::event_driven::{EventDriven, PulseCtx};
//! # #[derive(Debug)]
//! # struct Flood { me: NodeId, neighbors: Vec<NodeId>, hops: Option<u64> }
//! # impl Flood {
//! #     fn new(g: &Graph, me: NodeId) -> Self {
//! #         Flood { me, neighbors: g.neighbors(me).to_vec(), hops: None }
//! #     }
//! # }
//! # impl EventDriven for Flood {
//! #     type Msg = u64;
//! #     type Output = u64;
//! #     fn on_init(&mut self, ctx: &mut PulseCtx<u64>) {
//! #         if self.me == NodeId(0) {
//! #             self.hops = Some(0);
//! #             for &u in &self.neighbors { ctx.send(u, 1); }
//! #         }
//! #     }
//! #     fn on_pulse(&mut self, r: &[(NodeId, u64)], ctx: &mut PulseCtx<u64>) {
//! #         if self.hops.is_none() {
//! #             if let Some(&(_, h)) = r.first() {
//! #                 self.hops = Some(h);
//! #                 for &u in &self.neighbors { ctx.send(u, h + 1); }
//! #             }
//! #         }
//! #     }
//! #     fn output(&self) -> Option<u64> { self.hops }
//! # }
//! let graph = Graph::grid(4, 4);
//! let report = Session::on(&graph)
//!     .delay(DelayModel::jitter(7))
//!     .synchronizer(SyncKind::DetAuto)
//!     .compare(|v| Flood::new(&graph, v))
//!     .expect("session run");
//! assert!(report.outputs_match());
//! ```

use crate::alpha::AlphaSynchronizer;
use crate::beta::{BetaSynchronizer, SpanningTree};
use crate::executor::{RunHealth, SynchronizedRun};
use crate::synchronizer::{
    collect_outputs, DetSynchronizer, SynchronizedOutputs, SynchronizerConfig,
};
use ds_graph::{metrics, Graph, NodeId};
use ds_netsim::async_engine::{SimError, SimLimits};
use ds_netsim::delay::DelayModel;
use ds_netsim::event_driven::EventDriven;
use ds_netsim::metrics::RunMetrics;
use ds_netsim::sync_engine::run_sync;
use ds_netsim::{FaultPlan, SchedulerKind, SlabBank};
use std::fmt;
use std::sync::Arc;

/// Which synchronizer a [`Session`] drives the algorithm with.
#[derive(Clone, Debug)]
pub enum SyncKind {
    /// Lock-step synchronous execution — the ground truth, no synchronizer at all.
    Direct,
    /// Awerbuch's α synchronizer (Appendix A).
    Alpha,
    /// Awerbuch's β synchronizer (Appendix A) with its BFS spanning tree rooted at
    /// the given node.
    Beta {
        /// Root of the spanning tree.
        root: NodeId,
    },
    /// The paper's deterministic synchronizer with an explicit, possibly shared
    /// configuration (the Theorem 5.3 "given a cover" setting).
    Det(Arc<SynchronizerConfig>),
    /// The paper's deterministic synchronizer with a configuration built internally
    /// from the session's resolved pulse bound (the Theorem 1.1 setting).
    DetAuto,
}

impl SyncKind {
    /// The full sweep of execution strategies, for parametrized experiments:
    /// direct, α, β (rooted at node 0), deterministic.
    pub fn standard_suite() -> Vec<SyncKind> {
        vec![
            SyncKind::Direct,
            SyncKind::Alpha,
            SyncKind::Beta { root: NodeId(0) },
            SyncKind::DetAuto,
        ]
    }

    /// Short label ("direct", "alpha", "beta", "det"), used as a row label by
    /// the experiment harness.
    pub fn label(&self) -> &'static str {
        match self {
            SyncKind::Direct => "direct",
            SyncKind::Alpha => "alpha",
            SyncKind::Beta { .. } => "beta",
            SyncKind::Det(_) | SyncKind::DetAuto => "det",
        }
    }

    /// Whether resolving this kind requires a pulse bound `T(A)`.
    fn needs_pulse_bound(&self) -> bool {
        matches!(self, SyncKind::Alpha | SyncKind::Beta { .. } | SyncKind::DetAuto)
    }
}

/// Errors from [`Session::run`] / [`Session::compare`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// The configured [`SimLimits`] are unusable (a zero budget).
    InvalidLimits {
        /// Description of the offending field.
        what: &'static str,
    },
    /// An explicit [`Session::pulse_bound`] exceeds `limits.max_rounds`: the
    /// limit already rules out a synchronous run that long, and per-pulse state
    /// is sized by the bound.
    PulseBoundTooLarge {
        /// The requested pulse bound.
        bound: u64,
        /// The session's `max_rounds` limit.
        max_rounds: u64,
    },
    /// The chosen [`SyncKind`] cannot run on the session's graph: a β root
    /// outside the graph, β / [`SyncKind::DetAuto`] (which build a
    /// spanning tree or a cover) on an empty or disconnected graph, or a
    /// [`SyncKind::Det`] config built for a graph of another node count.
    InvalidSynchronizer {
        /// Description of the offending configuration.
        what: &'static str,
    },
    /// The underlying simulation failed.
    Sim(SimError),
    /// The protocol (or its factory) panicked inside a
    /// [`SessionPool`](crate::service::SessionPool) request; only that
    /// request's slot fails.
    ProtocolPanicked {
        /// The panic message, when the payload was a string.
        message: String,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::InvalidLimits { what } => {
                write!(f, "invalid simulation limits: {what} must be positive")
            }
            SessionError::PulseBoundTooLarge { bound, max_rounds } => {
                write!(f, "pulse bound {bound} exceeds the max_rounds limit {max_rounds}")
            }
            SessionError::InvalidSynchronizer { what } => write!(f, "invalid synchronizer: {what}"),
            SessionError::Sim(e) => write!(f, "simulation error: {e}"),
            SessionError::ProtocolPanicked { message } => {
                write!(f, "protocol panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<SimError> for SessionError {
    fn from(e: SimError) -> Self {
        SessionError::Sim(e)
    }
}

/// Combined report of a synchronous ground-truth run and a synchronized run of the
/// same algorithm, produced by [`Session::compare`].
#[derive(Clone, Debug)]
pub struct ComparisonReport<O> {
    /// Synchronous round complexity `T(A)` (rounds to quiescence).
    pub sync_rounds: u64,
    /// Synchronous message complexity `M(A)`.
    pub sync_messages: u64,
    /// Per-node outputs of the synchronous run.
    pub sync_outputs: Vec<Option<O>>,
    /// Per-node outputs of the synchronized run.
    pub async_outputs: Vec<Option<O>>,
    /// Metrics of the synchronized run (time, messages by class, acknowledgments).
    pub async_metrics: RunMetrics,
    /// Ordering violations recorded by the synchronizer (must be zero).
    pub ordering_violations: u64,
}

impl<O: PartialEq> ComparisonReport<O> {
    /// Whether the synchronized execution reproduced the synchronous outputs exactly.
    pub fn outputs_match(&self) -> bool {
        self.sync_outputs == self.async_outputs && self.ordering_violations == 0
    }

    /// Time overhead factor: synchronized time-to-output divided by `T(A)`.
    pub fn time_overhead(&self) -> Option<f64> {
        let t = self.async_metrics.time_to_output?;
        Some(t / self.sync_rounds.max(1) as f64)
    }

    /// Message overhead factor: total synchronized messages divided by `M(A)`.
    pub fn message_overhead(&self) -> f64 {
        self.async_metrics.total_messages() as f64 / self.sync_messages.max(1) as f64
    }
}

/// A configured execution of event-driven algorithms on one graph.
///
/// Construct with [`Session::on`], chain the builder methods, then call
/// [`Session::run`] or [`Session::compare`] (repeatedly, with any algorithm). See
/// the module docs for a complete example and `DESIGN.md` for the theorem map.
#[derive(Clone, Debug)]
pub struct Session<'g> {
    pub(crate) graph: &'g Graph,
    pub(crate) delay: DelayModel,
    pub(crate) limits: SimLimits,
    pub(crate) kind: SyncKind,
    pub(crate) pulse_bound: Option<u64>,
    pub(crate) scheduler: SchedulerKind,
    pub(crate) trace: bool,
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) recycle: Option<SlabBank>,
}

impl<'g> Session<'g> {
    /// Starts building a session on `graph`. Defaults: uniform delays, default
    /// [`SimLimits`], the paper's synchronizer with its cover built internally
    /// ([`SyncKind::DetAuto`]), pulse bound resolved automatically from the
    /// synchronous ground truth, timing-wheel event scheduler.
    pub fn on(graph: &'g Graph) -> Self {
        Session {
            graph,
            delay: DelayModel::uniform(),
            limits: SimLimits::default(),
            kind: SyncKind::DetAuto,
            pulse_bound: None,
            scheduler: SchedulerKind::default(),
            trace: false,
            faults: None,
            recycle: None,
        }
    }

    /// Draws the asynchronous engine's allocation-heavy state (timing wheel,
    /// link table, payload arena) from a shared recycling [`SlabBank`]
    /// instead of allocating it cold, returning it after the run. Hand the
    /// same bank to many sessions — e.g. every request of a
    /// [`crate::service::SessionPool`] — to amortize engine setup across
    /// them. The schedule is bit-identical with or without a bank (the reset
    /// contract of `ds-netsim::recycle`, asserted by the engine on every
    /// run), and every scheduler, traced or not, uses the bank.
    #[must_use]
    pub fn recycle(mut self, bank: SlabBank) -> Self {
        self.recycle = Some(bank);
        self
    }

    /// Injects a dynamic-topology [`FaultPlan`] (link churn, crash-stop node
    /// failures): the asynchronous engines consult it at dispatch and delivery
    /// time, dropping deliveries over downed links and crashed nodes. The run
    /// still terminates — dropped messages starve the schedule — and reports
    /// how partial it was on
    /// [`SynchronizedRun::health`](crate::executor::SynchronizedRun), along
    /// with [`dropped_events`](crate::executor::SynchronizedRun::dropped_events)
    /// and [`fault_transitions`](crate::executor::SynchronizedRun::fault_transitions)
    /// counters. Ignored by [`SyncKind::Direct`] (the fault-free ground truth)
    /// — and note that [`Session::compare`] against a faulted run will report
    /// mismatched outputs for exactly the nodes `health.missing` lists. When a
    /// plan is set, pair it with an explicit [`Session::pulse_bound`] if the
    /// synchronous ground truth would be too optimistic about `T(A)` on the
    /// intact graph.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Records a per-delivery [`trace`](ds_netsim::DeliveryTrace) during the
    /// asynchronous run, surfaced on
    /// [`SynchronizedRun::trace`](crate::executor::SynchronizedRun). The traced
    /// execution is bit-identical to the untraced one; the cost is the trace
    /// buffer itself (one record per delivery). Used by the `ds-verify`
    /// happens-before checker; ignored by [`SyncKind::Direct`].
    #[must_use]
    pub fn record_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Selects the asynchronous engine's event scheduler (ignored by
    /// [`SyncKind::Direct`]). Defaults to [`SchedulerKind::TimingWheel`]; the
    /// [`SchedulerKind::BinaryHeap`] reference produces a bit-identical run and
    /// exists for equivalence testing and scheduler benchmarking.
    /// [`SchedulerKind::Sharded`] partitions the nodes into contiguous shards
    /// and runs a dense tick's activations shard by shard — spread over a
    /// persistent worker pool when the host has spare cores — then replays
    /// their effects serially in global sequence order, so its runs are also
    /// bit-identical to the wheel's (`ds-netsim::sharded` documents the
    /// shard/merge contract). `workers` decouples the thread count from the
    /// shard count: `0` means one worker per shard, and a good explicit value
    /// is the host's core count (the pool never helps past it — more workers
    /// only add rendezvous traffic, while shards can stay higher for
    /// partition granularity):
    ///
    /// ```
    /// # use ds_graph::Graph;
    /// # use ds_netsim::SchedulerKind;
    /// # use ds_sync::session::Session;
    /// let graph = Graph::grid(8, 8);
    /// let session =
    ///     Session::on(&graph).scheduler(SchedulerKind::Sharded { shards: 4, workers: 2 });
    /// ```
    #[must_use]
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the delay adversary (ignored by [`SyncKind::Direct`]).
    #[must_use]
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Sets the simulation budgets.
    #[must_use]
    pub fn limits(mut self, limits: SimLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Chooses the synchronizer (default [`SyncKind::DetAuto`]).
    #[must_use]
    pub fn synchronizer(mut self, kind: SyncKind) -> Self {
        self.kind = kind;
        self
    }

    /// Fixes the pulse bound `T(A)` explicitly instead of resolving it from a
    /// synchronous ground-truth run. Useful when the bound is already known (e.g. a
    /// diameter bound for BFS) or when the ground-truth run is too expensive. A
    /// bound above `limits.max_rounds` is rejected when the session runs.
    #[must_use]
    pub fn pulse_bound(mut self, bound: u64) -> Self {
        self.pulse_bound = Some(bound);
        self
    }

    /// The network graph the session runs on.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    pub(crate) fn validate(&self) -> Result<(), SessionError> {
        if self.limits.max_events == 0 {
            return Err(SessionError::InvalidLimits { what: "max_events" });
        }
        if self.limits.max_rounds == 0 {
            return Err(SessionError::InvalidLimits { what: "max_rounds" });
        }
        let max_rounds = self.limits.max_rounds;
        if let Some(bound) = self.pulse_bound.filter(|&bound| bound > max_rounds) {
            return Err(SessionError::PulseBoundTooLarge { bound, max_rounds });
        }
        // β and DetAuto build a spanning tree / cover over the whole graph
        // and panic deep inside that build otherwise; one BFS settles it. A
        // prebuilt det config must at least match the graph's node count.
        let n = self.graph.node_count();
        let reaches_all =
            |root: NodeId| metrics::bfs_distances(self.graph, root).iter().all(Option::is_some);
        let what = match &self.kind {
            SyncKind::Beta { root } if root.index() >= n => {
                "the beta root is not a node of the graph"
            }
            SyncKind::Beta { root } if !reaches_all(*root) => "beta needs a connected graph",
            SyncKind::DetAuto if n == 0 || !reaches_all(NodeId(0)) => {
                "det needs a non-empty connected graph"
            }
            SyncKind::Det(cfg) if cfg.covers.level(0).node_count() != n => {
                "the det config was built for a graph with a different node count"
            }
            _ => return Ok(()),
        };
        Err(SessionError::InvalidSynchronizer { what })
    }

    /// Resolves the pulse bound: the explicit bound if set, otherwise `T(A)` from a
    /// synchronous ground-truth run (only executed when the chosen kind needs it).
    pub(crate) fn resolve_pulse_bound<A, F>(&self, make: &mut F) -> Result<u64, SessionError>
    where
        A: EventDriven,
        F: FnMut(NodeId) -> A,
    {
        if let Some(bound) = self.pulse_bound {
            return Ok(bound.max(1));
        }
        if !self.kind.needs_pulse_bound() {
            return Ok(1);
        }
        let sync = run_sync(self.graph, make, self.limits.max_rounds)?;
        Ok(sync.rounds_to_quiescence.max(1))
    }

    /// Runs the algorithm once under the session's synchronizer, simulating at
    /// most `bound` pulses where the kind needs a bound: the one place a
    /// [`SyncKind`] is dispatched on. The factory is taken as a `dyn` so the
    /// engines are instantiated once per protocol and algorithm, not once per
    /// caller's closure type.
    pub(crate) fn execute<A: EventDriven>(
        &self,
        bound: u64,
        make: &mut dyn FnMut(NodeId) -> A,
    ) -> Result<SynchronizedRun<A::Output>, SimError> {
        match &self.kind {
            SyncKind::Direct => {
                let report = run_sync(self.graph, make, self.limits.max_rounds)?;
                let outputs = report.outputs();
                Ok(SynchronizedRun {
                    health: RunHealth::of(None, &outputs),
                    outputs,
                    metrics: report.metrics,
                    ordering_violations: 0,
                    trace: None,
                    batched_ticks: 0,
                    dropped_events: 0,
                    fault_transitions: 0,
                    peak_live_handles: 0,
                    arena_bytes: 0,
                    max_batch: 0,
                })
            }
            SyncKind::Alpha => self.run_async(
                |v| AlphaSynchronizer::new(self.graph, v, make(v), bound),
                |nodes| SynchronizedOutputs {
                    outputs: nodes.iter().map(|n| n.algorithm().output()).collect(),
                    ordering_violations: 0,
                },
            ),
            SyncKind::Beta { root } => {
                let tree = SpanningTree::bfs(self.graph, *root);
                self.run_async(
                    |v| BetaSynchronizer::new(Arc::clone(&tree), v, make(v), bound),
                    |nodes| SynchronizedOutputs {
                        outputs: nodes.iter().map(|n| n.algorithm().output()).collect(),
                        ordering_violations: 0,
                    },
                )
            }
            SyncKind::Det(cfg) => self
                .run_async(|v| DetSynchronizer::new(v, make(v), Arc::clone(cfg)), collect_outputs),
            SyncKind::DetAuto => {
                let cfg = SynchronizerConfig::build(self.graph, bound);
                self.run_async(
                    |v| DetSynchronizer::new(v, make(v), Arc::clone(&cfg)),
                    collect_outputs,
                )
            }
        }
    }

    /// Runs the algorithm once under the session's synchronizer.
    ///
    /// # Errors
    ///
    /// Returns a [`SessionError`] if the limits are unusable, an explicit pulse
    /// bound exceeds `limits.max_rounds`, the synchronizer cannot run on the
    /// graph, or the simulation fails.
    pub fn run<A, F>(&self, mut make: F) -> Result<SynchronizedRun<A::Output>, SessionError>
    where
        A: EventDriven,
        F: FnMut(NodeId) -> A,
    {
        self.validate()?;
        let bound = self.resolve_pulse_bound(&mut make)?;
        Ok(self.execute(bound, &mut make)?)
    }

    /// Runs the synchronous ground truth, then the session's synchronizer, and
    /// reports both with overhead factors.
    ///
    /// # Errors
    ///
    /// Returns a [`SessionError`] if the limits are unusable, an explicit pulse
    /// bound exceeds `limits.max_rounds`, the synchronizer cannot run on the
    /// graph, or either simulation fails.
    pub fn compare<A, F>(&self, mut make: F) -> Result<ComparisonReport<A::Output>, SessionError>
    where
        A: EventDriven,
        F: FnMut(NodeId) -> A,
    {
        self.validate()?;
        let sync = run_sync(self.graph, &mut make, self.limits.max_rounds)?;
        let bound = self.pulse_bound.unwrap_or(sync.rounds_to_quiescence).max(1);
        let run = self.execute(bound, &mut make)?;
        Ok(ComparisonReport {
            sync_rounds: sync.rounds_to_quiescence,
            sync_messages: sync.messages,
            sync_outputs: sync.outputs(),
            async_outputs: run.outputs,
            async_metrics: run.metrics,
            ordering_violations: run.ordering_violations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_netsim::event_driven::PulseCtx;

    #[derive(Debug)]
    struct Flood {
        me: NodeId,
        neighbors: Vec<NodeId>,
        hops: Option<u64>,
    }

    impl Flood {
        fn new(graph: &Graph, me: NodeId) -> Self {
            Flood { me, neighbors: graph.neighbors(me).to_vec(), hops: None }
        }
    }

    impl EventDriven for Flood {
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

    #[test]
    fn the_default_synchronizer_is_det_auto() {
        let graph = Graph::grid(3, 3);
        let session = Session::on(&graph).delay(DelayModel::jitter(4));
        let default = session.run(|v| Flood::new(&graph, v)).expect("default run");
        let explicit = session
            .synchronizer(SyncKind::DetAuto)
            .run(|v| Flood::new(&graph, v))
            .expect("explicit DetAuto run");
        assert!(default.outputs.iter().all(Option::is_some));
        assert_eq!(default.outputs, explicit.outputs);
        assert_eq!(default.metrics, explicit.metrics);
    }

    #[test]
    fn zero_limits_are_rejected() {
        let graph = Graph::path(4);
        let err = Session::on(&graph)
            .synchronizer(SyncKind::Direct)
            .limits(SimLimits { max_events: 0, ..SimLimits::default() })
            .run(|v| Flood::new(&graph, v))
            .unwrap_err();
        assert_eq!(err, SessionError::InvalidLimits { what: "max_events" });
        let err = Session::on(&graph)
            .synchronizer(SyncKind::Direct)
            .limits(SimLimits { max_rounds: 0, ..SimLimits::default() })
            .run(|v| Flood::new(&graph, v))
            .unwrap_err();
        assert_eq!(err, SessionError::InvalidLimits { what: "max_rounds" });
    }

    #[test]
    fn pulse_bounds_past_max_rounds_are_rejected() {
        let graph = Graph::path(4);
        let limits = SimLimits { max_rounds: 12, ..SimLimits::default() };
        for kind in [SyncKind::Alpha, SyncKind::Beta { root: NodeId(0) }, SyncKind::DetAuto] {
            let with_bound = |bound| {
                Session::on(&graph).synchronizer(kind.clone()).limits(limits).pulse_bound(bound)
            };
            let run = with_bound(12).run(|v| Flood::new(&graph, v));
            assert!(run.is_ok(), "{}: a bound equal to the limit is accepted", kind.label());
            for bound in [13, u64::MAX] {
                let expected = SessionError::PulseBoundTooLarge { bound, max_rounds: 12 };
                let err = with_bound(bound).run(|v| Flood::new(&graph, v)).unwrap_err();
                assert_eq!(err, expected, "{}", kind.label());
                let err = with_bound(bound).compare(|v| Flood::new(&graph, v)).unwrap_err();
                assert_eq!(err, expected, "{}", kind.label());
            }
        }
    }

    #[test]
    fn session_errors_format_helpfully() {
        assert!(format!("{}", SessionError::InvalidLimits { what: "max_events" })
            .contains("max_events"));
        let too_large = SessionError::PulseBoundTooLarge { bound: 1 << 40, max_rounds: 1_000_000 };
        assert_eq!(
            too_large.to_string(),
            "pulse bound 1099511627776 exceeds the max_rounds limit 1000000"
        );
        let bad_root =
            SessionError::InvalidSynchronizer { what: "the beta root is not a node of the graph" };
        assert_eq!(
            bad_root.to_string(),
            "invalid synchronizer: the beta root is not a node of the graph"
        );
    }

    #[test]
    fn synchronizers_that_cannot_run_on_the_graph_are_rejected() {
        // Two disjoint edges, a grid with a β root outside it, and the empty
        // graph: each would panic inside the spanning-tree or cover build. A
        // det config built for a bigger graph would run to wrong outputs, one
        // built for a smaller graph would fail on a non-neighbor send.
        let split = Graph::from_edges(4, [(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))])
            .expect("two disjoint edges");
        let grid = Graph::grid(3, 3);
        let bigger = Graph::grid(4, 4);
        let empty = Graph::new(0);
        let det_for = |g: &Graph| SyncKind::Det(SynchronizerConfig::build(g, 8));
        let wrong_size = "the det config was built for a graph with a different node count";
        let cases = [
            (
                &grid,
                SyncKind::Beta { root: NodeId(99) },
                "the beta root is not a node of the graph",
            ),
            (&split, SyncKind::Beta { root: NodeId(0) }, "beta needs a connected graph"),
            (&split, SyncKind::DetAuto, "det needs a non-empty connected graph"),
            (
                &empty,
                SyncKind::Beta { root: NodeId(0) },
                "the beta root is not a node of the graph",
            ),
            (&empty, SyncKind::DetAuto, "det needs a non-empty connected graph"),
            (&grid, det_for(&bigger), wrong_size),
            (&bigger, det_for(&grid), wrong_size),
        ];
        for (graph, kind, what) in cases {
            let expected = SessionError::InvalidSynchronizer { what };
            let session = Session::on(graph).synchronizer(kind.clone());
            let err = session.run(|v| Flood::new(graph, v)).unwrap_err();
            assert_eq!(err, expected, "{kind:?} via run");
            let err = session.compare(|v| Flood::new(graph, v)).unwrap_err();
            assert_eq!(err, expected, "{kind:?} via compare");
        }
        // α needs no global structure: it runs on the disconnected graph.
        let alpha =
            Session::on(&split).synchronizer(SyncKind::Alpha).run(|v| Flood::new(&split, v));
        assert!(alpha.is_ok(), "{:?}", alpha.err());
    }

    #[test]
    fn every_kind_runs_through_the_same_call_path() {
        let graph = Graph::grid(3, 3);
        let direct = Session::on(&graph)
            .synchronizer(SyncKind::Direct)
            .run(|v| Flood::new(&graph, v))
            .expect("direct");
        for kind in SyncKind::standard_suite() {
            let run = Session::on(&graph)
                .delay(DelayModel::jitter(3))
                .synchronizer(kind.clone())
                .run(|v| Flood::new(&graph, v))
                .unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
            assert_eq!(run.outputs, direct.outputs, "{} diverged", kind.label());
        }
    }

    #[test]
    fn explicit_det_config_and_pulse_bound_are_honored() {
        let graph = Graph::path(6);
        let cfg = SynchronizerConfig::build(&graph, 8);
        let run = Session::on(&graph)
            .delay(DelayModel::slow_cut(2))
            .synchronizer(SyncKind::Det(cfg))
            .run(|v| Flood::new(&graph, v))
            .expect("det run");
        assert_eq!(run.ordering_violations, 0);
        // An explicit pulse bound skips the ground-truth run entirely.
        let run = Session::on(&graph)
            .delay(DelayModel::uniform())
            .synchronizer(SyncKind::Alpha)
            .pulse_bound(8)
            .run(|v| Flood::new(&graph, v))
            .expect("alpha run");
        assert!(run.outputs.iter().all(Option::is_some));
    }

    #[test]
    fn record_trace_surfaces_a_trace_without_changing_the_run() {
        let graph = Graph::grid(3, 3);
        let plain = Session::on(&graph)
            .delay(DelayModel::jitter(6))
            .synchronizer(SyncKind::DetAuto)
            .run(|v| Flood::new(&graph, v))
            .expect("plain run");
        assert!(plain.trace.is_none());
        let traced = Session::on(&graph)
            .delay(DelayModel::jitter(6))
            .synchronizer(SyncKind::DetAuto)
            .record_trace(true)
            .run(|v| Flood::new(&graph, v))
            .expect("traced run");
        let trace = traced.trace.expect("trace was requested");
        assert!(!trace.records.is_empty());
        assert_eq!(traced.outputs, plain.outputs);
        assert_eq!(traced.metrics, plain.metrics);
        // Direct execution has no deliveries to trace.
        let direct = Session::on(&graph)
            .synchronizer(SyncKind::Direct)
            .record_trace(true)
            .run(|v| Flood::new(&graph, v))
            .expect("direct run");
        assert!(direct.trace.is_none());
    }

    #[test]
    fn faulted_session_terminates_with_explicit_partial_status() {
        // Crash the flood source at time 0 and never recover it: nothing can
        // flood, yet the run must terminate (dropped deliveries starve the
        // schedule) and say exactly how partial the result is.
        let graph = Graph::grid(3, 3);
        let plan = ds_netsim::FaultPlan::new().node_crash(0, NodeId(0));
        for kind in [SyncKind::Alpha, SyncKind::DetAuto] {
            let run = Session::on(&graph)
                .delay(DelayModel::jitter(4))
                .synchronizer(kind.clone())
                .pulse_bound(10)
                .faults(plan.clone())
                .run(|v| Flood::new(&graph, v))
                .unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
            assert!(run.health.is_partial(), "{}", kind.label());
            assert_eq!(run.health.crashed, vec![NodeId(0)], "{}", kind.label());
            assert!(run.health.missing.contains(&NodeId(0)), "{}", kind.label());
            assert!(run.outputs.iter().all(Option::is_none), "{}: no node can learn", kind.label());
            assert!(run.fault_transitions >= 1, "{}", kind.label());
        }
        // The same session without the plan is healthy and complete.
        let clean = Session::on(&graph)
            .delay(DelayModel::jitter(4))
            .synchronizer(SyncKind::DetAuto)
            .run(|v| Flood::new(&graph, v))
            .expect("clean run");
        assert!(!clean.health.is_partial());
        assert_eq!(clean.dropped_events, 0);
        assert_eq!(clean.fault_transitions, 0);
    }

    #[test]
    fn compare_reports_ground_truth_and_overheads() {
        let graph = Graph::grid(3, 4);
        let report = Session::on(&graph)
            .delay(DelayModel::jitter(3))
            .synchronizer(SyncKind::DetAuto)
            .compare(|v| Flood::new(&graph, v))
            .expect("compare");
        assert!(report.outputs_match());
        assert!(report.sync_rounds >= 5);
        assert!(report.message_overhead() >= 1.0);
        assert!(report.time_overhead().is_some());
    }
}
