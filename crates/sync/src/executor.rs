//! The [`Synchronizer`] trait: one pipeline for every way of executing an
//! event-driven algorithm.
//!
//! The paper presents the deterministic synchronizer as a *drop-in wrapper*: any
//! event-driven synchronous algorithm runs unchanged under any synchronizer, and its
//! overheads are measured against the synchronous ground truth. This module makes
//! that uniformity literal: [`DirectExecutor`] (lock-step ground truth),
//! [`AlphaExecutor`] and [`BetaExecutor`] (Appendix A baselines) and [`DetExecutor`]
//! (Sections 4–5) all implement the same object-safe trait, so runners, experiments
//! and tests are written once and parametrized by a `Box<dyn Synchronizer<A>>`.
//!
//! Use [`crate::session::Session`] to construct and drive executors; the types here
//! are the extension point for new execution strategies.

use crate::alpha::AlphaSynchronizer;
use crate::beta::{BetaSynchronizer, SpanningTree};
use crate::synchronizer::{collect_outputs, DetSynchronizer, SynchronizerConfig};
use ds_graph::{Graph, NodeId};
use ds_netsim::async_engine::{run_async_faulted, run_async_faulted_traced, SimError, SimLimits};
use ds_netsim::delay::DelayModel;
use ds_netsim::event_driven::EventDriven;
use ds_netsim::metrics::RunMetrics;
use ds_netsim::protocol::Protocol;
use ds_netsim::recycle::{run_async_recycled, SlabBank};
use ds_netsim::sharded::{
    run_async_sharded_faulted_traced_with, run_async_sharded_faulted_with, ShardedOptions,
};
use ds_netsim::sync_engine::run_sync;
use ds_netsim::{AsyncReport, DeliveryTrace, FaultPlan, SchedulerKind};
use std::sync::Arc;

/// The environment an executor runs in: the network, the delay adversary and the
/// simulation budgets. Built by [`crate::session::Session`].
#[derive(Clone, Debug)]
pub struct ExecutionEnv<'g> {
    /// The network graph.
    pub graph: &'g Graph,
    /// The delay adversary (ignored by the lock-step executor).
    pub delay: DelayModel,
    /// Event/round budgets.
    pub limits: SimLimits,
    /// Event scheduler driving the asynchronous engine (ignored by the lock-step
    /// executor). All three kinds produce bit-identical runs.
    pub scheduler: SchedulerKind,
    /// Record a [`DeliveryTrace`] for the happens-before checker (`ds-verify`).
    /// Off by default; the traced execution is bit-identical to the untraced
    /// one. The lock-step executor ignores this (no deliveries to trace).
    pub trace: bool,
    /// Dynamic-topology fault plan (link churn, crash-stop failures) the
    /// asynchronous engines consult at dispatch and delivery time. `None` runs
    /// on the intact topology. The lock-step executor **ignores** faults — it
    /// is the fault-free ground truth degraded runs are compared against.
    pub faults: Option<FaultPlan>,
    /// Engine-state recycling pool ([`ds_netsim::recycle`]). When set, serial
    /// [`SchedulerKind::TimingWheel`] runs check their engine state (wheel,
    /// link table, payload arena) out of this shared bank and return it after
    /// the run, instead of allocating cold. Schedules are bit-identical with
    /// or without a bank (the reset contract, DESIGN.md §11); other
    /// scheduler kinds and traced runs ignore it. `None` (the default) always
    /// allocates cold.
    pub recycle: Option<SlabBank>,
}

/// Runs a synchronizer protocol on the engine the environment selects:
/// [`SchedulerKind::Sharded`] dispatches to the sharded engine (worker threads
/// when the host has them — the synchronizer protocols are `Send` because
/// [`EventDriven`] algorithms are), everything else to the serial engine. All
/// kinds produce bit-identical runs. With `env.trace` set, the run also
/// records the delivery trace the happens-before checker consumes.
fn run_env_async<P, F>(
    env: &ExecutionEnv<'_>,
    make: F,
) -> Result<(AsyncReport<P>, Option<DeliveryTrace>), SimError>
where
    P: Protocol + Send,
    P::Message: Send + 'static,
    F: FnMut(NodeId) -> P,
{
    let (graph, delay, faults, limits) =
        (env.graph, env.delay.clone(), env.faults.as_ref(), env.limits);
    match (env.scheduler, env.trace, env.recycle.as_ref()) {
        // Recycled path: serial wheel runs draw their engine state from the
        // environment's slab bank. Bit-identical to the cold paths below — the
        // recycling reset contract is asserted by the engine itself — and
        // scoped to exactly the configuration the slabs fit (the sharded
        // engine owns per-shard state, and traced runs are rare one-off
        // verification runs). An error run drops its slab instead of checking
        // it back in: the bank only ever pools provably clean state.
        (SchedulerKind::TimingWheel, false, Some(bank)) => {
            let mut slab = bank.checkout::<P::Message>();
            let report = run_async_recycled(graph, delay, faults, make, limits, &mut slab)?;
            bank.check_in(slab);
            Ok((report, None))
        }
        (SchedulerKind::Sharded { shards, workers }, traced, _) => {
            let opts = ShardedOptions { workers, ..ShardedOptions::new(shards) };
            if traced {
                run_async_sharded_faulted_traced_with(graph, delay, faults, make, limits, opts)
                    .map(|(report, trace)| (report, Some(trace)))
            } else {
                run_async_sharded_faulted_with(graph, delay, faults, make, limits, opts)
                    .map(|report| (report, None))
            }
        }
        (kind, true, _) => run_async_faulted_traced(graph, delay, faults, make, limits, kind)
            .map(|(report, trace)| (report, Some(trace))),
        (kind, false, _) => {
            run_async_faulted(graph, delay, faults, make, limits, kind).map(|report| (report, None))
        }
    }
}

/// Degradation status of a run under a fault plan: which nodes were lost and
/// which produced no output. A fault-free run on a connected graph has both
/// lists empty; under churn a workload still terminates (dropped messages
/// starve the schedule instead of wedging it) and this records exactly how
/// partial the result is.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunHealth {
    /// Nodes left crashed when the fault plan ran out
    /// ([`FaultPlan::crashed_at_end`]): their outputs are unreliable by
    /// definition — the node stopped participating.
    pub crashed: Vec<NodeId>,
    /// Nodes that produced no output (`None`), crashed or not: partitioned
    /// nodes starve and land here without ever having crashed themselves.
    pub missing: Vec<NodeId>,
}

impl RunHealth {
    /// Whether the run degraded at all: some node crashed or produced no output.
    pub fn is_partial(&self) -> bool {
        !self.crashed.is_empty() || !self.missing.is_empty()
    }

    /// Health of a finished run: crash status from the environment's fault plan
    /// (the lock-step executor passes no plan — it ignores faults), missing
    /// nodes from the collected outputs.
    fn of<O>(faults: Option<&FaultPlan>, outputs: &[Option<O>]) -> Self {
        RunHealth {
            crashed: faults.map(|p| p.crashed_at_end(outputs.len())).unwrap_or_default(),
            missing: outputs
                .iter()
                .enumerate()
                .filter(|(_, o)| o.is_none())
                .map(|(i, _)| NodeId(i))
                .collect(),
        }
    }
}

/// Result of running an event-driven algorithm through an executor.
#[derive(Clone, Debug)]
pub struct SynchronizedRun<O> {
    /// Per-node outputs.
    pub outputs: Vec<Option<O>>,
    /// Metrics of the run.
    pub metrics: RunMetrics,
    /// Ordering violations recorded by the synchronizer (always 0 in a correct run;
    /// only the deterministic synchronizer instruments this).
    pub ordering_violations: u64,
    /// The delivery trace, when the environment asked for one
    /// ([`ExecutionEnv::trace`]; always `None` for the lock-step executor).
    pub trace: Option<DeliveryTrace>,
    /// Always 0, like [`AsyncReport::batched_ticks`]: the sharded engine's
    /// batched windows were removed. Kept because external readers
    /// (`benchmark/`) name the field.
    pub batched_ticks: u64,
    /// Deliveries dropped by the fault plan ([`AsyncReport::dropped_events`];
    /// 0 without faults and for the lock-step executor).
    pub dropped_events: u64,
    /// Fault-plan operations applied by the engine
    /// ([`AsyncReport::fault_transitions`]; 0 for the lock-step executor).
    pub fault_transitions: u64,
    /// Peak number of simultaneously live payload handles in the engine's
    /// event arena(s) ([`AsyncReport::peak_live_handles`]; 0 for the
    /// lock-step executor). New in bench schema v6.
    pub peak_live_handles: u64,
    /// Bytes held by the payload-arena slabs at the end of the run
    /// ([`AsyncReport::arena_bytes`]; 0 for the lock-step executor).
    pub arena_bytes: u64,
    /// Largest one-tick due batch the engine drained
    /// ([`AsyncReport::max_batch`]; 0 for the lock-step executor).
    pub max_batch: u64,
    /// Degradation status: crashed nodes and nodes with no output. A run under
    /// faults never hangs — it terminates with this explicit partial-result
    /// status instead.
    pub health: RunHealth,
}

/// The engine counters a [`SynchronizedRun`] republishes from its
/// [`AsyncReport`]; all zero (the default) for the lock-step executor.
#[derive(Default)]
struct EngineCounters {
    dropped_events: u64,
    fault_transitions: u64,
    peak_live_handles: u64,
    arena_bytes: u64,
    max_batch: u64,
}

impl EngineCounters {
    fn of<P>(report: &AsyncReport<P>) -> Self {
        EngineCounters {
            dropped_events: report.dropped_events,
            fault_transitions: report.fault_transitions,
            peak_live_handles: report.peak_live_handles,
            arena_bytes: report.arena_bytes,
            max_batch: report.max_batch,
        }
    }
}

impl<O> SynchronizedRun<O> {
    /// The one place a run's result is assembled, whatever executed it.
    fn assemble(
        metrics: RunMetrics,
        engine: EngineCounters,
        outputs: Vec<Option<O>>,
        ordering_violations: u64,
        trace: Option<DeliveryTrace>,
        health: RunHealth,
    ) -> Self {
        SynchronizedRun {
            outputs,
            metrics,
            ordering_violations,
            trace,
            batched_ticks: 0,
            dropped_events: engine.dropped_events,
            fault_transitions: engine.fault_transitions,
            peak_live_handles: engine.peak_live_handles,
            arena_bytes: engine.arena_bytes,
            max_batch: engine.max_batch,
            health,
        }
    }
}

/// An execution strategy for event-driven algorithms: wraps per-node algorithm
/// state, delivers pulses, and collects outputs.
///
/// Object-safe over the algorithm type `A`, so heterogeneous executors can be swept
/// uniformly (`Box<dyn Synchronizer<A>>`). The algorithm factory is taken as a
/// `&mut dyn FnMut` for the same reason.
pub trait Synchronizer<A: EventDriven> {
    /// Short human-readable name ("direct", "alpha", "beta", "det"), used as a row
    /// label by the experiment harness.
    fn name(&self) -> &'static str;

    /// Runs one instance of the algorithm per node and collects outputs and metrics.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the underlying simulation fails (non-neighbor send,
    /// event or round budget exceeded).
    fn execute(
        &self,
        env: &ExecutionEnv<'_>,
        make_alg: &mut dyn FnMut(NodeId) -> A,
    ) -> Result<SynchronizedRun<A::Output>, SimError>;
}

/// Lock-step synchronous execution: the ground truth the synchronizers are measured
/// against. No synchronizer at all — the delay adversary is irrelevant.
#[derive(Clone, Copy, Debug, Default)]
pub struct DirectExecutor;

impl<A: EventDriven> Synchronizer<A> for DirectExecutor {
    fn name(&self) -> &'static str {
        "direct"
    }

    fn execute(
        &self,
        env: &ExecutionEnv<'_>,
        make_alg: &mut dyn FnMut(NodeId) -> A,
    ) -> Result<SynchronizedRun<A::Output>, SimError> {
        let report = run_sync(env.graph, make_alg, env.limits.max_rounds)?;
        let outputs = report.outputs();
        let health = RunHealth::of(None, &outputs);
        let engine = EngineCounters::default();
        Ok(SynchronizedRun::assemble(report.metrics, engine, outputs, 0, None, health))
    }
}

/// Awerbuch's α synchronizer (Appendix A): `O(1)` time but `Θ(m)` messages per pulse.
#[derive(Clone, Debug)]
pub struct AlphaExecutor {
    /// Upper bound on the simulated pulses (the algorithm's `T(A)`).
    pub max_pulse: u64,
}

impl<A: EventDriven> Synchronizer<A> for AlphaExecutor {
    fn name(&self) -> &'static str {
        "alpha"
    }

    fn execute(
        &self,
        env: &ExecutionEnv<'_>,
        make_alg: &mut dyn FnMut(NodeId) -> A,
    ) -> Result<SynchronizedRun<A::Output>, SimError> {
        let max_pulse = self.max_pulse;
        let (report, trace) =
            run_env_async(env, |v| AlphaSynchronizer::new(env.graph, v, make_alg(v), max_pulse))?;
        let outputs: Vec<_> = report.nodes.iter().map(|n| n.algorithm().output()).collect();
        let health = RunHealth::of(env.faults.as_ref(), &outputs);
        let engine = EngineCounters::of(&report);
        Ok(SynchronizedRun::assemble(report.metrics, engine, outputs, 0, trace, health))
    }
}

/// Awerbuch's β synchronizer (Appendix A): per-pulse convergecast/broadcast on a
/// global spanning tree — `Θ(n)` messages and `Θ(D)` time per pulse.
#[derive(Clone, Debug)]
pub struct BetaExecutor {
    /// The precomputed rooted spanning tree.
    pub tree: Arc<SpanningTree>,
    /// Upper bound on the simulated pulses (the algorithm's `T(A)`).
    pub max_pulse: u64,
}

impl<A: EventDriven> Synchronizer<A> for BetaExecutor {
    fn name(&self) -> &'static str {
        "beta"
    }

    fn execute(
        &self,
        env: &ExecutionEnv<'_>,
        make_alg: &mut dyn FnMut(NodeId) -> A,
    ) -> Result<SynchronizedRun<A::Output>, SimError> {
        let max_pulse = self.max_pulse;
        let tree = Arc::clone(&self.tree);
        let (report, trace) =
            run_env_async(env, |v| BetaSynchronizer::new(tree.clone(), v, make_alg(v), max_pulse))?;
        let outputs: Vec<_> = report.nodes.iter().map(|n| n.algorithm().output()).collect();
        let health = RunHealth::of(env.faults.as_ref(), &outputs);
        let engine = EngineCounters::of(&report);
        Ok(SynchronizedRun::assemble(report.metrics, engine, outputs, 0, trace, health))
    }
}

/// The paper's deterministic synchronizer (Sections 4–5, Theorems 5.2–5.5):
/// polylogarithmic time and message overheads via layered sparse covers.
#[derive(Clone, Debug)]
pub struct DetExecutor {
    /// The shared synchronizer configuration (pulse bound + covers).
    pub cfg: Arc<SynchronizerConfig>,
}

impl<A: EventDriven> Synchronizer<A> for DetExecutor {
    fn name(&self) -> &'static str {
        "det"
    }

    fn execute(
        &self,
        env: &ExecutionEnv<'_>,
        make_alg: &mut dyn FnMut(NodeId) -> A,
    ) -> Result<SynchronizedRun<A::Output>, SimError> {
        let cfg = Arc::clone(&self.cfg);
        let (report, trace) =
            run_env_async(env, |v| DetSynchronizer::new(v, make_alg(v), cfg.clone()))?;
        let collected = collect_outputs(&report.nodes);
        let health = RunHealth::of(env.faults.as_ref(), &collected.outputs);
        let engine = EngineCounters::of(&report);
        Ok(SynchronizedRun::assemble(
            report.metrics,
            engine,
            collected.outputs,
            collected.ordering_violations,
            trace,
            health,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_netsim::event_driven::PulseCtx;

    /// Minimal flooding workload for exercising executors directly.
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
    fn all_executors_reproduce_the_direct_outputs() {
        let graph = Graph::grid(3, 3);
        let env = ExecutionEnv {
            graph: &graph,
            delay: DelayModel::jitter(5),
            limits: SimLimits::default(),
            scheduler: SchedulerKind::default(),
            trace: false,
            faults: None,
            recycle: None,
        };
        let direct =
            DirectExecutor.execute(&env, &mut |v| Flood::new(&graph, v)).expect("direct run");
        let t = 10; // generous pulse bound for a 3x3 grid flood
        let executors: Vec<Box<dyn Synchronizer<Flood>>> = vec![
            Box::new(AlphaExecutor { max_pulse: t }),
            Box::new(BetaExecutor { tree: SpanningTree::bfs(&graph, NodeId(0)), max_pulse: t }),
            Box::new(DetExecutor { cfg: SynchronizerConfig::build(&graph, t) }),
        ];
        for exec in executors {
            let run = exec.execute(&env, &mut |v| Flood::new(&graph, v)).expect("run");
            assert_eq!(run.outputs, direct.outputs, "{} diverged", exec.name());
            assert_eq!(run.ordering_violations, 0);
        }
    }
}
