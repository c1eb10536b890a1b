//! The result of a run — [`SynchronizedRun`] and its [`RunHealth`] — and the
//! one engine dispatch every asynchronous synchronizer shares.
//!
//! The paper presents the deterministic synchronizer as a *drop-in wrapper*: any
//! event-driven synchronous algorithm runs unchanged under any synchronizer, and its
//! overheads are measured against the synchronous ground truth. [`Session::run`]
//! makes that uniformity literal: it matches on the
//! [`SyncKind`](crate::session::SyncKind) once, wraps each node's algorithm in
//! the chosen protocol (α, β or the paper's det synchronizer) and hands it to
//! the engine dispatch below, so every kind yields the same [`SynchronizedRun`].

use crate::session::Session;
use crate::synchronizer::SynchronizedOutputs;
use ds_graph::NodeId;
use ds_netsim::async_engine::{run_async_faulted, run_async_faulted_traced, SimError};
use ds_netsim::metrics::RunMetrics;
use ds_netsim::protocol::Protocol;
use ds_netsim::recycle::run_async_recycled;
use ds_netsim::sharded::{
    run_async_sharded_faulted_traced_with, run_async_sharded_faulted_with, ShardedOptions,
};
use ds_netsim::{DeliveryTrace, FaultPlan, SchedulerKind};

impl Session<'_> {
    /// Runs a synchronizer protocol on the engine the session selects and
    /// assembles the result: [`SchedulerKind::Sharded`] dispatches to the
    /// sharded engine (worker threads when the host has them — the
    /// synchronizer protocols are `Send` because
    /// [`EventDriven`](ds_netsim::event_driven::EventDriven) algorithms are),
    /// everything else to the serial engine. All kinds produce bit-identical
    /// runs. With tracing on, the run also records the delivery trace the
    /// happens-before checker consumes. `collect` reads the per-node outputs
    /// and ordering violations off the finished protocol instances.
    pub(crate) fn run_async<P, O, F>(
        &self,
        make: F,
        collect: impl FnOnce(&[P]) -> SynchronizedOutputs<O>,
    ) -> Result<SynchronizedRun<O>, SimError>
    where
        P: Protocol + Send,
        P::Message: Send + 'static,
        F: FnMut(NodeId) -> P,
    {
        let (graph, delay, faults, limits) =
            (self.graph, self.delay.clone(), self.faults.as_ref(), self.limits);
        let (report, trace) = match (self.scheduler, self.trace, self.recycle.as_ref()) {
            // Recycled path: serial wheel runs draw their engine state from the
            // session's slab bank. Bit-identical to the cold paths below — the
            // recycling reset contract is asserted by the engine itself — and
            // scoped to exactly the configuration the slabs fit (the sharded
            // engine owns per-shard node state, and traced runs are rare one-off
            // verification runs). An error run drops its slab instead of checking
            // it back in: the bank only ever pools provably clean state.
            (SchedulerKind::TimingWheel, false, Some(bank)) => {
                let mut slab = bank.checkout::<P::Message>();
                let report = run_async_recycled(graph, delay, faults, make, limits, &mut slab)?;
                bank.check_in(slab);
                (report, None)
            }
            (SchedulerKind::Sharded { shards, workers }, traced, _) => {
                let opts = ShardedOptions { workers, ..ShardedOptions::new(shards) };
                if traced {
                    let (report, trace) = run_async_sharded_faulted_traced_with(
                        graph, delay, faults, make, limits, opts,
                    )?;
                    (report, Some(trace))
                } else {
                    (
                        run_async_sharded_faulted_with(graph, delay, faults, make, limits, opts)?,
                        None,
                    )
                }
            }
            (kind, true, _) => {
                let (report, trace) =
                    run_async_faulted_traced(graph, delay, faults, make, limits, kind)?;
                (report, Some(trace))
            }
            (kind, false, _) => {
                (run_async_faulted(graph, delay, faults, make, limits, kind)?, None)
            }
        };
        let SynchronizedOutputs { outputs, ordering_violations } = collect(&report.nodes);
        Ok(SynchronizedRun {
            health: RunHealth::of(faults, &outputs),
            outputs,
            metrics: report.metrics,
            ordering_violations,
            trace,
            batched_ticks: 0,
            dropped_events: report.dropped_events,
            fault_transitions: report.fault_transitions,
            peak_live_handles: report.peak_live_handles,
            arena_bytes: report.arena_bytes,
            max_batch: report.max_batch,
        })
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

    /// Health of a finished run: crash status from the session's fault plan
    /// (the lock-step run passes no plan — it ignores faults), missing nodes
    /// from the collected outputs.
    pub(crate) fn of<O>(faults: Option<&FaultPlan>, outputs: &[Option<O>]) -> Self {
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

/// Result of running an event-driven algorithm through a [`Session`].
#[derive(Clone, Debug)]
pub struct SynchronizedRun<O> {
    /// Per-node outputs.
    pub outputs: Vec<Option<O>>,
    /// Metrics of the run.
    pub metrics: RunMetrics,
    /// Ordering violations recorded by the synchronizer (always 0 in a correct run;
    /// only the deterministic synchronizer instruments this).
    pub ordering_violations: u64,
    /// The delivery trace, when the session asked for one
    /// ([`Session::record_trace`]; always `None` for the lock-step run).
    pub trace: Option<DeliveryTrace>,
    /// Always 0, like [`AsyncReport::batched_ticks`]: the sharded engine's
    /// batched windows were removed. Kept because external readers
    /// (`benchmark/`) name the field.
    ///
    /// [`AsyncReport::batched_ticks`]: ds_netsim::AsyncReport::batched_ticks
    pub batched_ticks: u64,
    /// Deliveries dropped by the fault plan
    /// ([`AsyncReport::dropped_events`](ds_netsim::AsyncReport::dropped_events);
    /// 0 without faults and for the lock-step run).
    pub dropped_events: u64,
    /// Fault-plan operations applied by the engine
    /// ([`AsyncReport::fault_transitions`](ds_netsim::AsyncReport::fault_transitions);
    /// 0 for the lock-step run).
    pub fault_transitions: u64,
    /// Peak number of simultaneously live payload handles in the engine's
    /// event arena(s)
    /// ([`AsyncReport::peak_live_handles`](ds_netsim::AsyncReport::peak_live_handles);
    /// 0 for the lock-step run).
    pub peak_live_handles: u64,
    /// Bytes held by the payload-arena slabs at the end of the run
    /// ([`AsyncReport::arena_bytes`](ds_netsim::AsyncReport::arena_bytes); 0 for
    /// the lock-step run).
    pub arena_bytes: u64,
    /// Largest one-tick due batch the engine drained
    /// ([`AsyncReport::max_batch`](ds_netsim::AsyncReport::max_batch); 0 for the
    /// lock-step run).
    pub max_batch: u64,
    /// Degradation status: crashed nodes and nodes with no output. A run under
    /// faults never hangs — it terminates with this explicit partial-result
    /// status instead.
    pub health: RunHealth,
}
