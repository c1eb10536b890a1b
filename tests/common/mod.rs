//! Shared by the `Session`-level engine-contract tests: every `SyncKind` over
//! every engine configuration of `ds_verify::rows`, selected through
//! `Session::{scheduler, recycle, record_trace}`.

use det_synchronizer::netsim::SlabBank;
use det_synchronizer::prelude::*;
use ds_verify::{check_equivalence, check_trace, rows, SlabState};
use std::fmt::Debug;

/// Runs `make` under every `SyncKind` × contract row on `graph` under `delay`
/// and asserts each run equals the kind's first (wheel) run.
pub fn check_sessions<A: EventDriven>(graph: &Graph, delay: DelayModel, make: impl Fn(NodeId) -> A)
where
    A::Output: PartialEq + Debug,
{
    for kind in SyncKind::standard_suite() {
        let bank = SlabBank::new();
        let mut first = None;
        let mut first_trace = None;
        for row in rows(graph.node_count()) {
            let at = || format!("{}, {row:?}, {delay:?}", kind.label());
            let mut session = Session::on(graph)
                .delay(delay.clone())
                .synchronizer(kind.clone())
                .scheduler(row.spec.scheduler)
                .record_trace(row.spec.trace);
            if row.slab != SlabState::None {
                session = session.recycle(bank.clone());
            }
            let run = session.run(&make).unwrap_or_else(|e| panic!("{}: {e}", at()));
            let traced = row.spec.trace && !matches!(kind, SyncKind::Direct);
            assert_eq!(run.trace.is_some(), traced, "{}", at());
            if let Some(trace) = &run.trace {
                check_trace(trace).unwrap_or_else(|v| panic!("{}: {v:?}", at()));
            }
            let Some(first) = &first else {
                first = Some(run);
                continue;
            };
            let counters = |r: &SynchronizedRun<A::Output>| {
                let SynchronizedRun {
                    ordering_violations,
                    batched_ticks,
                    dropped_events,
                    fault_transitions,
                    peak_live_handles,
                    arena_bytes,
                    max_batch,
                    ..
                } = *r;
                let arena_bytes = row.reports_arena_bytes().then_some(arena_bytes);
                (
                    ordering_violations,
                    batched_ticks,
                    dropped_events,
                    fault_transitions,
                    peak_live_handles,
                    arena_bytes,
                    max_batch,
                )
            };
            assert_eq!(run.outputs, first.outputs, "outputs ({})", at());
            assert_eq!(run.metrics, first.metrics, "metrics ({})", at());
            assert_eq!(run.health, first.health, "health ({})", at());
            assert_eq!(counters(&run), counters(first), "engine counters ({})", at());
            if let Some(trace) = &run.trace {
                let first_trace = first_trace.get_or_insert_with(|| trace.clone());
                check_equivalence(first_trace, trace).unwrap_or_else(|v| panic!("{}: {v:?}", at()));
            }
        }
    }
}
