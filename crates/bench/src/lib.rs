//! Experiment harness reproducing the paper's complexity claims (see DESIGN.md §4).
//!
//! Each experiment runs a workload over a parameter sweep, collects one [`Row`] per
//! parameter point, and returns the rows so that tests and captured logs stay
//! consistent; the `exp_*` binaries print them through the shared [`table`] module.
//! The paper has no numbered tables or figures (it is a theory paper), so every
//! experiment targets a theorem: the quantities of interest are time and message
//! *overhead factors* and their growth with `n`.
//!
//! Simulator speed is not measured here: the stand-alone `benchmark/` package is
//! the performance reference, and schedule identity (event counts, digests) is
//! pinned by `tests/golden_schedule.rs`. What remains beside E1–E8 is the E7
//! microbench (`benches/synchronizer.rs`) and the E10 scheduler microbench
//! (`exp_sched`).
//!
//! All executions flow through [`Session::run`], which dispatches on the
//! [`SyncKind`] — the baseline comparison (E2) is literally a loop over
//! [`SyncKind::standard_suite`], with no per-baseline runner code.

#![forbid(unsafe_code)]

pub mod table;

pub use table::{print_table, render_table, Row};

use ds_algos::bfs::BfsAlgorithm;
use ds_algos::flood::FloodAlgorithm;
use ds_algos::leader::run_synchronized_leader_election;
use ds_algos::mst::run_synchronized_mst;
use ds_covers::builder::build_layered_sparse_cover;
use ds_covers::stats::layered_stats;
use ds_graph::weights::{minimum_spanning_tree, EdgeWeights};
use ds_graph::{metrics, Graph, NodeId};
use ds_netsim::delay::DelayModel;
use ds_netsim::sync_engine::run_sync;
use ds_sync::session::{Session, SyncKind};

/// The graph families used by the sweeps.
pub fn graph_suite(sizes: &[usize]) -> Vec<(String, Graph)> {
    let mut out = Vec::new();
    for &n in sizes {
        out.push((format!("path/{n}"), Graph::path(n)));
        let side = (n as f64).sqrt().round().max(2.0) as usize;
        out.push((format!("grid/{}", side * side), Graph::grid(side, side)));
        out.push((
            format!("random/{n}"),
            Graph::random_connected(n, (3.0 / n as f64).min(1.0), n as u64),
        ));
    }
    out
}

/// E1 — Theorem 1.1 / 5.3: time and message overheads of the deterministic
/// synchronizer on single-source BFS, across graph families and sizes.
pub fn experiment_overhead(sizes: &[usize], delay_seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for (label, graph) in graph_suite(sizes) {
        let report = Session::on(&graph)
            .delay(DelayModel::jitter(delay_seed))
            .synchronizer(SyncKind::DetAuto)
            .compare(|v| BfsAlgorithm::new(&graph, v, &[NodeId(0)]))
            .expect("comparison run");
        let n = graph.node_count() as f64;
        rows.push(Row {
            label,
            values: vec![
                ("match", if report.outputs_match() { 1.0 } else { 0.0 }),
                ("n", n),
                ("m", graph.edge_count() as f64),
                ("T(A)", report.sync_rounds as f64),
                ("M(A)", report.sync_messages as f64),
                ("asyncT", report.async_metrics.time_to_output.unwrap_or(f64::NAN)),
                ("asyncM", report.async_metrics.total_messages() as f64),
                ("timeOvh", report.time_overhead().unwrap_or(f64::NAN)),
                ("msgOvh", report.message_overhead()),
                (
                    "msg/(m·lg²n)",
                    report.async_metrics.total_messages() as f64
                        / (graph.edge_count() as f64 * n.log2().powi(2)),
                ),
            ],
        });
    }
    rows
}

/// E2 — Appendix A comparison: every execution strategy (direct, α, β, det) on the
/// same flooding workload, as one parametrized sweep over [`SyncKind`]. One row per
/// (graph, synchronizer); outputs are asserted to match the ground truth in every
/// case.
pub fn experiment_baselines(sizes: &[usize], delay_seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        let side = (n as f64).sqrt().round().max(2.0) as usize;
        let graph = Graph::grid(side, side);
        let source = NodeId(0);
        let delay = DelayModel::jitter(delay_seed);
        // One ground-truth run per graph: `compare` would re-run it for every kind
        // (and the direct row would duplicate it a fifth time).
        let truth = run_sync(&graph, &mut |v| FloodAlgorithm::new(&graph, v, source, 1), 1_000_000)
            .expect("ground truth");
        let (t, m) = (truth.rounds_to_quiescence, truth.messages);
        for kind in SyncKind::standard_suite() {
            let run = Session::on(&graph)
                .delay(delay.clone())
                .synchronizer(kind.clone())
                .pulse_bound(t)
                .run(|v| FloodAlgorithm::new(&graph, v, source, 1))
                .expect("baseline run");
            assert_eq!(run.outputs, truth.outputs(), "{} diverged on grid/{n}", kind.label());
            rows.push(Row {
                label: format!("grid/{}/{}", side * side, kind.label()),
                values: vec![
                    ("n", graph.node_count() as f64),
                    ("T(A)", t as f64),
                    ("M(A)", m as f64),
                    ("time", run.metrics.time_to_output.unwrap_or(f64::NAN)),
                    ("msgs", run.metrics.total_messages() as f64),
                    ("timeOvh", run.metrics.time_to_output.unwrap_or(f64::NAN) / t.max(1) as f64),
                    ("msgOvh", run.metrics.total_messages() as f64 / m.max(1) as f64),
                ],
            });
        }
    }
    rows
}

/// E3/E4/E5 — the Section 6 applications: asynchronous BFS, leader election and MST,
/// with their time and message costs next to `D`, `m` and `n`.
pub fn experiment_applications(sizes: &[usize], delay_seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        let graph = Graph::random_connected(n, (3.0 / n as f64).min(1.0), n as u64 + 7);
        let d = metrics::diameter(&graph).unwrap() as f64;
        let delay = DelayModel::jitter(delay_seed);

        let bfs = ds_algos::bfs::run_synchronized_bfs(&graph, NodeId(0), delay.clone()).unwrap();
        let le = run_synchronized_leader_election(&graph, delay.clone()).unwrap();
        let weights = EdgeWeights::random_distinct(&graph, n as u64);
        let mst = run_synchronized_mst(&graph, &weights, delay).unwrap();
        let reference = minimum_spanning_tree(&graph, &weights);
        assert_eq!(mst.tree_edges.len(), reference.len());

        rows.push(Row {
            label: format!("random/{n}"),
            values: vec![
                ("n", n as f64),
                ("m", graph.edge_count() as f64),
                ("D", d),
                ("bfsT", bfs.metrics.time_to_output.unwrap_or(f64::NAN)),
                ("bfsM", bfs.metrics.total_messages() as f64),
                ("leT", le.metrics.time_to_output.unwrap_or(f64::NAN)),
                ("leM", le.metrics.total_messages() as f64),
                ("mstT", mst.metrics.time_to_output.unwrap_or(f64::NAN)),
                ("mstM", mst.metrics.total_messages() as f64),
            ],
        });
    }
    rows
}

/// E6 — sparse-cover quality (Definition 2.1 / Theorem 4.21): membership, stretch and
/// edge load per layer.
pub fn experiment_covers(sizes: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        let graph = Graph::random_connected(n, (3.0 / n as f64).min(1.0), 3 * n as u64);
        let d = metrics::diameter(&graph).unwrap().max(1);
        let layered = build_layered_sparse_cover(&graph, d);
        for stats in layered_stats(&graph, &layered) {
            rows.push(Row {
                label: format!("random/{n} d={}", stats.radius),
                values: vec![
                    ("n", n as f64),
                    ("clusters", stats.clusters as f64),
                    ("maxMember", stats.max_membership as f64),
                    ("avgMember", stats.avg_membership),
                    ("treeHeight", stats.max_tree_height as f64),
                    ("stretch", stats.stretch),
                    ("edgeLoad", stats.max_edge_load as f64),
                ],
            });
        }
    }
    rows
}

/// E8 — robustness: the synchronized BFS under every delay adversary; outputs must
/// match the synchronous run in every case.
pub fn experiment_adversaries(n: usize) -> Vec<Row> {
    let graph = Graph::random_connected(n, (3.0 / n as f64).min(1.0), 11);
    let mut rows = Vec::new();
    for delay in DelayModel::standard_suite(5) {
        let report = Session::on(&graph)
            .delay(delay.clone())
            .synchronizer(SyncKind::DetAuto)
            .compare(|v| BfsAlgorithm::new(&graph, v, &[NodeId(0)]))
            .expect("run");
        assert!(report.outputs_match(), "{delay:?}");
        rows.push(Row {
            label: format!("{delay:?}"),
            values: vec![
                ("match", 1.0),
                ("asyncT", report.async_metrics.time_to_output.unwrap_or(f64::NAN)),
                ("asyncM", report.async_metrics.total_messages() as f64),
                ("timeOvh", report.time_overhead().unwrap_or(f64::NAN)),
                ("msgOvh", report.message_overhead()),
            ],
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_rows_have_matching_outputs_and_bounded_overhead() {
        let rows = experiment_overhead(&[16], 1);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.value("match"), Some(1.0));
            assert!(row.value("msgOvh").unwrap() >= 1.0);
            assert!(row.value("timeOvh").unwrap() > 0.0);
        }
    }

    #[test]
    fn baseline_sweep_covers_all_kinds_and_alpha_pays_per_pulse_edges() {
        let rows = experiment_baselines(&[16], 2);
        // One row per synchronizer kind, all on the same workload.
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        for kind in ["direct", "alpha", "beta", "det"] {
            assert!(
                labels.iter().any(|l| l.ends_with(kind)),
                "missing row for {kind} in {labels:?}"
            );
        }
        // α sends Θ(m) safety messages per pulse, so with T ≈ 2·diameter pulses its
        // message count must exceed the algorithm's own by a large factor.
        let alpha = rows.iter().find(|r| r.label.ends_with("alpha")).unwrap();
        assert!(alpha.value("msgs").unwrap() > 4.0 * alpha.value("M(A)").unwrap());
        // The direct row is the ground truth: messages equal M(A) exactly.
        let direct = rows.iter().find(|r| r.label.ends_with("direct")).unwrap();
        assert_eq!(direct.value("msgs"), direct.value("M(A)"));
    }

    #[test]
    fn cover_rows_report_valid_statistics() {
        let rows = experiment_covers(&[20]);
        assert!(!rows.is_empty());
        for row in rows {
            assert!(row.value("maxMember").unwrap() >= 1.0);
            // Stretch can drop below 1 when the layer's radius exceeds the graph
            // diameter (the tree is then shallower than the radius).
            assert!(row.value("stretch").unwrap() > 0.0);
        }
    }

    #[test]
    fn adversary_rows_always_match() {
        for row in experiment_adversaries(18) {
            assert_eq!(row.value("match"), Some(1.0));
        }
    }
}
