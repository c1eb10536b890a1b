//! The benchmark's contract in one place: every metric with its unit,
//! direction and regression bound, and the `BENCHMARK.json` the repo root
//! carries. The committed file is generated from these tables
//! (`--emit-manifest`) and a unit test holds the two together, so a metric
//! cannot be printed without being declared or declared without being printed.

use crate::json::Json;
use crate::workloads;

/// Nominal length of one run, seconds (`run_seconds`). Workload call counts
/// are sized against it.
pub const RUN_SECONDS: u64 = 20;

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

/// The command the driver appends `--workload … --seed … --seconds … --trace …` to.
pub const COMMAND: [&str; 7] =
    ["cargo", "run", "--release", "--quiet", "--manifest-path", "benchmark/Cargo.toml", "--"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by `--trace 0`. *Host* metrics are wall time
/// and memory of the simulator; *sim* metrics are simulated `τ`-time and
/// message counts of the modelled network, deterministic for a given seed.
///
/// `failed_share` is not in this table: it is 0 on every healthy run, and the
/// driver's contract wants metrics that are never 0. It travels as the
/// `failed` / `attempted` keys of the result line instead.
pub const END_TO_END: [MetricDef; 8] = [
    // host: the bounds are what this shared VM's run-to-run spread allows
    // (README, "Noise, and how to tell"), not what one would wish for; the
    // issue asked for 10 % on the timing metrics and 5 % on memory
    e2e("setup_s", "s", Lower, 0.25),
    e2e("latency_s_p50", "s", Lower, 0.20),
    e2e("latency_s_p75", "s", Lower, 0.25),
    e2e("requests_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    // sim: exact for a given seed; the bound only has to cover what the
    // seed's jitter draws move between runs
    e2e("sim_time_overhead", "ratio", Lower, 0.03),
    e2e("sim_message_overhead", "ratio", Lower, 0.02),
    e2e("sim_events", "count", Lower, 0.02),
];

/// Per-layer metrics, reported by `--trace 1`. Time metrics are means per
/// top-level call over the traced loop unless the name says otherwise;
/// set-up lines are means per traced set-up.
pub const PER_LAYER: [MetricDef; 63] = [
    // set-up
    layer("setup.traced_wall_s", "s", Lower),
    layer("setup.glue_s", "s", Lower),
    layer("graph.generate.busy_s", "s", Lower),
    layer("graph.diameter_bounds.busy_s", "s", Lower),
    layer("graph.diameter.busy_s", "s", Lower),
    layer("netsim.sync_engine.busy_s", "s", Lower),
    layer("covers.build.busy_s", "s", Lower),
    layer("sync.config_build.busy_s", "s", Lower),
    layer("sync.config_build.self_s", "s", Lower),
    layer("sync.cache.prewarm.busy_s", "s", Lower),
    layer("covers.layers", "count", Lower),
    layer("covers.clusters", "count", Lower),
    layer("covers.max_membership", "count", Lower),
    layer("covers.max_height", "count", Lower),
    // the timed call, layer by layer
    layer("trace.call_wall_s", "s", Lower),
    layer("trace.untraced_p50_s", "s", Lower),
    layer("trace.overhead", "ratio", Lower),
    layer("trace.clock_read_ns", "ns", Lower),
    layer("bench.glue_s", "s", Lower),
    layer("verify.busy_s", "s", Lower),
    layer("sync.session.self_s", "s", Lower),
    layer("sync.session.bound_resolve.busy_s", "s", Lower),
    layer("sync.cache.hit.busy_s", "s", Lower),
    layer("sync.cache.miss.busy_s", "s", Lower),
    layer("sync.cache.hits", "count", Higher),
    layer("sync.cache.misses", "count", Lower),
    layer("sync.cache.evictions", "count", Lower),
    layer("sync.cache.hit_ratio", "ratio", Higher),
    layer("graph.structural_hash.busy_s", "s", Lower),
    layer("sync.pool.spinup_s", "s", Lower),
    layer("netsim.run.wall_s", "s", Lower),
    layer("netsim.engine.self_s", "s", Lower),
    layer("netsim.engine.ns_per_event", "ns", Lower),
    layer("netsim.engine.residual_s", "s", Lower),
    layer("netsim.wheel.replay_ns_per_event", "ns", Lower),
    layer("netsim.stage_queue.replay_ns_per_op", "ns", Lower),
    layer("netsim.arena.replay_ns_per_event", "ns", Lower),
    layer("sync.protocol.busy_s", "s", Lower),
    layer("sync.protocol.self_s", "s", Lower),
    layer("sync.protocol.calls", "count", Lower),
    layer("sync.protocol.ns_per_call", "ns", Lower),
    layer("sync.protocol.share", "ratio", Lower),
    layer("algos.on_pulse.busy_s", "s", Lower),
    layer("algos.on_pulse.calls", "count", Lower),
    // engine counters over one pass of the request list
    layer("netsim.events", "count", Lower),
    layer("netsim.acks", "count", Lower),
    layer("netsim.max_batch", "count", Higher),
    layer("netsim.peak_live_handles", "count", Lower),
    layer("netsim.arena_bytes", "count", Lower),
    layer("netsim.overflow_events", "count", Lower),
    layer("netsim.batched_ticks", "count", Higher),
    layer("netsim.pool_dispatches", "count", Lower),
    layer("netsim.dropped_events", "count", Lower),
    layer("netsim.fault_transitions", "count", Lower),
    // recycling and the engine A/Bs, on the pass's first request
    layer("netsim.slab.checkouts", "count", Lower),
    layer("netsim.slab.reuses", "count", Higher),
    layer("netsim.slab.reuse_ratio", "ratio", Higher),
    layer("netsim.recycle.saving_s", "s", Higher),
    layer("netsim.sharded.vs_serial", "ratio", Lower),
    layer("netsim.heap.vs_wheel", "ratio", Higher),
    // the noise canary
    layer("host.calib_before_s", "s", Lower),
    layer("host.calib_after_s", "s", Lower),
    layer("host.nproc", "count", Higher),
];

/// The `BENCHMARK.json` document.
pub fn benchmark_json() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strings(&COMMAND)),
        ("paths", strings(&PATHS)),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                workloads::NAMES
                    .iter()
                    .map(|name| {
                        Json::obj([
                            ("name", Json::str(*name)),
                            ("why", Json::str(workloads::why(name))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn well_formed_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn the_tables_meet_the_contracts_limits() {
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name).chain(workloads::NAMES).collect();
        assert!(names.iter().all(|n| well_formed_name(n)));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used twice");
        let unit_ok =
            |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16 && m.unit.chars().all(unit_ok), "{}", m.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(workloads::NAMES.iter().all(|n| workloads::why(n).len() <= 200));
        assert!(benchmark_json().render_pretty().len() <= 64 * 1024);
        // 4 + 22 runs per workload, each about RUN_SECONDS plus set-up and
        // warm-up, must fit the driver's 3420 s with room to spare.
        let runs = 4 + 22 * workloads::NAMES.len() as u64;
        assert!(runs * (RUN_SECONDS + 6) < 3420 * 4 / 5);
    }

    #[test]
    fn the_committed_benchmark_json_is_the_generated_one() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&committed).expect("valid JSON"),
            benchmark_json(),
            "regenerate with `cargo run --release -- --emit-manifest > ../BENCHMARK.json`"
        );
    }
}
