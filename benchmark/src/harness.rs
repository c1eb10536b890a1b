//! The measurement loops: set-up repeats, warm-up, a fixed number of timed
//! calls with the correctness gate inside, and the traced run that turns
//! spans into the per-layer budget.

use crate::api::{self, Bank, EngineCounters, Outcome, Prepared, SimCounters, Variant};
use crate::host;
use crate::json::Json;
use crate::replay::ReplaySchedule;
use crate::stats;
use crate::trace::{total_of, LayerTotal, Tracer};
use crate::workloads::{Call, EngineSpec, WorkloadSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Traced set-ups averaged for the set-up layer lines.
const TRACED_SETUP_REPS: usize = 3;
/// Calls run and discarded before the timed loop.
const WARMUP_CALLS: usize = 3;
/// Timed calls per workload under `--smoke`.
const SMOKE_CALLS: usize = 2;
/// Share of the untraced run's call count the traced run repeats (it runs
/// the loop twice — untraced for the overhead baseline, then traced — and
/// the probes on top, inside one run's time).
const TRACED_CALL_SHARE: usize = 5;
/// Stand-alone runs per side of an engine A/B in the traced run.
const AB_RUNS: usize = 3;

/// How long and how thoroughly to run.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    pub seconds: u64,
    /// Two timed calls, one set-up, no warm-up: a wiring check, not a measurement.
    pub smoke: bool,
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the log.
    pub failures: Vec<String>,
    /// Metric values by declared name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Everything else worth keeping in the result file.
    pub details: Json,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// The correctness gate: checks every outcome of every call against the
/// ground truth (done by the adapter) and against the same request's counters
/// from its first execution, so schedule identity is checked within the run.
struct Gate {
    first: Vec<Option<Outcome>>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Gate {
    fn new(requests: usize) -> Gate {
        Gate { first: vec![None; requests], attempted: 0, failed: 0, failures: Vec::new() }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Runs `run` for `call`, catching a panic as a failure of every request
    /// in the call, and gates the outcomes. Returns the call's wall time.
    fn timed(&mut self, call: &Call, run: impl FnOnce() -> Vec<Outcome>) -> f64 {
        let start = Instant::now();
        let outcomes = catch_unwind(AssertUnwindSafe(run));
        let elapsed = start.elapsed().as_secs_f64();
        let requests: Vec<usize> = call.iter().flatten().copied().collect();
        self.attempted += requests.len() as u64;
        match outcomes {
            Err(_) => {
                for r in requests {
                    self.fail(format!("request {r}: the call panicked"));
                }
            }
            Ok(outcomes) => {
                for (r, outcome) in requests.into_iter().zip(outcomes) {
                    if let Some(why) = &outcome.failure {
                        self.fail(format!("request {r}: {why}"));
                    } else if let Some(first) = &self.first[r] {
                        if first.sim != outcome.sim {
                            self.fail(format!(
                                "request {r}: simulated counters differ from its first execution"
                            ));
                        }
                    } else {
                        self.first[r] = Some(outcome);
                    }
                }
            }
        }
        elapsed
    }

    /// First-execution outcomes of the requests that ran and verified.
    fn verified(&self) -> impl Iterator<Item = (usize, &Outcome)> {
        self.first.iter().enumerate().filter_map(|(r, o)| o.as_ref().map(|o| (r, o)))
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The simulated metrics of one pass, from the first-execution outcomes of
/// its fault-free requests. Churned requests are gated but not counted: how
/// far one gets before it starves is a property of the churn draw, not of
/// the protocol.
fn sim_metrics(gate: &Gate) -> (f64, f64, u64) {
    let time = mean(gate.verified().filter_map(|(_, o)| o.time_overhead));
    let messages = mean(gate.verified().filter_map(|(_, o)| o.message_overhead));
    let events = gate
        .verified()
        .filter(|(_, o)| o.message_overhead.is_some())
        .map(|(_, o)| o.sim.events)
        .sum();
    (time, messages, events)
}

fn sim_json(sim: &SimCounters) -> Json {
    Json::obj([
        ("events", Json::Int(sim.events)),
        ("acks", Json::Int(sim.acks)),
        ("messages", Json::Int(sim.messages)),
        ("algorithm_messages", Json::Int(sim.algorithm_messages)),
        (
            "time_to_output",
            sim.time_to_output_bits.map_or(Json::Null, |b| Json::Num(f64::from_bits(b))),
        ),
        ("time_to_quiescence", Json::Num(f64::from_bits(sim.time_to_quiescence_bits))),
        ("dropped_events", Json::Int(sim.dropped_events)),
        ("fault_transitions", Json::Int(sim.fault_transitions)),
    ])
}

fn requests_json(p: &Prepared, gate: &Gate) -> Json {
    Json::Arr(
        gate.verified()
            .map(|(r, o)| {
                let (n, m) = p.graph_size(r);
                Json::obj([
                    ("request", Json::Int(r as u64)),
                    ("n", Json::Int(n as u64)),
                    ("m", Json::Int(m as u64)),
                    ("bfs_source", p.bfs_source(r).map_or(Json::Null, |s| Json::Int(s as u64))),
                    ("fault_free", Json::Bool(p.is_fault_free(r))),
                    ("sim", sim_json(&o.sim)),
                ])
            })
            .collect(),
    )
}

/// One measured loop: per-call wall times, the canary reading around each
/// call, and the wall times expressed in reference-host seconds.
struct Loop {
    raw: Vec<f64>,
    normalized: Vec<f64>,
    /// `calls + 1` canary readings: one before the first call, one after each.
    calib: Vec<f64>,
    /// Resident set after each call, MiB.
    rss: Vec<f64>,
    requests: usize,
}

impl Loop {
    /// Runs `calls` calls cycling through `pass`, gated, with a canary
    /// reading between every two calls.
    fn run(
        pass: &[Call],
        calls: usize,
        gate: &mut Gate,
        mut run: impl FnMut(&Call) -> Vec<Outcome>,
    ) -> Loop {
        let mut calib = vec![host::calib_s()];
        let mut raw = Vec::with_capacity(calls);
        let mut rss = Vec::with_capacity(calls);
        let mut requests = 0;
        for i in 0..calls {
            let call = &pass[i % pass.len()];
            raw.push(gate.timed(call, || run(call)));
            calib.push(host::calib_s());
            rss.push(host::rss_mib().unwrap_or(0.0));
            requests += call.iter().map(Vec::len).sum::<usize>();
        }
        let normalized = raw
            .iter()
            .zip(calib.windows(2))
            .map(|(t, c)| host::normalize(*t, c[0], c[1]))
            .collect();
        Loop { raw, normalized, calib, rss, requests }
    }

    fn details(&self) -> Vec<(&'static str, Json)> {
        let raw = stats::sorted(self.raw.clone());
        let calib = stats::sorted(self.calib.clone());
        vec![
            ("raw_latency_s_min", Json::Num(raw[0])),
            ("raw_latency_s_p50", Json::Num(stats::quantile(&raw, 0.5))),
            ("raw_latency_s_p75", Json::Num(stats::quantile(&raw, 0.75))),
            ("raw_latency_s_max", Json::Num(raw[raw.len() - 1])),
            ("raw_timed_section_s", Json::Num(self.raw.iter().sum())),
            ("host.calib_s_min", Json::Num(calib[0])),
            ("host.calib_s_p50", Json::Num(stats::quantile(&calib, 0.5))),
            ("host.calib_s_max", Json::Num(calib[calib.len() - 1])),
            ("host.calib_nominal_s", Json::Num(host::CALIB_NOMINAL_S)),
            ("raw_latency_s", Json::Arr(self.raw.iter().map(|t| Json::Num(*t)).collect())),
            ("host.calib_s", Json::Arr(self.calib.iter().map(|t| Json::Num(*t)).collect())),
            ("rss_mb", Json::Arr(self.rss.iter().map(|t| Json::Num(*t)).collect())),
        ]
    }
}

/// E9's committed event count for `grid/4096/det/uniform`: BFS from node 0 of
/// the 64×64 grid under the det synchronizer and uniform delays. Every pass
/// of `det_grid_deep` contains exactly that request, whatever the seed.
const E9_GRID_4096_DET_UNIFORM_EVENTS: u64 = 1_119_962;

/// Cross-checks `det_grid_deep` against the committed E9 artifact.
fn e9_cross_check(spec: &WorkloadSpec, p: &Prepared, gate: &mut Gate) {
    if spec.name != "det_grid_deep" {
        return;
    }
    let from_node_0: Vec<u64> = gate
        .verified()
        .filter(|(r, _)| p.bfs_source(*r) == Some(0))
        .map(|(_, o)| o.sim.events)
        .collect();
    for events in from_node_0 {
        if events == E9_GRID_4096_DET_UNIFORM_EVENTS {
            eprintln!("  E9 cross-check: BFS from node 0 = {events} events, as committed");
        } else {
            gate.fail(format!(
                "BFS from node 0 processed {events} events, E9 committed \
                 {E9_GRID_4096_DET_UNIFORM_EVENTS}"
            ));
        }
    }
}

/// The end-to-end run (`--trace 0`).
pub fn run_untraced(spec: &WorkloadSpec, opts: RunOptions) -> Report {
    let load_before = host::loadavg();

    let setup_reps = if opts.smoke { 1 } else { spec.setup_reps };
    let mut setup_samples = Vec::with_capacity(setup_reps);
    let mut prepared = None;
    let setup_calib_before = host::calib_s();
    for _ in 0..setup_reps {
        let start = Instant::now();
        let p = Prepared::build(spec, None);
        setup_samples.push(start.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let setup_calib_after = host::calib_s();
    let raw_setup_s = stats::median(&setup_samples);
    let p = prepared.expect("at least one set-up");
    let pass = p.pass();

    let mut gate = Gate::new(p.request_count());
    let warmup = if opts.smoke { 0 } else { WARMUP_CALLS };
    Loop::run(pass, warmup, &mut gate, |call| p.run_call(call));
    let timed_calls = if opts.smoke { SMOKE_CALLS } else { spec.timed_calls(opts.seconds) };
    let timed = Loop::run(pass, timed_calls, &mut gate, |call| p.run_call(call));
    e9_cross_check(spec, &p, &mut gate);

    let latencies = stats::sorted(timed.normalized.clone());
    let (sim_time, sim_messages, sim_events) = sim_metrics(&gate);
    let peak_rss = host::peak_rss_mib().unwrap_or(0.0);
    eprintln!(
        "  {} timed calls ({} requests) after {} warm-up calls; p75 has {} samples beyond it \
         (highest supported percentile: p{})",
        latencies.len(),
        timed.requests,
        warmup,
        stats::samples_beyond(latencies.len(), 75),
        stats::highest_supported_percentile(latencies.len()),
    );
    let (hits, misses, evictions) = p.cache_counters();
    let (checkouts, reuses) = p.slab_counters();
    let mut details = vec![
        ("timed_calls", Json::Int(latencies.len() as u64)),
        ("timed_requests", Json::Int(timed.requests as u64)),
        ("warmup_calls", Json::Int(warmup as u64)),
        ("setup_reps", Json::Int(setup_reps as u64)),
        ("raw_setup_s", Json::Num(raw_setup_s)),
        ("failed_share", Json::Num(gate.failed as f64 / gate.attempted.max(1) as f64)),
        ("loadavg_before", Json::str(load_before)),
        ("loadavg_after", Json::str(host::loadavg())),
        ("cache_hits", Json::Int(hits)),
        ("cache_misses", Json::Int(misses)),
        ("cache_evictions", Json::Int(evictions)),
        ("slab_checkouts", Json::Int(checkouts)),
        ("slab_reuses", Json::Int(reuses)),
    ];
    details.extend(timed.details());
    details.push(("requests", requests_json(&p, &gate)));
    Report {
        attempted: gate.attempted,
        failed: gate.failed,
        failures: gate.failures.clone(),
        metrics: vec![
            ("setup_s", host::normalize(raw_setup_s, setup_calib_before, setup_calib_after)),
            ("latency_s_p50", stats::quantile(&latencies, 0.5)),
            ("latency_s_p75", stats::quantile(&latencies, 0.75)),
            ("requests_per_s", timed.requests as f64 / latencies.iter().sum::<f64>()),
            ("peak_rss_mb", peak_rss),
            ("sim_time_overhead", sim_time),
            ("sim_message_overhead", sim_messages),
            ("sim_events", sim_events as f64),
        ],
        details: Json::obj(details),
    }
}

/// Seconds per top-level call.
fn per_call(total: LayerTotal, calls: usize) -> (f64, f64) {
    let scale = 1e-9 / calls.max(1) as f64;
    (total.busy_ns as f64 * scale, total.self_ns as f64 * scale)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The traced run (`--trace 1`): the per-layer numbers, the layer budget and
/// the tracing overhead. Writes the spans to `trace_path`.
pub fn run_traced(spec: &WorkloadSpec, opts: RunOptions, trace_path: &std::path::Path) -> Report {
    let calib_before = host::calib_s();
    // The traced path runs requests inline on this thread; so does its
    // untraced baseline (a pool with no workers), or the overhead ratio would
    // mostly show the lost parallelism.
    let mut spec = spec.clone();
    if let Some(pool) = spec.pool.as_mut() {
        pool.workers = 0;
    }
    let spec = &spec;
    let mut tracer = Tracer::new();

    // Set-up, traced.
    let setup_reps = if opts.smoke { 1 } else { TRACED_SETUP_REPS };
    let mut setup_wall = 0.0;
    let mut prepared = None;
    for rep in 0..setup_reps {
        tracer.set_request(rep as u64);
        let start = Instant::now();
        let p = Prepared::build(spec, Some(&mut tracer));
        setup_wall += start.elapsed().as_secs_f64();
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up");
    let pass = p.pass();
    let setup_totals = tracer.layer_totals(0);
    let setup_spans = tracer.spans().len();
    let setup = |name: &str| per_call(total_of(&setup_totals, name), setup_reps);
    let setup_wall = setup_wall / setup_reps as f64;
    let setup_top_level: f64 = tracer.spans()[..setup_spans]
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .sum::<f64>()
        / setup_reps as f64;

    // The untraced baseline, then the traced loop, over the same calls.
    let calls = if opts.smoke {
        SMOKE_CALLS
    } else {
        (spec.timed_calls(opts.seconds) / TRACED_CALL_SHARE).div_ceil(pass.len()) * pass.len()
    };
    let mut gate = Gate::new(p.request_count());
    let warmup = if opts.smoke { 0 } else { WARMUP_CALLS };
    Loop::run(pass, warmup, &mut gate, |call| p.run_call(call));
    let untraced = Loop::run(pass, calls, &mut gate, |call| p.run_call(call));
    let cache_before = p.cache_counters();
    let slab_before = p.slab_counters();
    let loop_spans = tracer.spans().len();
    let mut traced_gate = Gate::new(p.request_count());
    let mut next_request = 1000u64;
    let traced = Loop::run(pass, calls, &mut traced_gate, |call| {
        let first = next_request;
        next_request += call.iter().map(Vec::len).sum::<usize>() as u64;
        p.run_call_traced(call, &mut tracer, first)
    });
    let cache_after = p.cache_counters();
    let slab_after = p.slab_counters();
    // The traced mirror must simulate what the real path simulates.
    let mismatches: Vec<String> = traced_gate
        .verified()
        .filter(|(r, o)| gate.first[*r].as_ref().is_some_and(|first| first.sim != o.sim))
        .map(|(r, _)| format!("request {r}: the traced mirror diverged from Session's counters"))
        .collect();
    mismatches.into_iter().for_each(|why| traced_gate.fail(why));

    let totals = tracer.layer_totals(loop_spans);
    let layer = |name: &str| per_call(total_of(&totals, name), calls);
    // Layer lines are raw wall time, like the spans they come from; only the
    // overhead ratio compares two loops run at different times, so it uses
    // reference-host seconds.
    let call_wall = mean(traced.raw.iter().copied());
    let untraced_p50 = stats::median(&untraced.raw);
    let trace_overhead =
        ratio(stats::median(&traced.normalized), stats::median(&untraced.normalized));
    let (session_busy, session_self) = layer("sync.session.run");
    let (run_busy, engine_self) = layer("netsim.run");
    let (protocol_busy, protocol_self) = layer("sync.protocol");
    let (on_pulse_busy, _) = layer("algos.on_pulse");
    let (verify_busy, _) = layer("verify");
    let (bound_busy, _) = layer("netsim.sync_engine");
    let (hit_busy, _) = layer("sync.cache.hit");
    let (miss_busy, _) = layer("sync.cache.miss");
    let glue = call_wall - session_busy - verify_busy;
    let protocol_calls = total_of(&totals, "sync.protocol").calls;
    let (loop_events, loop_acks) = (0..calls)
        .flat_map(|i| pass[i % pass.len()].iter().flatten())
        .filter_map(|&r| traced_gate.first[r].as_ref())
        .fold((0u64, 0u64), |(events, acks), o| (events + o.sim.events, acks + o.sim.acks));

    // Engine counters over one pass.
    let mut pass_engine = EngineCounters::default();
    let (mut pass_events, mut pass_acks, mut pass_dropped, mut pass_transitions) = (0, 0, 0, 0);
    for (_, o) in traced_gate.verified() {
        pass_events += o.sim.events;
        pass_acks += o.sim.acks;
        pass_dropped += o.sim.dropped_events;
        pass_transitions += o.sim.fault_transitions;
        pass_engine.batched_ticks += o.engine.batched_ticks;
        pass_engine.overflow_events += o.engine.overflow_events;
        pass_engine.pool_dispatches += o.engine.pool_dispatches;
        pass_engine.peak_live_handles =
            pass_engine.peak_live_handles.max(o.engine.peak_live_handles);
        pass_engine.arena_bytes = pass_engine.arena_bytes.max(o.engine.arena_bytes);
        pass_engine.max_batch = pass_engine.max_batch.max(o.engine.max_batch);
    }

    // Probes on the pass's first request: bare-structure replays and the
    // engine A/Bs.
    let r0 = pass[0][0][0];
    let replay = p.delivery_rows(r0).map(|rows| ReplaySchedule::build(&rows));
    let (wheel_ns, stage_ns, arena_ns) = match &replay {
        Ok(schedule) if !schedule.is_empty() => {
            let n = schedule.len() as f64;
            (
                api::replay_wheel_s(schedule) * 1e9 / n,
                api::replay_stage_queue_s(schedule) * 1e9 / (2.0 * n),
                api::replay_arena_s(schedule) * 1e9 / n,
            )
        }
        Ok(_) => (0.0, 0.0, 0.0),
        Err(why) => {
            traced_gate.fail(format!("request {r0}: no delivery trace: {why}"));
            (0.0, 0.0, 0.0)
        }
    };
    // Per call: the wheel holds every delivery and every acknowledgment, a
    // delivery is pushed and popped on its link queue once, and allocated and
    // freed in the arena once.
    let modelled_s = (wheel_ns * (loop_events + loop_acks) as f64
        + stage_ns * 2.0 * loop_events as f64
        + arena_ns * loop_events as f64)
        * 1e-9
        / calls.max(1) as f64;
    // Engine A/Bs: the same request on each engine and over recycled state,
    // one run of each per round so host drift hits every side alike.
    let ab_runs = if opts.smoke { 1 } else { AB_RUNS };
    let bank = Bank::new();
    let on = |engine, bank| Variant { engine: Some(engine), bank };
    let sharded = EngineSpec::Sharded { shards: 2, workers: 0 };
    let variants = [
        on(EngineSpec::Wheel, None),
        on(sharded, None),
        on(EngineSpec::Heap, None),
        on(EngineSpec::Wheel, Some(&bank)),
    ];
    let ab_call: Call = vec![vec![r0]];
    // The bank's first checkout mints a fresh slab; the rounds reuse it.
    traced_gate.timed(&ab_call, || vec![p.run_standalone(r0, variants[3])]);
    let mut ab_samples = [const { Vec::new() }; 4];
    for _ in 0..ab_runs {
        for (samples, variant) in ab_samples.iter_mut().zip(variants) {
            samples.push(traced_gate.timed(&ab_call, || vec![p.run_standalone(r0, variant)]));
        }
    }
    let [wheel_s, sharded_s, heap_s, recycled_s] = ab_samples.map(|s| stats::median(&s));
    let shape = p.cover_shape(r0);
    let probe_reps = if opts.smoke { 3 } else { 21 };
    let hash_s = p.structural_hash_s(r0, probe_reps);
    let spinup_s = api::pool_spinup_s(host::nproc().min(2), probe_reps);
    let calib_after = host::calib_s();

    let hits = cache_after.0 - cache_before.0;
    let misses = cache_after.1 - cache_before.1;
    let checkouts = slab_after.0 - slab_before.0;
    let reuses = slab_after.1 - slab_before.1;
    let metrics = vec![
        ("setup.traced_wall_s", setup_wall),
        ("setup.glue_s", setup_wall - setup_top_level),
        ("graph.generate.busy_s", setup("graph.generate").0),
        ("graph.diameter_bounds.busy_s", setup("graph.diameter_bounds").0),
        ("graph.diameter.busy_s", setup("graph.diameter").0),
        ("netsim.sync_engine.busy_s", setup("netsim.sync_engine").0),
        ("covers.build.busy_s", setup("covers.build").0),
        ("sync.config_build.busy_s", setup("sync.config_build").0),
        ("sync.config_build.self_s", setup("sync.config_build").1),
        ("sync.cache.prewarm.busy_s", setup("sync.cache.prewarm").0),
        ("covers.layers", shape.layers as f64),
        ("covers.clusters", shape.clusters as f64),
        ("covers.max_membership", shape.max_membership as f64),
        ("covers.max_height", shape.max_height as f64),
        ("trace.call_wall_s", call_wall),
        ("trace.untraced_p50_s", untraced_p50),
        ("trace.overhead", trace_overhead),
        ("trace.clock_read_ns", host::clock_read_ns()),
        ("bench.glue_s", glue),
        ("verify.busy_s", verify_busy),
        ("sync.session.self_s", session_self),
        ("sync.session.bound_resolve.busy_s", bound_busy),
        ("sync.cache.hit.busy_s", hit_busy),
        ("sync.cache.miss.busy_s", miss_busy),
        ("sync.cache.hits", hits as f64),
        ("sync.cache.misses", misses as f64),
        ("sync.cache.evictions", (cache_after.2 - cache_before.2) as f64),
        ("sync.cache.hit_ratio", ratio(hits as f64, (hits + misses) as f64)),
        ("graph.structural_hash.busy_s", hash_s),
        ("sync.pool.spinup_s", spinup_s),
        ("netsim.run.wall_s", run_busy),
        ("netsim.engine.self_s", engine_self),
        ("netsim.engine.ns_per_event", ratio(engine_self * calls as f64 * 1e9, loop_events as f64)),
        ("netsim.engine.residual_s", engine_self - modelled_s),
        ("netsim.wheel.replay_ns_per_event", wheel_ns),
        ("netsim.stage_queue.replay_ns_per_op", stage_ns),
        ("netsim.arena.replay_ns_per_event", arena_ns),
        ("sync.protocol.busy_s", protocol_busy),
        ("sync.protocol.self_s", protocol_self),
        ("sync.protocol.calls", protocol_calls as f64 / calls.max(1) as f64),
        (
            "sync.protocol.ns_per_call",
            ratio(protocol_busy * calls as f64 * 1e9, protocol_calls as f64),
        ),
        ("sync.protocol.share", ratio(protocol_busy, session_busy)),
        ("algos.on_pulse.busy_s", on_pulse_busy),
        (
            "algos.on_pulse.calls",
            total_of(&totals, "algos.on_pulse").calls as f64 / calls.max(1) as f64,
        ),
        ("netsim.events", pass_events as f64),
        ("netsim.acks", pass_acks as f64),
        ("netsim.max_batch", pass_engine.max_batch as f64),
        ("netsim.peak_live_handles", pass_engine.peak_live_handles as f64),
        ("netsim.arena_bytes", pass_engine.arena_bytes as f64),
        ("netsim.overflow_events", pass_engine.overflow_events as f64),
        ("netsim.batched_ticks", pass_engine.batched_ticks as f64),
        ("netsim.pool_dispatches", pass_engine.pool_dispatches as f64),
        ("netsim.dropped_events", pass_dropped as f64),
        ("netsim.fault_transitions", pass_transitions as f64),
        ("netsim.slab.checkouts", checkouts as f64),
        ("netsim.slab.reuses", reuses as f64),
        ("netsim.slab.reuse_ratio", ratio(reuses as f64, checkouts as f64)),
        ("netsim.recycle.saving_s", wheel_s - recycled_s),
        ("netsim.sharded.vs_serial", ratio(sharded_s, wheel_s)),
        ("netsim.heap.vs_wheel", ratio(heap_s, wheel_s)),
        ("host.calib_before_s", calib_before),
        ("host.calib_after_s", calib_after),
        ("host.nproc", host::nproc() as f64),
    ];

    // The layer budget: lines that partition the traced call's wall time.
    let budget = [
        ("sync.protocol (self)", protocol_self),
        ("algos.on_pulse", on_pulse_busy),
        ("netsim.engine (self)", engine_self),
        ("sync.session (self)", session_self),
        ("sync.session.bound_resolve", bound_busy),
        ("sync.cache (hit + miss)", hit_busy + miss_busy),
        ("verify", verify_busy),
        ("bench glue", glue),
    ];
    let budget_sum: f64 = budget.iter().map(|(_, s)| s).sum();
    eprintln!("  layer budget per call ({calls} traced calls, inline):");
    for (name, seconds) in budget {
        eprintln!(
            "    {name:<30} {:>10.3} ms  {:>5.1} %",
            seconds * 1e3,
            100.0 * ratio(seconds, call_wall)
        );
    }
    let largest = budget.iter().max_by(|a, b| a.1.total_cmp(&b.1)).expect("non-empty budget");
    eprintln!(
        "    {:<30} {:>10.3} ms  vs traced call wall {:.3} ms ({:+.2} %)",
        "sum",
        budget_sum * 1e3,
        call_wall * 1e3,
        100.0 * (ratio(budget_sum, call_wall) - 1.0)
    );
    eprintln!(
        "  largest share: {} ({:.1} %); trace_overhead = {trace_overhead:.3} (traced ÷ untraced \
         p50 over {calls} calls each, in reference-host seconds)",
        largest.0,
        100.0 * ratio(largest.1, call_wall),
    );
    eprintln!(
        "  set-up {:.3} ms: generate {:.3}, ground truth {:.3}, config build {:.3} (covers \
         {:.3}), prewarm {:.3}",
        setup_wall * 1e3,
        setup("graph.generate").0 * 1e3,
        setup("netsim.sync_engine").0 * 1e3,
        setup("sync.config_build").0 * 1e3,
        setup("covers.build").0 * 1e3,
        setup("sync.cache.prewarm").0 * 1e3
    );

    if let Err(e) = std::fs::write(trace_path, tracer.to_json().render()) {
        eprintln!("  could not write {}: {e}", trace_path.display());
    }
    Report {
        attempted: gate.attempted + traced_gate.attempted,
        failed: gate.failed + traced_gate.failed,
        failures: gate.failures.iter().chain(&traced_gate.failures).cloned().collect(),
        metrics,
        details: Json::obj([
            ("traced_calls", Json::Int(calls as u64)),
            ("spans", Json::Int(tracer.spans().len() as u64)),
            ("budget_sum_s", Json::Num(budget_sum)),
            ("largest_share", Json::str(largest.0)),
            ("ab_request", Json::Int(r0 as u64)),
            ("ab_wheel_s", Json::Num(wheel_s)),
            ("ab_sharded_s", Json::Num(sharded_s)),
            ("ab_heap_s", Json::Num(heap_s)),
            ("ab_recycled_s", Json::Num(recycled_s)),
        ]),
    }
}
