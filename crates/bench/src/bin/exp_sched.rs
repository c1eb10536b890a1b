//! E10 — scheduler microbenchmarks: the asynchronous engine's timing wheel in
//! isolation — `TimingWheel` vs the `BinaryHeap` reference on `schedule` /
//! `take_due`.
//!
//! E1–E8 and `benchmark/` measure whole runs; constant-factor regressions in the
//! scheduler hide inside them behind protocol and cache noise. This binary drives
//! the wheel directly with a deterministic engine-like workload (bursty
//! schedules, bounded delays, batched drains), so a slowdown of the wheel is
//! visible without a whole-run benchmark. No external deps: the timing loop is
//! hand-rolled and rows go through the shared `ds-bench` table renderer.
//!
//! Two more sections follow:
//!
//! * `pool/rendezvous/*` — the per-barrier cost of handing K shard tasks to the
//!   persistent [`WorkerPool`]'s threads and waiting for them back.
//! * `scale/*` — whole-run wall time per simulated event as `n` grows: a det
//!   BFS from a corner of grid 16², 32² and 64² under uniform delays and an α
//!   BFS on torus 16², 32² and 64² under jitter (cover built outside the
//!   timer). The per-event data structures are the same at every size, so a
//!   rise in ns/event with `n` is the working set leaving the caches.
//!   Its second table runs a det BFS from node 0 on the sharded engine
//!   (`Sharded{2,2}`: two shards, two forced pool workers) against the wheel:
//!   grid 64² (`--smoke`: 32²) under uniform delays, whose pulse waves are dense ticks that
//!   reach the pool (`pool_disp` counts them), and grid 48² (`--smoke`: 24²)
//!   under jitter ≥ ½ τ (`det_grid_sharded`'s shape), whose ticks are sparse and run the
//!   serial path. `vs_wheel` is the median over rounds of the sharded run's
//!   wall time over the same round's wheel run.
//!
//! Usage: `exp_sched [--smoke]` (`--smoke` shrinks the op counts for CI).

use ds_algos::bfs::BfsAlgorithm;
use ds_bench::table::{print_table, Row};
use ds_graph::{Graph, NodeId};
use ds_netsim::delay::DelayModel;
use ds_netsim::pool::WorkerPool;
use ds_netsim::scheduler::{EventScheduler, HeapScheduler, SchedulerKind, TimingWheel};
use ds_netsim::sharded::{run_async_sharded_faulted_with, ShardedOptions, ThreadMode};
use ds_netsim::sync_engine::run_sync;
use ds_netsim::{run_async_faulted, SimLimits};
use ds_sync::session::{Session, SyncKind};
use ds_sync::synchronizer::{DetSynchronizer, SynchronizerConfig};
use std::sync::Arc;
use std::time::Instant;

const SAMPLES: usize = 5;

/// Deterministic LCG, the same flavor the test suites use.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, m: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) % m
    }
}

/// Runs `f` (which performs `ops` operations) `SAMPLES` times and returns the
/// median ns/op.
fn median_ns_per_op(ops: u64, mut f: impl FnMut()) -> f64 {
    let mut per_op: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    per_op.sort_by(f64::total_cmp);
    per_op[SAMPLES / 2]
}

/// Engine-like scheduler workload: bursts of events with bounded delays from the
/// moving current time, drained tick by tick. `slow_every > 0` makes every n-th
/// delay multi-horizon (the overflow path of the wheel).
fn drive_scheduler<S: EventScheduler<u32>>(sched: &mut S, events: u64, slow_every: u64) {
    let mut rng = Lcg(0x5EED);
    let mut now = 0u64;
    let mut seq = 0u64;
    let mut pending = 0u64;
    let mut due: Vec<(u64, u32)> = Vec::new();
    while seq < events || pending > 0 {
        if seq < events && (pending == 0 || rng.next(3) > 0) {
            for _ in 0..=rng.next(4) {
                if seq == events {
                    break;
                }
                let delay = if slow_every > 0 && seq.is_multiple_of(slow_every) {
                    1000 + rng.next(4000)
                } else {
                    1 + rng.next(1000)
                };
                sched.schedule(now + delay, seq, (seq % 8191) as u32);
                seq += 1;
                pending += 1;
            }
        } else {
            now = sched.take_due(&mut due).expect("pending > 0");
            pending -= due.len() as u64;
            due.clear();
        }
    }
}

fn scheduler_rows(events: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for (label, slow_every) in [("in-horizon", 0u64), ("10%-overflow", 10)] {
        let wheel_ns = median_ns_per_op(2 * events, || {
            let mut wheel = TimingWheel::new(1000);
            drive_scheduler(&mut wheel, events, slow_every);
        });
        let heap_ns = median_ns_per_op(2 * events, || {
            let mut heap = HeapScheduler::new();
            drive_scheduler(&mut heap, events, slow_every);
        });
        for (kind, ns) in [("wheel", wheel_ns), ("heap", heap_ns)] {
            rows.push(Row {
                label: format!("sched/{kind}/{label}"),
                values: vec![
                    ("events", events as f64),
                    ("ns/op", ns),
                    ("Mops/s", 1e3 / ns),
                    ("vs_heap", heap_ns / ns),
                ],
            });
        }
    }
    rows
}

/// Per-shard task for the dispatch benchmark: big enough to move by pointer
/// (a heap buffer), with a touch of real work so a barrier is not a pure
/// channel ping-pong.
fn pool_task(shard: usize) -> Vec<u64> {
    (0..64).map(|i| (shard as u64) << 32 | i).collect()
}

fn barrier_work(task: &mut [u64]) {
    for v in task.iter_mut() {
        *v = v.wrapping_mul(0x9E3779B97F4A7C15);
    }
}

/// `barriers` rendezvous over a persistent pool: dispatch K tasks, collect K,
/// repeat — the engine's steady-state shape.
fn drive_pool_rendezvous(barriers: u64, shards: usize, workers: usize) {
    let mut tasks: Vec<Option<Vec<u64>>> = (0..shards).map(|s| Some(pool_task(s))).collect();
    WorkerPool::run(
        workers,
        |task: &mut Vec<u64>| barrier_work(task),
        |pool| {
            for _ in 0..barriers {
                for (slot, task) in tasks.iter_mut().enumerate() {
                    pool.dispatch(slot, task.take().expect("collected last barrier"));
                }
                for _ in 0..shards {
                    let (slot, task, panic) = pool.collect();
                    assert!(panic.is_none());
                    tasks[slot] = Some(task);
                }
            }
        },
    );
}

fn pool_rows(barriers: u64) -> Vec<Row> {
    [(4usize, 2usize), (4, 4), (7, 2)]
        .into_iter()
        .map(|(shards, workers)| Row {
            label: format!("pool/rendezvous/{shards}sh-{workers}w"),
            values: vec![
                ("barriers", barriers as f64),
                (
                    "ns/barrier",
                    median_ns_per_op(barriers, || drive_pool_rendezvous(barriers, shards, workers)),
                ),
            ],
        })
        .collect()
}

/// Runs one BFS from node 0 under `session`: wall ns per delivered event, and
/// the event count.
fn bfs_ns_per_event(graph: &Graph, session: &Session<'_>) -> (f64, u64) {
    let start = Instant::now();
    let run = session.run(|v| BfsAlgorithm::new(graph, v, &[NodeId(0)])).expect("bfs run");
    let events = run.metrics.events;
    (start.elapsed().as_nanos() as f64 / events as f64, events)
}

/// `T(A)` of a BFS from node 0: the pulse bound `Session` would resolve,
/// computed here so the synchronous run stays outside the timer.
fn bfs_rounds(graph: &Graph) -> u64 {
    let sync = run_sync(graph, |v| BfsAlgorithm::new(graph, v, &[NodeId(0)]), u64::MAX)
        .expect("synchronous bfs");
    sync.rounds_to_quiescence.max(1)
}

/// Whole-run ns/event per family and size. The `SAMPLES` rounds run every
/// size once each, interleaved, so a slow spell of a shared host lands on
/// all sizes of a round alike; `vs_32x32` is the median over rounds of a
/// run's ns/event over the same round's 32² run of its family.
fn scale_rows(sides: &[usize]) -> Vec<Row> {
    let grids: Vec<Graph> = sides.iter().map(|&side| Graph::grid(side, side)).collect();
    let tori: Vec<Graph> = sides.iter().map(|&side| Graph::torus(side, side)).collect();
    let mut cases: Vec<(String, &Graph, Session<'_>)> = Vec::new();
    for (graph, &side) in grids.iter().zip(sides) {
        let bound = bfs_rounds(graph);
        let cfg = SynchronizerConfig::build(graph, bound);
        let session = Session::on(graph)
            .delay(DelayModel::uniform())
            .synchronizer(SyncKind::Det(cfg))
            .pulse_bound(bound);
        cases.push((format!("scale/det-grid/{}", side * side), graph, session));
    }
    for (graph, &side) in tori.iter().zip(sides) {
        let session = Session::on(graph)
            .delay(DelayModel::jitter(7))
            .synchronizer(SyncKind::Alpha)
            .pulse_bound(bfs_rounds(graph));
        cases.push((format!("scale/alpha-torus/{}", side * side), graph, session));
    }
    let mut events = vec![0u64; cases.len()];
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    for _ in 0..SAMPLES {
        for (i, (_, graph, session)) in cases.iter().enumerate() {
            let (ns, n_events) = bfs_ns_per_event(graph, session);
            samples[i].push(ns);
            events[i] = n_events;
        }
    }
    let per_family = sides.len();
    let base = sides.iter().position(|&side| side == 32).expect("the 32x32 size is always run");
    (0..cases.len())
        .map(|i| {
            let reference = &samples[i - i % per_family + base];
            let ratios = samples[i].iter().zip(reference).map(|(ns, r)| ns / r).collect();
            Row {
                label: cases[i].0.clone(),
                values: vec![
                    ("events", events[i] as f64),
                    ("ns/event", median(samples[i].clone())),
                    ("vs_32x32", median(ratios)),
                ],
            }
        })
        .collect()
}

/// One det BFS from node 0 on the wheel (`sharded: false`) or on
/// `Sharded{2,2}` with forced workers: wall seconds, events, pool dispatches.
fn det_bfs_run(
    graph: &Graph,
    cfg: &Arc<SynchronizerConfig>,
    delay: &DelayModel,
    sharded: bool,
) -> (f64, u64, u64) {
    let make = |v| DetSynchronizer::new(v, BfsAlgorithm::new(graph, v, &[NodeId(0)]), cfg.clone());
    let limits = SimLimits::default();
    let start = Instant::now();
    let report = if sharded {
        let opts = ShardedOptions { shards: 2, workers: 2, threads: ThreadMode::ForceOn };
        run_async_sharded_faulted_with(graph, delay.clone(), None, make, limits, opts)
    } else {
        run_async_faulted(graph, delay.clone(), None, make, limits, SchedulerKind::TimingWheel)
    }
    .expect("det bfs run");
    (start.elapsed().as_secs_f64(), report.metrics.events, report.pool_dispatches)
}

/// The sharded engine against the wheel on a dense-tick and a sparse-tick
/// det BFS; the `SAMPLES` rounds alternate wheel and sharded runs.
fn sharded_rows(smoke: bool) -> Vec<Row> {
    let (dense_side, sparse_side) = if smoke { (32, 24) } else { (64, 48) };
    let dense = Graph::grid(dense_side, dense_side);
    let sparse = Graph::grid(sparse_side, sparse_side);
    let cases = [
        (
            format!("scale/sharded-2x2/uniform/{}", dense.node_count()),
            &dense,
            DelayModel::uniform(),
        ),
        (
            format!("scale/sharded-2x2/jitter-half/{}", sparse.node_count()),
            &sparse,
            DelayModel::jitter_at_least(7, 0.5),
        ),
    ];
    cases
        .into_iter()
        .map(|(label, graph, delay)| {
            let cfg = SynchronizerConfig::build(graph, bfs_rounds(graph));
            let (mut ns, mut ratios) = (Vec::new(), Vec::new());
            let (mut events, mut dispatches) = (0, 0);
            for _ in 0..SAMPLES {
                let (wheel_s, _, _) = det_bfs_run(graph, &cfg, &delay, false);
                let (sharded_s, n_events, n_dispatches) = det_bfs_run(graph, &cfg, &delay, true);
                ns.push(sharded_s * 1e9 / n_events as f64);
                ratios.push(sharded_s / wheel_s);
                (events, dispatches) = (n_events, n_dispatches);
            }
            Row {
                label,
                values: vec![
                    ("events", events as f64),
                    ("ns/event", median(ns)),
                    ("vs_wheel", median(ratios)),
                    ("pool_disp", dispatches as f64),
                ],
            }
        })
        .collect()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let (events, barriers) = if smoke { (200_000, 2_000) } else { (2_000_000, 20_000) };
    print_table("scheduler microbenchmarks (schedule/take_due)", &scheduler_rows(events));
    print_table("pool dispatch (per-barrier rendezvous)", &pool_rows(barriers));
    let sides: &[usize] = if smoke { &[16, 32] } else { &[16, 32, 64] };
    print_table(
        "per-event cost vs n (whole BFS runs, median of 5 interleaved rounds)",
        &scale_rows(sides),
    );
    print_table(
        "sharded vs wheel (whole det BFS runs, median of 5 interleaved rounds)",
        &sharded_rows(smoke),
    );
}
