//! E10 — scheduler microbenchmarks: the asynchronous engine's hot data structures in
//! isolation — `TimingWheel` vs the `BinaryHeap` reference on `schedule` /
//! `take_due`, and `StageQueue` vs a binary heap on `push` / `pop`.
//!
//! E1–E8 and `benchmark/` measure whole runs; constant-factor regressions in the
//! scheduler hide inside them behind protocol and cache noise. This binary drives
//! the structures directly with a deterministic engine-like workload (bursty
//! schedules, bounded delays, batched drains, clustered link priorities), so a
//! slowdown of the wheel or the bucket queue is visible without a whole-run
//! benchmark. No external deps: the timing loop is hand-rolled and rows go
//! through the shared `ds-bench` table renderer.
//!
//! Three more sections follow:
//!
//! * `pool/*` — the per-barrier cost of handing K shard tasks to worker
//!   threads and waiting for them back, comparing the persistent
//!   [`WorkerPool`] rendezvous against spawning a fresh `thread::scope` per
//!   barrier (the engine's previous strategy, kept here as the baseline the
//!   pool must beat).
//! * `arena/*` — the baseline the event arena is judged against: the
//!   per-event owned-enum walk (payloads inline in the wheel slots, drained one
//!   event at a time in seq order).
//! * `scale/*` — whole-run wall time per simulated event as `n` grows: a det
//!   BFS from a corner of grid 16², 32² and 64² under uniform delays and an α
//!   BFS on torus 16², 32² and 64² under jitter (cover built outside the
//!   timer). The per-event data structures are the same at every size, so a
//!   rise in ns/event with `n` is the working set leaving the caches.
//!
//! Usage: `exp_sched [--smoke]` (`--smoke` shrinks the op counts for CI).

use ds_algos::bfs::BfsAlgorithm;
use ds_bench::table::{print_table, Row};
use ds_graph::{Graph, NodeId};
use ds_netsim::delay::DelayModel;
use ds_netsim::pool::WorkerPool;
use ds_netsim::scheduler::{EventScheduler, HeapScheduler, TimingWheel};
use ds_netsim::stage_queue::StageQueue;
use ds_netsim::sync_engine::run_sync;
use ds_sync::session::{Session, SyncKind};
use ds_sync::synchronizer::SynchronizerConfig;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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

/// Link-queue workload: clustered priorities around a slowly advancing stage,
/// interleaved pushes and pops — the shape the synchronizers produce.
fn drive_stage_queue(ops: u64) {
    let mut rng = Lcg(0xBEEF);
    let mut q: StageQueue<u32> = StageQueue::new();
    let mut seq = 0u64;
    let mut stage = 50u64;
    for op in 0..ops {
        if op.is_multiple_of(64) {
            stage += 1;
        }
        if q.is_empty() || rng.next(2) == 0 {
            q.push(stage + rng.next(12), seq, (seq % 8191) as u32);
            seq += 1;
        } else {
            q.pop();
        }
    }
    while q.pop().is_some() {}
}

fn drive_reference_heap(ops: u64) {
    let mut rng = Lcg(0xBEEF);
    let mut q: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut stage = 50u64;
    for op in 0..ops {
        if op.is_multiple_of(64) {
            stage += 1;
        }
        if q.is_empty() || rng.next(2) == 0 {
            q.push(Reverse((stage + rng.next(12), seq, (seq % 8191) as u32)));
            seq += 1;
        } else {
            q.pop();
        }
    }
    while q.pop().is_some() {}
}

fn stage_queue_rows(ops: u64) -> Vec<Row> {
    let bucket_ns = median_ns_per_op(ops, || drive_stage_queue(ops));
    let heap_ns = median_ns_per_op(ops, || drive_reference_heap(ops));
    [("stage-queue", bucket_ns), ("binary-heap", heap_ns)]
        .into_iter()
        .map(|(kind, ns)| Row {
            label: format!("link/{kind}/push+pop"),
            values: vec![
                ("ops", ops as f64),
                ("ns/op", ns),
                ("Mops/s", 1e3 / ns),
                ("vs_heap", heap_ns / ns),
            ],
        })
        .collect()
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

/// The pre-pool baseline: a fresh `thread::scope` spawn/join per barrier.
/// (This binary is outside ds-lint's scan set; production code must go
/// through `ds_netsim::pool` instead.)
fn drive_scope_spawn(barriers: u64, shards: usize, workers: usize) {
    let mut tasks: Vec<Vec<u64>> = (0..shards).map(pool_task).collect();
    for _ in 0..barriers {
        std::thread::scope(|scope| {
            for chunk in tasks.chunks_mut(shards.div_ceil(workers)) {
                scope.spawn(|| chunk.iter_mut().for_each(|t| barrier_work(t)));
            }
        });
    }
}

fn pool_rows(barriers: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for (shards, workers) in [(4usize, 2usize), (4, 4), (7, 2)] {
        let spawn_ns = median_ns_per_op(barriers, || drive_scope_spawn(barriers, shards, workers));
        let pool_ns =
            median_ns_per_op(barriers, || drive_pool_rendezvous(barriers, shards, workers));
        for (kind, ns) in [("rendezvous", pool_ns), ("scope-spawn", spawn_ns)] {
            rows.push(Row {
                label: format!("pool/{kind}/{shards}sh-{workers}w"),
                values: vec![
                    ("barriers", barriers as f64),
                    ("ns/barrier", ns),
                    ("vs_spawn", spawn_ns / ns),
                ],
            });
        }
    }
    rows
}

/// Destination nodes the drain benchmark spreads its events over.
const ARENA_DSTS: u64 = 512;

/// In-flight population for the drain benchmark. Delays cluster on round
/// multiples (protocols send in waves, so arrivals pile onto shared ticks),
/// which with this population gives batches of a few hundred events per
/// drained tick — the shape of a busy barrier.
const ARENA_PENDING: u64 = 4096;

/// Per-destination "node state" large enough that activation order shows up
/// in cache behavior.
type NodeState = [u64; 16];

/// The pre-arena path: enum rows owning their payloads inline travel through
/// the wheel slots (and their free lists) by value, and the drain walks them
/// one event at a time in global seq order — destinations interleaved, node
/// state revisited per event rather than per group.
enum OwnedEvent {
    Deliver {
        dst: u32,
        msg: [u64; 4],
    },
    #[allow(dead_code)]
    Ack,
}

fn drive_owned_events(events: u64, nodes: &mut [NodeState]) -> u64 {
    let mut wheel: TimingWheel<OwnedEvent> = TimingWheel::new(1000);
    let mut due: Vec<(u64, OwnedEvent)> = Vec::new();
    let mut rng = Lcg(0xA7E4A);
    let mut seq = 0u64;
    let mut pending = 0u64;
    let mut acc = 0u64;
    let mut now = 0u64;
    while seq < events || pending > 0 {
        if seq < events && pending < ARENA_PENDING {
            for _ in 0..64 {
                if seq == events {
                    break;
                }
                let dst = rng.next(ARENA_DSTS) as u32;
                let ev = OwnedEvent::Deliver { dst, msg: [seq, seq ^ 1, seq ^ 2, seq ^ 3] };
                wheel.schedule(now + 100 * (1 + rng.next(10)), seq, ev);
                seq += 1;
                pending += 1;
            }
        } else {
            now = wheel.take_due(&mut due).expect("pending > 0");
            pending -= due.len() as u64;
            for (_, ev) in due.drain(..) {
                if let OwnedEvent::Deliver { dst, msg } = ev {
                    let node = &mut nodes[dst as usize];
                    node[(msg[0] % 16) as usize] =
                        node[(msg[0] % 16) as usize].wrapping_add(msg[1]);
                    acc = acc.wrapping_add(msg[0]);
                }
            }
        }
    }
    acc
}

fn arena_rows(events: u64) -> Vec<Row> {
    let mut nodes = vec![[0u64; 16]; ARENA_DSTS as usize];
    let owned_ns = median_ns_per_op(events, || {
        std::hint::black_box(drive_owned_events(events, &mut nodes));
    });
    vec![Row {
        label: "arena/owned-aos/drain".to_string(),
        values: vec![("events", events as f64), ("ns/event", owned_ns), ("Mops/s", 1e3 / owned_ns)],
    }]
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
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
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

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let (events, ops, barriers) =
        if smoke { (200_000, 400_000, 2_000) } else { (2_000_000, 4_000_000, 20_000) };
    let mut rows = scheduler_rows(events);
    rows.extend(stage_queue_rows(ops));
    print_table("scheduler microbenchmarks (schedule/take_due, link push/pop)", &rows);
    print_table(
        "pool dispatch (per-barrier rendezvous vs fresh scope spawn)",
        &pool_rows(barriers),
    );
    print_table("event arena baseline (owned per-event walk)", &arena_rows(events));
    let sides: &[usize] = if smoke { &[16, 32] } else { &[16, 32, 64] };
    print_table(
        "per-event cost vs n (whole BFS runs, median of 5 interleaved rounds)",
        &scale_rows(sides),
    );
}
