//! Micro-benchmarks, one per reproduced quantity that is fast enough to run
//! repeatedly: cover construction, registration-abstraction round trips, and a full
//! synchronized BFS on a small graph (driven through `Session` like every other
//! execution in the workspace). The larger sweeps live in the `exp_*` binaries.
//!
//! The workspace builds without external crates, so this is a `harness = false`
//! bench with a small hand-rolled timing loop instead of criterion: each case is
//! warmed up, then timed over enough iterations to fill ~0.2 s, and the per-iteration
//! median of several samples is reported.

use ds_algos::bfs::BfsAlgorithm;
use ds_covers::builder::build_sparse_cover;
use ds_covers::{ClusterId, TreePos};
use ds_graph::{Graph, NodeId};
use ds_netsim::delay::DelayModel;
use ds_sync::registration::{ChildMark, RegAction, RegMsg, RegistrationInstance};
use ds_sync::session::{Session, SyncKind};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Times `f` and prints its per-iteration median over `SAMPLES` samples.
fn bench(name: &str, mut f: impl FnMut()) {
    const SAMPLES: usize = 7;
    const TARGET: Duration = Duration::from_millis(200);

    // Warm-up and iteration-count calibration.
    let start = Instant::now();
    f();
    let once = start.elapsed().max(Duration::from_nanos(1));
    let iters = (TARGET.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u32;

    let mut per_iter: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed() / iters
        })
        .collect();
    per_iter.sort();
    println!(
        "{name:<40} {:>12.3?} / iter  ({iters} iters x {SAMPLES} samples)",
        per_iter[SAMPLES / 2]
    );
}

fn bench_cover_construction() {
    let graph = Graph::random_connected(64, 0.05, 3);
    bench("sparse_cover_d4_n64", || {
        let cover = build_sparse_cover(&graph, 4);
        assert!(cover.cluster_count() > 0);
    });
}

fn bench_registration_roundtrip() {
    // One register/deregister cycle on a path cluster tree of depth 32, driven
    // directly (Lemma 3.4: O(h) messages). Instances are one-shot, so each
    // iteration starts from a copy of a prebuilt template; the copy is the only
    // setup inside the timed loop. Positions are borrowed, as in the synchronizer:
    // node `v`'s only child is `path[v + 1]`.
    let path: Vec<NodeId> = (0..=33usize).map(NodeId).collect();
    let pos = |v: usize| TreePos {
        cluster: ClusterId(0),
        parent: v.checked_sub(1).map(NodeId),
        children: if v == 32 { &[] } else { &path[v + 1..v + 2] },
        is_member: true,
    };
    let template: Vec<(RegistrationInstance, [ChildMark; 1])> =
        (0..33).map(|v| (RegistrationInstance::new(pos(v)), [ChildMark::default()])).collect();
    let mut actions: Vec<RegAction> = Vec::new();
    let mut queue: VecDeque<(usize, usize, RegMsg)> = VecDeque::new();
    bench("registration_roundtrip_depth32", || {
        let mut nodes = template.clone();
        // `None` is node 32's own command: register first, deregister once the
        // registration wave has quiesced.
        let mut input: Option<(usize, usize, RegMsg)> = None;
        let mut deregistered = false;
        loop {
            let v = input.map_or(32, |(_, to, _)| to);
            let (inst, marks) = &mut nodes[v];
            let marks = &mut marks[..pos(v).children.len()];
            match input {
                Some((from, _, msg)) => {
                    inst.on_message(pos(v), marks, NodeId(from), msg, &mut actions)
                }
                None if deregistered => inst.deregister(pos(v), marks, &mut actions),
                None => inst.register(pos(v), marks, &mut actions),
            }
            for a in actions.drain(..) {
                if let RegAction::Send { to, msg } = a {
                    queue.push_back((v, to.index(), msg));
                }
            }
            input = queue.pop_front();
            if input.is_none() {
                if deregistered {
                    break;
                }
                deregistered = true;
            }
        }
    });
}

fn bench_synchronized_bfs() {
    let graph = Graph::grid(5, 5);
    // Build the synchronizer configuration once, outside the timed loop: with
    // `DetAuto` every iteration would also run the synchronous ground truth and
    // rebuild the sparse cover (benchmarked separately above), conflating three
    // quantities into one number.
    let bound = ds_graph::metrics::diameter(&graph).expect("connected") as u64 + 1;
    let cfg = ds_sync::synchronizer::SynchronizerConfig::build(&graph, bound);
    let session = Session::on(&graph)
        .delay(DelayModel::jitter(1))
        .synchronizer(SyncKind::Det(cfg))
        .pulse_bound(bound);
    bench("synchronized_bfs_grid5x5_jitter", || {
        let run = session.run(|v| BfsAlgorithm::new(&graph, v, &[NodeId(0)])).unwrap();
        assert!(run.outputs.iter().all(Option::is_some));
    });
}

fn main() {
    println!("== synchronizer micro-benchmarks");
    bench_cover_construction();
    bench_registration_roundtrip();
    bench_synchronized_bfs();
}
