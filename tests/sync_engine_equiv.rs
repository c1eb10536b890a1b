//! Differential pin of the synchronous engine: `run_sync`'s activity-driven round
//! loop must return exactly what the straightforward loop returns — the loop that
//! visits all `n` nodes every round and scans them for triggers and outputs.
//!
//! That loop is kept here as the reference, written against the public
//! `EventDriven` / `PulseCtx` / `canonical_batch` API only. Every `SyncReport`
//! field is compared: outputs, `rounds_to_output`, `rounds_to_quiescence`,
//! `messages` and `metrics`, and errors must be the same error.

use det_synchronizer::algos::bfs::BfsAlgorithm;
use det_synchronizer::algos::leader::LeaderElection;
use det_synchronizer::algos::mst::MstAlgorithm;
use det_synchronizer::covers::builder::build_sparse_cover;
use det_synchronizer::graph::metrics;
use det_synchronizer::graph::rng::Prng;
use det_synchronizer::graph::weights::EdgeWeights;
use det_synchronizer::netsim::async_engine::SimError;
use det_synchronizer::netsim::event_driven::{canonical_batch, EventDriven, PulseCtx};
use det_synchronizer::netsim::metrics::{MessageClass, RunMetrics};
use det_synchronizer::netsim::sync_engine::{run_sync, SyncReport};
use det_synchronizer::prelude::{Graph, NodeId};
use std::sync::Arc;

/// The reference: every round scans all `n` nodes, triggers those with a
/// non-empty inbox or a send at the previous pulse, and checks every node's
/// output until all have one.
fn reference_run_sync<A, F>(
    graph: &Graph,
    mut make: F,
    max_rounds: u64,
) -> Result<SyncReport<A>, SimError>
where
    A: EventDriven,
    F: FnMut(NodeId) -> A,
{
    let n = graph.node_count();
    let mut nodes: Vec<A> = graph.nodes().map(&mut make).collect();
    let mut metrics = RunMetrics::default();
    let mut messages: u64 = 0;
    let mut inbox: Vec<Vec<(NodeId, A::Msg)>> = vec![Vec::new(); n];
    let mut delivered: Vec<Vec<(NodeId, A::Msg)>> = vec![Vec::new(); n];
    let mut sent_prev: Vec<bool> = vec![false; n];
    let mut sent_now: Vec<bool> = vec![false; n];
    let mut pending: usize = 0;

    let mut deliver = |from: NodeId,
                       ctx: &mut PulseCtx<A::Msg>,
                       inbox: &mut Vec<Vec<(NodeId, A::Msg)>>,
                       sent_now: &mut Vec<bool>,
                       pending: &mut usize|
     -> Result<(), SimError> {
        for (to, msg) in ctx.take_outbox() {
            if !graph.has_edge(from, to) {
                return Err(SimError::NotNeighbor { from, to });
            }
            messages += 1;
            *pending += 1;
            metrics.record_message(MessageClass::Algorithm);
            inbox[to.index()].push((from, msg));
            sent_now[from.index()] = true;
        }
        Ok(())
    };
    let all_done =
        |nodes: &[A], round: u64| nodes.iter().all(|a| a.output().is_some()).then_some(round);

    for v in graph.nodes() {
        let mut ctx = PulseCtx::new(v);
        nodes[v.index()].on_init(&mut ctx);
        deliver(v, &mut ctx, &mut inbox, &mut sent_now, &mut pending)?;
    }
    std::mem::swap(&mut sent_prev, &mut sent_now);

    let mut rounds_to_output = all_done(&nodes, 0);
    let mut round: u64 = 0;
    while pending > 0 || sent_prev.iter().any(|&s| s) {
        round += 1;
        if round > max_rounds {
            return Err(SimError::RoundLimitExceeded { limit: max_rounds });
        }
        std::mem::swap(&mut inbox, &mut delivered);
        pending = 0;
        for v in graph.nodes() {
            let batch = &mut delivered[v.index()];
            let triggered = !batch.is_empty() || sent_prev[v.index()];
            sent_prev[v.index()] = false;
            if !triggered {
                continue;
            }
            canonical_batch(batch);
            let mut ctx = PulseCtx::new(v);
            nodes[v.index()].on_pulse(batch, &mut ctx);
            batch.clear();
            deliver(v, &mut ctx, &mut inbox, &mut sent_now, &mut pending)?;
        }
        std::mem::swap(&mut sent_prev, &mut sent_now);
        if rounds_to_output.is_none() {
            rounds_to_output = all_done(&nodes, round);
        }
    }

    metrics.time_to_output = rounds_to_output.map(|r| r as f64);
    metrics.time_to_quiescence = round as f64;
    metrics.events = messages;
    Ok(SyncReport { rounds_to_output, rounds_to_quiescence: round, messages, metrics, nodes })
}

/// Runs both engines and asserts every report field (or the error) is equal.
/// Returns the engine's report for further checks.
fn assert_same<A, F>(label: &str, graph: &Graph, make: F, max_rounds: u64) -> Option<SyncReport<A>>
where
    A: EventDriven,
    F: Fn(NodeId) -> A,
{
    let want = reference_run_sync(graph, &make, max_rounds);
    let got = run_sync(graph, &make, max_rounds);
    match (want, got) {
        (Ok(want), Ok(got)) => {
            assert_eq!(got.outputs(), want.outputs(), "{label}: outputs");
            assert_eq!(got.rounds_to_output, want.rounds_to_output, "{label}: rounds_to_output");
            assert_eq!(
                got.rounds_to_quiescence, want.rounds_to_quiescence,
                "{label}: rounds_to_quiescence"
            );
            assert_eq!(got.messages, want.messages, "{label}: messages");
            assert_eq!(got.metrics, want.metrics, "{label}: metrics");
            Some(got)
        }
        (Err(want), Err(got)) => {
            assert_eq!(got, want, "{label}: error");
            None
        }
        (want, got) => panic!(
            "{label}: reference returned {:?}, engine returned {:?}",
            want.map(|r| r.outputs()),
            got.map(|r| r.outputs())
        ),
    }
}

/// Initiators (ids ≡ 0 mod 3) send a burst of two messages to one neighbor at
/// each of their first `1 + id mod 4` pulses; only an initiator's own sends
/// trigger it unless another initiator writes to it, so most of its pulses run
/// on an empty inbox. Every node folds each received batch into an
/// order-sensitive checksum, so a batch that differs in content or order
/// changes the output.
#[derive(Debug)]
struct Ticker<'g> {
    me: NodeId,
    neighbors: &'g [NodeId],
    ticks: u64,
    checksum: u64,
    pulses: u64,
}

impl<'g> Ticker<'g> {
    fn new(graph: &'g Graph, me: NodeId) -> Self {
        let ticks = if me.index().is_multiple_of(3) { 1 + me.index() as u64 % 4 } else { 0 };
        Ticker { me, neighbors: graph.neighbors(me), ticks, checksum: 0, pulses: 0 }
    }

    fn burst(&mut self, ctx: &mut PulseCtx<u64>) {
        if self.ticks == 0 || self.neighbors.is_empty() {
            return;
        }
        self.ticks -= 1;
        let to = self.neighbors[self.ticks as usize % self.neighbors.len()];
        let tag = self.me.index() as u64 * 1_000 + self.ticks;
        ctx.send(to, tag);
        ctx.send(to, tag + 500);
    }
}

impl EventDriven for Ticker<'_> {
    type Msg = u64;
    type Output = (u64, u64);

    fn on_init(&mut self, ctx: &mut PulseCtx<u64>) {
        self.burst(ctx);
    }

    fn on_pulse(&mut self, received: &[(NodeId, u64)], ctx: &mut PulseCtx<u64>) {
        self.pulses += 1;
        for &(from, tag) in received {
            self.checksum = self
                .checksum
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(from.index() as u64 ^ tag.rotate_left(17));
        }
        self.burst(ctx);
    }

    fn output(&self) -> Option<(u64, u64)> {
        (self.ticks == 0).then_some((self.checksum, self.pulses))
    }
}

/// A flood from node 0 whose outputs go `Some` → `None` → `Some`: every node
/// but the last starts with output `Some(0)`, drops it when the flood first
/// reaches it (forwarding the flood, which self-triggers it next pulse) and
/// outputs its hop count at that next pulse. The last node starts without an
/// output, so `rounds_to_output` is not settled at pulse 0 and has to see the
/// drops.
#[derive(Debug)]
struct Flicker<'g> {
    neighbors: &'g [NodeId],
    source: bool,
    hops: Option<u64>,
    output: Option<u64>,
}

impl<'g> Flicker<'g> {
    fn new(graph: &'g Graph, me: NodeId) -> Self {
        let last = me.index() + 1 == graph.node_count();
        Flicker {
            neighbors: graph.neighbors(me),
            source: me == NodeId(0),
            hops: None,
            output: (!last).then_some(0),
        }
    }
}

impl EventDriven for Flicker<'_> {
    type Msg = u64;
    type Output = u64;

    fn on_init(&mut self, ctx: &mut PulseCtx<u64>) {
        if self.source {
            self.hops = Some(0);
            for &u in self.neighbors {
                ctx.send(u, 1);
            }
        }
    }

    fn on_pulse(&mut self, received: &[(NodeId, u64)], ctx: &mut PulseCtx<u64>) {
        match (self.hops, received.first()) {
            (None, Some(&(_, hops))) => {
                self.hops = Some(hops);
                self.output = None;
                for &u in self.neighbors {
                    ctx.send(u, hops + 1);
                }
            }
            (Some(hops), _) if self.output.is_none() => self.output = Some(hops),
            _ => {}
        }
    }

    fn output(&self) -> Option<u64> {
        self.output
    }
}

/// Every node pings its first neighbor at every pulse. At its `bad`-th pulse a
/// node with an even id follows the ping with a message to a node that is not
/// its neighbor — several nodes fail in the same round, and the first one in id
/// order names the error.
#[derive(Debug)]
struct Faulty<'g> {
    me: NodeId,
    neighbors: &'g [NodeId],
    stranger: Option<NodeId>,
    bad: u64,
    pulses: u64,
}

impl<'g> Faulty<'g> {
    fn new(graph: &'g Graph, me: NodeId, bad: u64) -> Self {
        let neighbors = graph.neighbors(me);
        let stranger = me
            .index()
            .is_multiple_of(2)
            .then(|| graph.nodes().find(|&u| u != me && !neighbors.contains(&u)))
            .flatten();
        Faulty { me, neighbors, stranger, bad, pulses: 0 }
    }

    fn step(&mut self, ctx: &mut PulseCtx<u64>) {
        let Some(&first) = self.neighbors.first() else { return };
        ctx.send(first, self.pulses);
        if self.pulses == self.bad {
            if let Some(stranger) = self.stranger {
                ctx.send(stranger, self.me.index() as u64);
            }
        }
    }
}

impl EventDriven for Faulty<'_> {
    type Msg = u64;
    type Output = u64;

    fn on_init(&mut self, ctx: &mut PulseCtx<u64>) {
        self.step(ctx);
    }

    fn on_pulse(&mut self, _: &[(NodeId, u64)], ctx: &mut PulseCtx<u64>) {
        self.pulses += 1;
        self.step(ctx);
    }

    fn output(&self) -> Option<u64> {
        Some(self.pulses)
    }
}

/// The named topology families the pin covers.
fn families() -> [(&'static str, Graph); 7] {
    [
        ("path/17", Graph::path(17)),
        ("star/12", Graph::star(12)),
        ("grid/7x9", Graph::grid(7, 9)),
        ("torus/6x7", Graph::torus(6, 7)),
        ("cycle/31", Graph::cycle(31)),
        ("random_regular/40/3", Graph::random_regular(40, 3, 9)),
        ("random_regular/36/4", Graph::random_regular(36, 4, 2)),
    ]
}

/// The event-driven workloads every graph is run under.
fn check_all_workloads(label: &str, graph: &Graph, rng: &mut Prng) {
    let n = graph.node_count();
    let last = NodeId(n - 1);
    let bfs = |sources: Vec<NodeId>| move |v| BfsAlgorithm::new(graph, v, &sources);
    let report = assert_same(&format!("{label}/bfs[0]"), graph, bfs(vec![NodeId(0)]), 10_000)
        .expect("BFS quiesces");
    let dist = metrics::bfs_distances(graph, NodeId(0));
    for v in graph.nodes() {
        let got = report.nodes[v.index()].output().map(|o| o.distance);
        assert_eq!(got, dist[v.index()].map(|d| d as u64), "{label}: BFS distance of {v}");
    }
    assert_same(&format!("{label}/bfs[last]"), graph, bfs(vec![last]), 10_000);
    let mut sources: Vec<NodeId> = (0..3).map(|_| NodeId(rng.index_in(0, n))).collect();
    sources.sort();
    sources.dedup();
    assert_same(&format!("{label}/bfs{sources:?}"), graph, bfs(sources.clone()), 10_000);
    assert_same(&format!("{label}/ticker"), graph, |v| Ticker::new(graph, v), 10_000);
    assert_same(&format!("{label}/flicker"), graph, |v| Flicker::new(graph, v), 10_000);
}

#[test]
fn bfs_tickers_and_flickers_match_the_reference_on_every_family() {
    let mut rng = Prng::new(0x5EC_0DE);
    for (label, graph) in families() {
        check_all_workloads(label, &graph, &mut rng);
    }
}

#[test]
fn random_connected_graphs_match_the_reference_over_50_seeds() {
    let mut rng = Prng::new(0xD1FF);
    for seed in 0..50 {
        let n = rng.index_in(2, 40);
        let p = (2.5 / n as f64).min(1.0);
        let graph = Graph::random_connected(n, p, seed);
        check_all_workloads(&format!("random_connected/{n}/{seed}"), &graph, &mut rng);
    }
}

#[test]
fn self_triggered_pulses_fire_without_an_inbox() {
    // A star's leaves only hear from the hub; leaf initiators (ids 3, 6, 9) send
    // to the hub and are triggered afterwards by their own sends alone.
    let graph = Graph::star(10);
    let report = assert_same("star/ticker", &graph, |v| Ticker::new(&graph, v), 100)
        .expect("tickers quiesce");
    // Leaf 9 has 1 + 9 mod 4 = 2 ticks: it sends at pulses 0 and 1 and is
    // self-triggered at pulses 1 and 2, receiving nothing.
    assert_eq!(report.nodes[9].output(), Some((0, 2)));
}

#[test]
fn leader_election_and_mst_match_the_reference() {
    for (label, graph) in [
        ("grid/5x6", Graph::grid(5, 6)),
        ("cycle/19", Graph::cycle(19)),
        ("random_connected/25", Graph::random_connected(25, 0.12, 3)),
        ("random_regular/24/3", Graph::random_regular(24, 3, 5)),
    ] {
        let d = metrics::diameter(&graph).expect("connected").max(1);
        let cover = Arc::new(build_sparse_cover(&graph, d));
        assert_same(
            &format!("{label}/leader"),
            &graph,
            |v| LeaderElection::new(v, cover.clone()),
            10_000,
        );
        let weights = EdgeWeights::random_distinct(&graph, 7);
        assert_same(
            &format!("{label}/mst"),
            &graph,
            |v| MstAlgorithm::new(&graph, &weights, v, cover.clone()),
            10_000,
        );
    }
}

#[test]
fn not_neighbor_and_round_limit_errors_match_at_the_boundary() {
    for graph in [Graph::path(6), Graph::cycle(8), Graph::grid(3, 4)] {
        for bad in [0u64, 1, 4] {
            for max_rounds in [bad.saturating_sub(1), bad, bad + 1, 100] {
                let label = format!("n={} bad={bad} max_rounds={max_rounds}", graph.node_count());
                assert_same(&label, &graph, |v| Faulty::new(&graph, v, bad), max_rounds);
                let err = run_sync(&graph, |v| Faulty::new(&graph, v, bad), max_rounds)
                    .expect_err("a faulty run never succeeds");
                if max_rounds < bad {
                    assert_eq!(err, SimError::RoundLimitExceeded { limit: max_rounds }, "{label}");
                } else {
                    assert!(
                        matches!(err, SimError::NotNeighbor { from: NodeId(0), .. }),
                        "{label}: {err:?}"
                    );
                }
            }
        }
    }
}
