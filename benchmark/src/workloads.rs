//! The four workloads as plain data, generated from `--seed`.
//!
//! Nothing here names a repo type: a workload is a list of graph recipes, a
//! list of request recipes and the order one pass submits them in. The
//! adapter (`api.rs`) turns recipes into real graphs and requests; the program
//! under test never sees the seed or the workload's name.
//!
//! # What the seed may change
//!
//! The driver compares runs made with *different* seeds and rejects the
//! benchmark if a metric's spread across them exceeds its bound, so the seed
//! must vary the inputs without varying how much work they are. Every
//! workload therefore fixes its request *mix* and lets the seed draw what
//! symmetry leaves free: the BFS source among positions the topology cannot
//! tell apart in cost (the four corners of a square grid, any node of a torus
//! or cycle), every delay and churn seed, and submission order. On
//! `det_grid_deep` that makes the simulated counters of one pass identical
//! for every seed; elsewhere they move only with the jitter draws.

/// Names of the workloads, in the order the README discusses them.
pub const NAMES: [&str; 4] =
    ["det_grid_deep", "alpha_torus_jitter", "det_grid_sharded", "service_mix"];

/// Why each workload exists, one line each (copied into `BENCHMARK.json`).
pub fn why(name: &str) -> &'static str {
    match name {
        "det_grid_deep" => {
            "deep pulse schedule (T=127) under uniform delays: protocol-bound, grouped SoA engine \
             path; covers, cache and sharding idle"
        }
        "alpha_torus_jitter" => {
            "alpha does a few counters per message, so wall time is the engine: wheel, stage \
             queues, arena; det protocol and covers bypassed"
        }
        "det_grid_sharded" => {
            "only workload on the sharded engine and worker pool (2 shards, batched windows); \
             the serial engine is bypassed"
        }
        "service_mix" => {
            "pooled batches of 5-40 ms requests: cover cache hits, misses and evictions, slab \
             recycling, outage overflow tiers, churn, a second algorithm"
        }
        other => panic!("unknown workload {other}"),
    }
}

/// A graph recipe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphSpec {
    Grid { rows: usize, cols: usize },
    Torus { rows: usize, cols: usize },
    Cycle { n: usize },
    RandomRegular { n: usize, degree: usize, seed: u64 },
}

impl GraphSpec {
    pub fn node_count(&self) -> usize {
        match *self {
            GraphSpec::Grid { rows, cols } | GraphSpec::Torus { rows, cols } => rows * cols,
            GraphSpec::Cycle { n } | GraphSpec::RandomRegular { n, .. } => n,
        }
    }
}

/// The synchronous algorithm a request runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgoSpec {
    /// Single-source BFS from node index `source`.
    Bfs { source: usize },
    /// Cover-based leader election.
    Leader,
}

/// Which synchronizer drives it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncSpec {
    /// Deterministic synchronizer, configuration built in set-up and shared.
    DetPrebuilt,
    /// Deterministic synchronizer, configuration resolved per request (the
    /// kind the service's cover cache serves).
    DetAuto,
    Alpha,
    /// Beta with its spanning tree rooted at node 0.
    Beta,
}

/// The delay adversary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DelaySpec {
    Uniform,
    Jitter { seed: u64 },
    JitterAtLeast { seed: u64, min_fraction: f64 },
    Outage { seed: u64, period_units: u64, outage_units: u64 },
}

/// The event scheduler / engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineSpec {
    Wheel,
    Heap,
    Sharded { shards: usize, workers: usize },
}

/// One request recipe.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RequestSpec {
    /// Index into [`WorkloadSpec::graphs`].
    pub graph: usize,
    pub algo: AlgoSpec,
    pub sync: SyncSpec,
    pub delay: DelaySpec,
    pub engine: EngineSpec,
    /// Seed of a random link/node churn plan; `None` runs fault-free.
    pub churn: Option<u64>,
}

/// The long-lived service a workload submits batches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolSpec {
    pub workers: usize,
    pub cache_capacity: usize,
}

/// One timed top-level call: the batches a client submits back to back, each
/// a list of indices into [`WorkloadSpec::requests`]. Session workloads have
/// one batch of one request; `service_mix` has a BFS batch then a leader
/// batch (a pooled batch runs one algorithm type).
pub type Call = Vec<Vec<usize>>;

/// A generated workload.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub graphs: Vec<GraphSpec>,
    pub requests: Vec<RequestSpec>,
    /// One pass over the request list; the timed loop repeats it.
    pub pass: Vec<Call>,
    pub pool: Option<PoolSpec>,
    /// Timed calls per second of `--seconds`: a constant sized on the
    /// reference host so the timed section lasts about `--seconds` there. The
    /// loop runs this many calls and never looks at a clock, so a faster
    /// build measures the same samples.
    pub calls_per_second: f64,
    /// From-scratch set-ups timed for `setup_s` (the median is reported):
    /// more where one set-up is only a few milliseconds.
    pub setup_reps: usize,
}

impl WorkloadSpec {
    /// Timed calls for `--seconds`: whole passes, at least one.
    pub fn timed_calls(&self, seconds: u64) -> usize {
        let want = (self.calls_per_second * seconds as f64).round() as usize;
        want.div_ceil(self.pass.len()).max(1) * self.pass.len()
    }
}

/// splitmix64: the benchmark's own input generator, so request lists depend
/// on nothing but the seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Draws BFS sources the topology cannot tell apart in cost: any node of a
/// torus or cycle, and the corners of a grid dealt from a shuffled deck of all
/// four, so every fourth draw on a grid completes a full set. Corners have to
/// be balanced rather than merely random because the cover construction is
/// not symmetric under the grid's reflections: per-corner event counts differ
/// by up to 5 % and time overheads by 30 %, while their sum over a full set
/// does not depend on the order. Random-regular graphs have no symmetry to
/// use (eccentricities differ), so their source stays node 0.
struct Sources {
    /// Undealt corners, per graph index.
    decks: Vec<Vec<usize>>,
}

impl Sources {
    fn new(graphs: usize) -> Self {
        Sources { decks: vec![Vec::new(); graphs] }
    }

    fn draw(&mut self, graph_index: usize, graph: GraphSpec, rng: &mut Rng) -> usize {
        match graph {
            GraphSpec::Grid { rows, cols } => {
                let deck = &mut self.decks[graph_index];
                if deck.is_empty() {
                    deck.extend([0, cols - 1, (rows - 1) * cols, rows * cols - 1]);
                    rng.shuffle(deck);
                }
                deck.pop().expect("the deck was just refilled")
            }
            GraphSpec::Torus { .. } | GraphSpec::Cycle { .. } => rng.below(graph.node_count()),
            GraphSpec::RandomRegular { .. } => 0,
        }
    }
}

/// Generates workload `name` from `seed`.
///
/// # Panics
///
/// Panics on a name outside [`NAMES`].
pub fn generate(name: &str, seed: u64) -> WorkloadSpec {
    let mut rng = Rng::new(seed);
    let uniform = |_: &mut Rng| DelaySpec::Uniform;
    let jitter = |rng: &mut Rng| DelaySpec::Jitter { seed: rng.next_u64() };
    let jitter_at_least_half =
        |rng: &mut Rng| DelaySpec::JitterAtLeast { seed: rng.next_u64(), min_fraction: 0.5 };
    let sharded = EngineSpec::Sharded { shards: 2, workers: 0 };
    match name {
        "det_grid_deep" => session_bfs(
            "det_grid_deep",
            GraphSpec::Grid { rows: 64, cols: 64 },
            4,
            (SyncSpec::DetPrebuilt, EngineSpec::Wheel),
            uniform,
            (2.0, 31),
            &mut rng,
        ),
        // Eight requests a pass: time overhead under jitter is a random
        // variable (±1.5 % per request), and its mean over the pass has to
        // hold still across seeds.
        "alpha_torus_jitter" => session_bfs(
            "alpha_torus_jitter",
            GraphSpec::Torus { rows: 64, cols: 64 },
            8,
            (SyncSpec::Alpha, EngineSpec::Wheel),
            jitter,
            (2.8, 101),
            &mut rng,
        ),
        "det_grid_sharded" => session_bfs(
            "det_grid_sharded",
            GraphSpec::Grid { rows: 48, cols: 48 },
            4,
            (SyncSpec::DetPrebuilt, sharded),
            jitter_at_least_half,
            (2.4, 31),
            &mut rng,
        ),
        "service_mix" => service_mix(&mut rng),
        other => panic!("unknown workload {other}"),
    }
}

/// A `Session::run` workload: `count` BFS requests on one graph, one request
/// per call, sources and delay seeds drawn from the seed. `sizing` is
/// `(calls_per_second, setup_reps)`.
fn session_bfs(
    name: &'static str,
    graph: GraphSpec,
    count: usize,
    (sync, engine): (SyncSpec, EngineSpec),
    mut delay: impl FnMut(&mut Rng) -> DelaySpec,
    (calls_per_second, setup_reps): (f64, usize),
    rng: &mut Rng,
) -> WorkloadSpec {
    let mut sources = Sources::new(1);
    let requests: Vec<RequestSpec> = (0..count)
        .map(|_| RequestSpec {
            graph: 0,
            algo: AlgoSpec::Bfs { source: sources.draw(0, graph, rng) },
            sync,
            delay: delay(rng),
            engine,
            churn: None,
        })
        .collect();
    WorkloadSpec {
        name,
        graphs: vec![graph],
        pass: (0..requests.len()).map(|r| vec![vec![r]]).collect(),
        requests,
        pool: None,
        calls_per_second,
        setup_reps,
    }
}

/// Delay adversary of a `service_mix` slot before its seed is drawn.
#[derive(Clone, Copy)]
enum Adversary {
    Uniform,
    Jitter,
    Outage,
}

/// One client cycle of `service_mix`: graph index, whether the algorithm is
/// BFS, synchronizer, adversary, churned. Eight BFS slots then eight
/// leader-election slots. The mix is fixed — det 12/16, alpha 2/16, beta
/// 2/16; uniform 6, jitter 6, outage 4; churn 2/16 — so every cycle is the
/// same amount of work and the latency samples share one distribution; the
/// seed draws everything else. Each batch's det requests sit on three graphs,
/// two requests each: six cover-cache keys per cycle against a capacity of
/// four, so the cache hits (the repeat), misses and evicts (the other batch's
/// keys) in every cycle. Sizes keep a request between 1 and 40 ms.
const SERVICE_CYCLE: [(usize, bool, SyncSpec, Adversary, bool); 16] = [
    (1, true, SyncSpec::DetAuto, Adversary::Jitter, false),
    (1, true, SyncSpec::DetAuto, Adversary::Uniform, false),
    (5, true, SyncSpec::DetAuto, Adversary::Jitter, false),
    (5, true, SyncSpec::DetAuto, Adversary::Outage, false),
    (2, true, SyncSpec::DetAuto, Adversary::Outage, false),
    (2, true, SyncSpec::DetAuto, Adversary::Uniform, true),
    (3, true, SyncSpec::Alpha, Adversary::Jitter, false),
    (4, true, SyncSpec::Beta, Adversary::Uniform, false),
    (0, false, SyncSpec::DetAuto, Adversary::Jitter, false),
    (0, false, SyncSpec::DetAuto, Adversary::Uniform, true),
    (4, false, SyncSpec::DetAuto, Adversary::Outage, false),
    (4, false, SyncSpec::DetAuto, Adversary::Jitter, false),
    (3, false, SyncSpec::DetAuto, Adversary::Uniform, false),
    (3, false, SyncSpec::DetAuto, Adversary::Outage, false),
    (2, false, SyncSpec::Alpha, Adversary::Uniform, false),
    (5, false, SyncSpec::Beta, Adversary::Jitter, false),
];

/// Cycles per pass of `service_mix`: each is [`SERVICE_CYCLE`] with its own
/// seed draws. Four, so the pass's eight BFS requests on the 32×32 grid use
/// every corner exactly twice.
const SERVICE_CYCLES_PER_PASS: usize = 4;

fn service_mix(rng: &mut Rng) -> WorkloadSpec {
    // Graph-generator seeds are constants: the six topologies are the
    // working set the cover cache (capacity 4) is sized against.
    let graphs = vec![
        GraphSpec::Grid { rows: 16, cols: 16 },
        GraphSpec::Grid { rows: 32, cols: 32 },
        GraphSpec::Torus { rows: 16, cols: 16 },
        GraphSpec::Cycle { n: 256 },
        GraphSpec::RandomRegular { n: 256, degree: 4, seed: 1 },
        GraphSpec::RandomRegular { n: 1024, degree: 4, seed: 2 },
    ];
    let mut sources = Sources::new(graphs.len());
    let mut requests = Vec::new();
    let mut pass = Vec::new();
    for _ in 0..SERVICE_CYCLES_PER_PASS {
        let first = requests.len();
        for &(graph, bfs, sync, adversary, churned) in &SERVICE_CYCLE {
            let algo = if bfs {
                AlgoSpec::Bfs { source: sources.draw(graph, graphs[graph], rng) }
            } else {
                AlgoSpec::Leader
            };
            let delay = match adversary {
                Adversary::Uniform => DelaySpec::Uniform,
                Adversary::Jitter => DelaySpec::Jitter { seed: rng.next_u64() },
                Adversary::Outage => {
                    DelaySpec::Outage { seed: rng.next_u64(), period_units: 8, outage_units: 2 }
                }
            };
            requests.push(RequestSpec {
                graph,
                algo,
                sync,
                delay,
                engine: EngineSpec::Wheel,
                churn: churned.then(|| rng.next_u64()),
            });
        }
        let mut bfs_batch: Vec<usize> = (first..first + 8).collect();
        let mut leader_batch: Vec<usize> = (first + 8..first + 16).collect();
        rng.shuffle(&mut bfs_batch);
        rng.shuffle(&mut leader_batch);
        pass.push(vec![bfs_batch, leader_batch]);
    }
    WorkloadSpec {
        name: "service_mix",
        graphs,
        requests,
        pass,
        pool: Some(PoolSpec { workers: 2, cache_capacity: 4 }),
        calls_per_second: 3.0,
        setup_reps: 31,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_requests_and_another_seed_does_not() {
        for name in NAMES {
            assert_eq!(generate(name, 7), generate(name, 7), "{name}");
            assert_ne!(generate(name, 7), generate(name, 8), "{name}");
        }
    }

    #[test]
    fn every_pass_names_every_request_exactly_once() {
        for name in NAMES {
            let spec = generate(name, 3);
            let mut seen: Vec<usize> = spec.pass.iter().flatten().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..spec.requests.len()).collect::<Vec<_>>(), "{name}");
            assert!(spec.requests.iter().all(|r| r.graph < spec.graphs.len()));
        }
    }

    #[test]
    fn grid_workloads_visit_all_four_corners_whatever_the_seed() {
        for seed in 0..20 {
            let spec = generate("det_grid_deep", seed);
            let mut sources: Vec<usize> = spec
                .requests
                .iter()
                .map(|r| match r.algo {
                    AlgoSpec::Bfs { source } => source,
                    AlgoSpec::Leader => unreachable!(),
                })
                .collect();
            sources.sort_unstable();
            assert_eq!(sources, vec![0, 63, 4032, 4095]);
        }
    }

    #[test]
    fn the_service_mix_keeps_its_proportions() {
        let spec = generate("service_mix", 11);
        assert_eq!(spec.requests.len(), 16 * SERVICE_CYCLES_PER_PASS);
        let det = spec.requests.iter().filter(|r| r.sync == SyncSpec::DetAuto).count();
        let churned = spec.requests.iter().filter(|r| r.churn.is_some()).count();
        assert_eq!(det, 12 * SERVICE_CYCLES_PER_PASS);
        assert_eq!(churned, 2 * SERVICE_CYCLES_PER_PASS);
        for call in &spec.pass {
            assert_eq!(call.len(), 2);
            let is_bfs = |r: &usize| matches!(spec.requests[*r].algo, AlgoSpec::Bfs { .. });
            assert!(call[0].iter().all(is_bfs) && !call[1].iter().any(is_bfs));
        }
    }

    #[test]
    fn timed_calls_are_whole_passes_fixed_by_the_seconds_argument() {
        let spec = generate("det_grid_deep", 0);
        assert_eq!(spec.timed_calls(20), 40);
        assert_eq!(spec.timed_calls(1), 4);
        assert_eq!(generate("service_mix", 0).timed_calls(1) % SERVICE_CYCLES_PER_PASS, 0);
    }
}
