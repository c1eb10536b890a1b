//! Simulation-as-a-service: run many independent simulation requests
//! concurrently, amortizing per-topology and per-run setup across them.
//!
//! A standalone [`Session`] pays full setup on every
//! run: the synchronizer cover construction (`SynchronizerConfig::build`, by
//! far the dominant cost at scale) and the engine's allocations. The paper's
//! synchronizer is explicitly a *reusable overlay* — the cover/layer
//! structure of Ghaffari–Trygub depends only on the topology and the pulse
//! bound, never on the workload — so a service can build it once per
//! `(topology, parameters)` and share it, via `Arc`, across every session
//! that runs on it. A request is a plain [`Session`]: the pool runs the same
//! description a standalone caller would. This module provides the two
//! pieces that serve requests:
//!
//! * [`CoverCache`] — a bounded, thread-safe cache of built
//!   [`SynchronizerConfig`]s keyed by `(graph structural hash, n, m,
//!   SynchronizerParams)`, with **verify-on-hit**: a hit is returned only
//!   after a full `Graph` equality check, so a 64-bit hash collision can
//!   never alias two topologies (they coexist under one key instead).
//! * [`SessionPool`] — runs a batch of requests concurrently over the
//!   `ds-netsim::pool` worker threads (the workspace's single thread-spawn
//!   site), resolving `DetAuto` through the shared cover cache and drawing
//!   engine state from a shared recycling [`SlabBank`].
//!
//! # Pooled determinism
//!
//! Every pooled run is **bit-identical** to the same request's own
//! [`Session::run`] (pinned by `tests/service_determinism.rs`),
//! regardless of cache hits, recycled engine state, worker count, or
//! interleaving with other requests. The argument is by construction:
//!
//! 1. Requests never share mutable state: each job owns its protocol
//!    instances, engine state, and result slot; the only shared structures
//!    are the cover cache (returning `Arc`s of immutable configs) and the
//!    slab bank (handing out exclusively-owned state).
//! 2. A cache-hit `SynchronizerConfig` is the output of the same
//!    deterministic `build(graph, max_pulse)` the standalone session would
//!    have run — verified equal-keyed *and* equal-graphed — so `Det(hit)`
//!    and `DetAuto` build identical protocol instances.
//! 3. Recycled engine state is bit-identical to cold state by the reset
//!    contract of `ds-netsim::recycle` (asserted by the engine every run,
//!    and against the wheel by the slab rows of `ds_verify::check`).
//! 4. Completion order is irrelevant: results are reassembled by submission
//!    index, and no request reads another's output.
//!
//! The only field recycling may legitimately change is
//! [`SynchronizedRun::arena_bytes`] — a recycled arena may carry more
//! *capacity* than a cold run ever needed. It is an engine internal
//! (explicitly excluded from run identity, like `overflow_events`); every
//! other field, including `peak_live_handles`, is identical.

use crate::executor::SynchronizedRun;
use crate::session::{Session, SessionError, SyncKind};
use crate::synchronizer::SynchronizerConfig;
use ds_graph::{Graph, NodeId};
use ds_netsim::event_driven::EventDriven;
use ds_netsim::pool::{PanicPayload, WorkerPool};
use ds_netsim::SlabBank;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};

/// The synchronizer parameters a cover construction depends on (besides the
/// topology itself): the pulse bound `max_pulse` handed to
/// [`SynchronizerConfig::build`]. Two requests on the same graph share a
/// cached config iff their resolved parameters are equal — a changed bound
/// changes the config, so it must miss, never alias.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SynchronizerParams {
    /// Upper bound on simulated pulses (`T(A)`), as resolved by the session.
    pub max_pulse: u64,
}

/// Cache key: structural hash plus the two cheap exact discriminators, then
/// the build parameters. The hash is a discriminator, not a proof — entries
/// under one key are disambiguated by full graph equality.
type CacheKey = (u64, usize, usize, SynchronizerParams);

struct CacheEntry {
    /// The exact topology this config was built for (verify-on-hit: a hit
    /// must compare equal to the requesting graph, not just hash-equal).
    graph: Graph,
    /// Filled once, by whichever lookup of this entry reaches `get_or_init`
    /// first; every other lookup, including one that arrives mid-build, waits
    /// for that build and shares its `Arc`.
    cfg: Arc<OnceLock<Arc<SynchronizerConfig>>>,
    last_used: u64,
}

struct CacheInner {
    entries: BTreeMap<CacheKey, Vec<CacheEntry>>,
    len: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded, thread-safe cache of built [`SynchronizerConfig`]s, keyed by
/// `(Graph::structural_hash, node count, edge count, SynchronizerParams)`.
///
/// * **Soundness**: a hit is returned only after full `Graph` equality
///   against the stored topology (`Graph: Eq`), so a hash collision
///   coexists under one key rather than aliasing. Any structural change —
///   a removed edge, an added edge, a different edge insertion order —
///   changes the key or fails the equality check and misses.
/// * **One build per key, outside the lock**: a miss inserts its entry and
///   builds after releasing the lock; concurrent lookups of the same key
///   wait for that build instead of starting another, and lookups of
///   *different* topologies never serialize behind it.
/// * **LRU eviction**: at capacity, the least-recently-used entry is
///   evicted; an evicted topology simply rebuilds on next use (bit-identical
///   — the build is deterministic).
pub struct CoverCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

impl CoverCache {
    /// Default capacity of [`CoverCache::new`]: plenty for an experiment
    /// sweep's distinct topologies while bounding memory.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// Creates a cache with the default capacity.
    pub fn new() -> Self {
        CoverCache::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a cache holding at most `capacity` configs (clamped to ≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        CoverCache {
            inner: Mutex::new(CacheInner {
                entries: BTreeMap::new(),
                len: 0,
                clock: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Returns the cached config for `(graph, params)`, building (and
    /// caching) it on a miss. The returned `Arc` is shared by every session
    /// on this topology; the config itself is immutable.
    pub fn get_or_build(
        &self,
        graph: &Graph,
        params: SynchronizerParams,
    ) -> Arc<SynchronizerConfig> {
        let key = (graph.structural_hash(), graph.node_count(), graph.edge_count(), params);
        let cell = {
            let mut guard = self.inner.lock().expect("cover cache poisoned");
            let inner = &mut *guard;
            let clock = inner.clock;
            inner.clock += 1;
            let found = inner
                .entries
                .get_mut(&key)
                .and_then(|slot| slot.iter_mut().find(|e| e.graph == *graph));
            if let Some(entry) = found {
                entry.last_used = clock;
                inner.hits += 1;
                Arc::clone(&entry.cfg)
            } else {
                inner.misses += 1;
                while inner.len >= self.capacity {
                    inner.evict_lru();
                }
                inner.len += 1;
                let cell = Arc::new(OnceLock::new());
                let entry =
                    CacheEntry { graph: graph.clone(), cfg: Arc::clone(&cell), last_used: clock };
                inner.entries.entry(key).or_default().push(entry);
                cell
            }
        };
        // Build outside the lock. Lookups of this key block in `get_or_init`
        // until the one build is done (if it panics, the next waiter builds);
        // an entry evicted meanwhile still hands its waiters the result.
        Arc::clone(cell.get_or_init(|| SynchronizerConfig::build(graph, params.max_pulse)))
    }

    /// Configs currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cover cache poisoned").len
    }

    /// Whether the cache holds no configs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of cached configs.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups served by an existing entry (after graph-equality
    /// verification), including lookups that waited for its build.
    pub fn hits(&self) -> u64 {
        self.inner.lock().expect("cover cache poisoned").hits
    }

    /// Lookups that found no entry (or only entries whose stored graph failed
    /// the equality check) and so started a build: the number of builds run.
    pub fn misses(&self) -> u64 {
        self.inner.lock().expect("cover cache poisoned").misses
    }

    /// Entries evicted to stay within capacity.
    pub fn evictions(&self) -> u64 {
        self.inner.lock().expect("cover cache poisoned").evictions
    }
}

impl Default for CoverCache {
    fn default() -> Self {
        CoverCache::new()
    }
}

impl fmt::Debug for CoverCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock().expect("cover cache poisoned");
        f.debug_struct("CoverCache")
            .field("len", &inner.len)
            .field("capacity", &self.capacity)
            .field("hits", &inner.hits)
            .field("misses", &inner.misses)
            .field("evictions", &inner.evictions)
            .finish()
    }
}

impl CacheInner {
    fn evict_lru(&mut self) {
        let Some((&key, oldest)) = self
            .entries
            .iter()
            .filter_map(|(k, slot)| slot.iter().map(|e| e.last_used).min().map(|t| (k, t)))
            .min_by_key(|&(_, t)| t)
        else {
            return;
        };
        let slot = self.entries.get_mut(&key).expect("key just found");
        let pos = slot
            .iter()
            .position(|e| e.last_used == oldest)
            .expect("entry with the minimum stamp exists");
        slot.remove(pos);
        if slot.is_empty() {
            self.entries.remove(&key);
        }
        self.len -= 1;
        self.evictions += 1;
    }
}

/// The former name of a [`SessionPool`] request. Kept only because
/// `benchmark/src/api.rs` names it; a request is a [`Session`].
pub type ServiceRequest<'g> = Session<'g>;

/// Runs one request through the service path: validate and resolve the pulse
/// bound by [`Session`]'s rules, serve `DetAuto` from the cover cache, run
/// with the pool's recycled engine state. Used by the pool's workers; also
/// callable inline (worker count 0 routes here) — the execution is identical
/// either way.
fn run_one<A, F>(
    req: &Session<'_>,
    cache: &CoverCache,
    bank: &SlabBank,
    make: &mut F,
) -> Result<SynchronizedRun<A::Output>, SessionError>
where
    A: EventDriven,
    F: FnMut(NodeId) -> A,
{
    req.validate()?;
    let bound = req.resolve_pulse_bound(make)?;
    let mut session = req.clone().recycle(bank.clone());
    // DetAuto is the cacheable kind: its config is a pure function of
    // (graph, bound), which is exactly the cache key. Everything else
    // passes through unchanged.
    if matches!(req.kind, SyncKind::DetAuto) {
        let cfg = cache.get_or_build(req.graph, SynchronizerParams { max_pulse: bound });
        session = session.synchronizer(SyncKind::Det(cfg));
    }
    Ok(session.execute(bound, make)?)
}

/// The per-slot error of a request whose protocol (or algorithm factory)
/// panicked: the payload's message if it is a string, as `panic!` payloads are.
fn protocol_panicked(payload: PanicPayload) -> SessionError {
    let message = payload
        .downcast_ref::<&str>()
        .map(|message| (*message).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    SessionError::ProtocolPanicked { message }
}

/// One queued unit of pool work: the submission index of its request, its
/// own clone of the algorithm factory, and the result slot the worker fills.
struct Job<O, F> {
    index: usize,
    make: F,
    result: Option<Result<SynchronizedRun<O>, SessionError>>,
}

/// Runs batches of independent simulation requests concurrently over the
/// `ds-netsim::pool` worker threads, sharing a [`CoverCache`] and a
/// recycling [`SlabBank`] across all of them.
///
/// The pool is a *scheduler*, not a session: it holds no per-run state, and
/// a single pool can serve any number of `run_batch` calls (each call spins
/// the worker threads up and down; the cache and bank persist across
/// calls). The first idle worker takes the next request in submission order,
/// so no worker idles while a request waits. Results come back in submission
/// order whatever the completion order. See the module docs for the
/// pooled-determinism argument.
pub struct SessionPool {
    workers: usize,
    cache: CoverCache,
    bank: SlabBank,
}

impl SessionPool {
    /// Creates a pool dispatching over `workers` worker threads (0 runs
    /// every request inline on the caller's thread — same execution, no
    /// concurrency), with a default-capacity [`CoverCache`].
    pub fn new(workers: usize) -> Self {
        SessionPool::with_cache(workers, CoverCache::new())
    }

    /// Creates a pool with an explicitly configured cover cache (e.g. a
    /// smaller capacity for eviction testing).
    pub fn with_cache(workers: usize, cache: CoverCache) -> Self {
        SessionPool { workers, cache, bank: SlabBank::new() }
    }

    /// The shared cover cache (hit/miss/eviction counters for observability).
    pub fn cache(&self) -> &CoverCache {
        &self.cache
    }

    /// The shared engine-state recycling bank.
    pub fn bank(&self) -> &SlabBank {
        &self.bank
    }

    /// Runs every request of a batch, concurrently over the pool's workers,
    /// and returns one result per request **in submission order**.
    ///
    /// `make(i, v)` builds the algorithm instance of node `v` for request
    /// `i` — it is cloned per job, and must not observe shared mutable
    /// state (the usual determinism contract for factories). Each request
    /// runs as its own [`Session::run`] would, except that it draws engine
    /// state from the pool's bank in place of any bank it carries.
    ///
    /// Requests are independent: one failing (its `Err` is returned in its
    /// slot) never affects another. A panicking protocol or factory fails
    /// its own slot with [`SessionError::ProtocolPanicked`]; the unwound run's
    /// engine state is dropped, never returned to the bank.
    pub fn run_batch<'g, A, F>(
        &self,
        requests: &[Session<'g>],
        make: F,
    ) -> Vec<Result<SynchronizedRun<A::Output>, SessionError>>
    where
        A: EventDriven,
        A::Output: Send,
        F: FnMut(usize, NodeId) -> A + Clone + Send,
    {
        if requests.is_empty() {
            return Vec::new();
        }
        if self.workers == 0 {
            return requests
                .iter()
                .enumerate()
                .map(|(i, req)| {
                    let mut make = make.clone();
                    catch_unwind(AssertUnwindSafe(|| {
                        run_one(req, &self.cache, &self.bank, &mut |v| make(i, v))
                    }))
                    .unwrap_or_else(|payload| Err(protocol_panicked(payload)))
                })
                .collect();
        }
        let workers = self.workers.min(requests.len());
        let work = |job: &mut Job<A::Output, F>| {
            let (index, make) = (job.index, &mut job.make);
            let req = &requests[index];
            job.result = Some(run_one(req, &self.cache, &self.bank, &mut |v| make(index, v)));
        };
        WorkerPool::run(workers, work, |pool| {
            for index in 0..requests.len() {
                pool.dispatch(index, Job { index, make: make.clone(), result: None });
            }
            let mut results: Vec<_> = (0..requests.len()).map(|_| None).collect();
            // Every job is collected before anything is returned, so no
            // worker is left sending into a dropped channel (same discipline
            // as the sharded engine's barrier).
            for _ in 0..requests.len() {
                let (index, job, panic) = pool.collect();
                results[index] = match panic {
                    Some(payload) => Some(Err(protocol_panicked(payload))),
                    None => job.result,
                };
            }
            results.into_iter().map(|r| r.expect("every job ran")).collect()
        })
    }
}

impl fmt::Debug for SessionPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionPool")
            .field("workers", &self.workers)
            .field("cache", &self.cache)
            .field("bank", &self.bank)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_netsim::async_engine::SimLimits;
    use ds_netsim::delay::DelayModel;
    use ds_netsim::event_driven::PulseCtx;

    #[derive(Debug)]
    struct Flood {
        me: NodeId,
        neighbors: Vec<NodeId>,
        hops: Option<u64>,
    }

    impl Flood {
        fn new(graph: &Graph, me: NodeId) -> Self {
            Flood { me, neighbors: graph.neighbors(me).to_vec(), hops: None }
        }
    }

    impl EventDriven for Flood {
        type Msg = u64;
        type Output = u64;

        fn on_init(&mut self, ctx: &mut PulseCtx<u64>) {
            if self.me == NodeId(0) {
                self.hops = Some(0);
                for &u in &self.neighbors {
                    ctx.send(u, 1);
                }
            }
        }

        fn on_pulse(&mut self, received: &[(NodeId, u64)], ctx: &mut PulseCtx<u64>) {
            if self.hops.is_none() {
                if let Some(&(_, h)) = received.first() {
                    self.hops = Some(h);
                    for &u in &self.neighbors {
                        ctx.send(u, h + 1);
                    }
                }
            }
        }

        fn output(&self) -> Option<u64> {
            self.hops
        }
    }

    #[test]
    fn cache_hits_share_one_config_and_count() {
        let cache = CoverCache::new();
        let graph = Graph::grid(3, 3);
        let params = SynchronizerParams { max_pulse: 8 };
        let a = cache.get_or_build(&graph, params);
        let b = cache.get_or_build(&graph, params);
        assert!(Arc::ptr_eq(&a, &b), "a hit returns the cached Arc, not a rebuild");
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        // A different bound is a different config: must miss, never alias.
        let c = cache.get_or_build(&graph, SynchronizerParams { max_pulse: 9 });
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 2, 2));
    }

    #[test]
    fn cache_eviction_is_lru_and_rebuilds_identically() {
        let cache = CoverCache::with_capacity(2);
        let g1 = Graph::path(5);
        let g2 = Graph::cycle(5);
        let g3 = Graph::grid(2, 3);
        let params = SynchronizerParams { max_pulse: 6 };
        let first = cache.get_or_build(&g1, params);
        cache.get_or_build(&g2, params);
        cache.get_or_build(&g1, params); // g1 now more recent than g2
        cache.get_or_build(&g3, params); // evicts g2
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        let again = cache.get_or_build(&g1, params);
        assert!(Arc::ptr_eq(&first, &again), "g1 survived the eviction");
        // g2 rebuilds (a miss), bit-identical to its first build.
        let rebuilt = cache.get_or_build(&g2, params);
        assert_eq!(*rebuilt, *SynchronizerConfig::build(&g2, params.max_pulse));
    }

    #[test]
    fn pooled_batch_matches_inline_and_keeps_submission_order() {
        let graphs = [Graph::grid(3, 3), Graph::path(7), Graph::cycle(6)];
        let requests: Vec<Session<'_>> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| Session::on(g).delay(DelayModel::jitter(3 + i as u64)))
            .collect();
        let make = |i: usize, v: NodeId| Flood::new(requests[i].graph(), v);
        let inline = SessionPool::new(0).run_batch::<Flood, _>(&requests, make);
        let pooled = SessionPool::new(2).run_batch::<Flood, _>(&requests, make);
        for (i, (a, b)) in inline.iter().zip(&pooled).enumerate() {
            let (a, b) = (a.as_ref().expect("inline"), b.as_ref().expect("pooled"));
            assert_eq!(a.outputs, b.outputs, "request {i}");
            assert_eq!(a.metrics, b.metrics, "request {i}");
        }
    }

    #[test]
    fn invalid_requests_fail_in_their_slot_without_poisoning_the_batch() {
        let graph = Graph::path(4);
        let requests = vec![
            Session::on(&graph),
            Session::on(&graph).limits(SimLimits { max_events: 0, ..SimLimits::default() }),
            Session::on(&graph),
        ];
        let results =
            SessionPool::new(2).run_batch::<Flood, _>(&requests, |_, v| Flood::new(&graph, v));
        assert!(results[0].is_ok());
        assert_eq!(
            results[1].as_ref().unwrap_err(),
            &SessionError::InvalidLimits { what: "max_events" }
        );
        assert!(results[2].is_ok());
    }
}
