//! Engine-state recycling: check allocation-heavy engine state out of a free
//! pool and reuse it across runs instead of reallocating per run.
//!
//! A run's setup builds four non-trivial allocations — the timing wheel's
//! slot array, the per-directed-edge link table (with its spill table of
//! stage queues), the payload arena and the per-node done flags — all of
//! which end every successful run *provably empty*: at quiescence no event
//! is scheduled, no link holds queued or in-flight messages, and every arena
//! handle has been returned (the engine asserts this). [`EngineSlab`] keeps
//! those allocations between runs, and [`crate::run`] given a slab reshapes
//! them for the next run's graph instead of building them cold — on every
//! scheduler and node placement, traced or not (the heap scheduler leaves
//! the slab's wheel alone, and the sharded engine keeps its done flags per
//! shard).
//!
//! # Why recycling cannot change a schedule
//!
//! The reset contract (DESIGN.md §11) is: every field a run *reads* is
//! rewritten to its cold-start value before the run begins — the wheel's
//! clock and counters ([`TimingWheel::reset`]), the link endpoints and flags
//! (`EngineParts::adopt`), the arena's peak-live watermark — while only
//! *capacity* (vector allocations, free-list shape) is retained. Capacity is
//! invisible to the simulation: arena handles are opaque tokens that never
//! feed a delay draw or an ordering decision, and queue/slot buffers compare
//! equal whatever their reserve. Hence a recycled run's schedule is
//! bit-identical to a cold run's, which the cold- and warm-slab rows of
//! `ds-verify`'s engine contract (`ds_verify::check`) and
//! `tests/service_determinism.rs` pin.
//!
//! # Error runs
//!
//! A run that fails mid-flight (event-limit abort, non-neighbor send) leaves
//! live handles and queued messages behind. Rather than attempt a cleanup
//! pass, the slab discards that state wholesale: the failed run's parts and
//! wheel are dropped and the slab degrades to cold allocation on its next
//! use. Correctness never depends on reuse.

use crate::arena::EvRef;
use crate::async_engine::{run_body, AsyncReport, EngineParts, RunSpec, SimError, SimLimits};
use crate::delay::DelayModel;
use crate::fault::FaultPlan;
use crate::protocol::Protocol;
use crate::scheduler::TimingWheel;
use ds_graph::{Graph, NodeId};
use std::any::{Any, TypeId};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Recyclable state of one engine: the [`TimingWheel`] plus the engine's
/// allocation-heavy parts (link table, payload arena, done flags). One slab
/// serves one run at a time, of any configuration [`crate::run`] takes; a
/// [`SlabBank`] pools idle slabs across runs and sessions.
///
/// `M` is the protocol's message type — the arena stores messages, so a slab
/// is only reusable across runs of protocols sharing one message type (the
/// [`SlabBank`] keys its pools by exactly that).
pub struct EngineSlab<M> {
    /// The recycled wheel and the horizon it was built for, or `None` before
    /// the first run and after a discarded error run.
    pub(crate) wheel: Option<(u64, TimingWheel<EvRef>)>,
    pub(crate) parts: EngineParts<M>,
    pub(crate) runs: u64,
}

impl<M> EngineSlab<M> {
    /// Creates an empty slab: the first run through it allocates cold.
    pub fn new() -> Self {
        EngineSlab { wheel: None, parts: EngineParts::default(), runs: 0 }
    }

    /// Completed runs this slab's state has been recycled through.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// The recycling hygiene invariant, promoted from the engine's internal
    /// `debug_assert` to a test-visible check: the slab holds no transient
    /// state — wheel empty (or absent), every link idle, every arena handle
    /// returned. Holds before the first run, after every successful run, and
    /// after a discarded error run; [`crate::run`] asserts it on every
    /// completion with a slab and [`SlabBank::check_in`] refuses a slab that
    /// violates it.
    pub fn is_clean(&self) -> bool {
        self.wheel.as_ref().is_none_or(|(_, w)| w.is_empty()) && self.parts.is_clean()
    }

    /// Takes the wheel out for a run, reset to tick 0, rebuilding it only if
    /// the horizon changed (it never does under a fixed `TICKS_PER_UNIT`).
    pub(crate) fn take_wheel(&mut self, horizon: u64) -> TimingWheel<EvRef> {
        match self.wheel.take() {
            Some((h, mut wheel)) if h == horizon => {
                wheel.reset();
                wheel
            }
            _ => TimingWheel::new(horizon),
        }
    }
}

impl<M> Default for EngineSlab<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> fmt::Debug for EngineSlab<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineSlab")
            .field("runs", &self.runs)
            .field("clean", &self.is_clean())
            .finish()
    }
}

/// [`crate::run`] on the [`TimingWheel`] scheduler over `slab`, untraced and
/// without worker threads. Kept because `benchmark/src/api.rs` names it.
///
/// # Errors
///
/// Same as [`crate::run`].
pub fn run_async_recycled<P, F>(
    graph: &Graph,
    delay: DelayModel,
    faults: Option<&FaultPlan>,
    make: F,
    limits: SimLimits,
    slab: &mut EngineSlab<P::Message>,
) -> Result<AsyncReport<P>, SimError>
where
    P: Protocol,
    F: FnMut(NodeId) -> P,
{
    let spec = RunSpec { faults, limits, ..RunSpec::new(delay) };
    run_body(graph, &spec, make, Some(slab), None).map(|(report, _)| report)
}

/// A shared, thread-safe pool of idle [`EngineSlab`]s, keyed by message type.
///
/// Cloning is shallow: clones share one pool, so a bank handed to N
/// concurrent sessions lets a slab freed by one session serve the next —
/// regardless of which worker runs it — while each in-flight run owns its
/// slab exclusively (checkout moves it out of the bank). The bank never
/// blocks a run on another: an empty pool mints a fresh slab.
///
/// The map is keyed by [`TypeId`] of the message type and the per-type pools
/// are type-erased behind `Box<dyn Any>`; `checkout::<M>` only ever downcasts
/// the pool its own `TypeId` selected, so the downcast cannot fail.
#[derive(Clone, Default)]
pub struct SlabBank {
    inner: Arc<Mutex<BankInner>>,
}

#[derive(Default)]
struct BankInner {
    pools: BTreeMap<TypeId, Box<dyn Any + Send>>,
    checkouts: u64,
    reuses: u64,
}

impl SlabBank {
    /// Creates an empty bank.
    pub fn new() -> Self {
        SlabBank::default()
    }

    /// Takes an idle slab for message type `M` out of the bank, or mints a
    /// fresh one if none is pooled.
    pub fn checkout<M: Send + 'static>(&self) -> EngineSlab<M> {
        let mut inner = self.inner.lock().expect("slab bank poisoned");
        inner.checkouts += 1;
        let pool = inner
            .pools
            .entry(TypeId::of::<M>())
            .or_insert_with(|| Box::new(Vec::<EngineSlab<M>>::new()))
            .downcast_mut::<Vec<EngineSlab<M>>>()
            .expect("pool entry keyed by its own TypeId");
        match pool.pop() {
            Some(slab) => {
                inner.reuses += 1;
                slab
            }
            None => EngineSlab::new(),
        }
    }

    /// Returns a slab to the pool for the next checkout.
    ///
    /// # Panics
    ///
    /// Panics if the slab is not clean ([`EngineSlab::is_clean`]): only
    /// provably empty state may be recycled into another run.
    pub fn check_in<M: Send + 'static>(&self, slab: EngineSlab<M>) {
        assert!(slab.is_clean(), "only a clean engine slab may re-enter the bank");
        let mut inner = self.inner.lock().expect("slab bank poisoned");
        inner
            .pools
            .entry(TypeId::of::<M>())
            .or_insert_with(|| Box::new(Vec::<EngineSlab<M>>::new()))
            .downcast_mut::<Vec<EngineSlab<M>>>()
            .expect("pool entry keyed by its own TypeId")
            .push(slab);
    }

    /// Total checkouts served (fresh and recycled).
    pub fn checkouts(&self) -> u64 {
        self.inner.lock().expect("slab bank poisoned").checkouts
    }

    /// Checkouts served by a recycled slab rather than a fresh allocation.
    pub fn reuses(&self) -> u64 {
        self.inner.lock().expect("slab bank poisoned").reuses
    }
}

impl fmt::Debug for SlabBank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock().expect("slab bank poisoned");
        f.debug_struct("SlabBank")
            .field("pools", &inner.pools.len())
            .field("checkouts", &inner.checkouts)
            .field("reuses", &inner.reuses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_pools_slabs_per_message_type_and_counts_reuse() {
        let bank = SlabBank::new();
        let slab: EngineSlab<u64> = bank.checkout();
        assert_eq!((bank.checkouts(), bank.reuses()), (1, 0));
        bank.check_in(slab);
        let again: EngineSlab<u64> = bank.checkout();
        assert_eq!((bank.checkouts(), bank.reuses()), (2, 1));
        // A different message type gets its own pool — no cross-type reuse.
        let other: EngineSlab<u8> = bank.checkout();
        assert_eq!((bank.checkouts(), bank.reuses()), (3, 1));
        bank.check_in(again);
        bank.check_in(other);
        // Clones share the pool.
        let clone = bank.clone();
        let _warm: EngineSlab<u8> = clone.checkout();
        assert_eq!(bank.reuses(), 2);
    }
}
