//! Simulation substrate for the synchronizer reproduction.
//!
//! The paper works with two models of distributed message passing (Section 1.1 and
//! Appendix B):
//!
//! * the **synchronous** model, in which computation proceeds in lock-step rounds and
//!   all messages sent in a round arrive by its end, and
//! * the **asynchronous** model, in which every message is delayed adversarially by
//!   at most one (unknown) time unit `τ`, and time complexity is measured as the
//!   worst-case completion time divided by `τ`.
//!
//! This crate implements both as deterministic discrete-event simulators:
//!
//! * [`event_driven`] defines the interface of *event-driven synchronous algorithms*
//!   (the class of algorithms the synchronizer accepts, Appendix B's second
//!   interpretation),
//! * [`sync_engine`] runs such an algorithm in lock-step rounds and reports its
//!   synchronous time and message complexities `T(A)` and `M(A)`,
//! * [`protocol`] defines the interface of asynchronous protocols,
//! * [`arena`] holds the recycled event arena the delivery hot path runs on:
//!   a free-list payload slab behind `u32` handles, and the 8-byte event
//!   reference the serial scheduler stores,
//! * [`async_engine`] runs an asynchronous protocol — every configuration
//!   through one entry point, [`run`] over a [`RunSpec`] — under a configurable
//!   [`delay::DelayModel`], enforcing the acknowledgment discipline of Appendix B
//!   (one un-acknowledged message per link) and the lowest-stage-first scheduling of
//!   Lemma 2.5 / Corollary 2.3 — the rules themselves (what a send, an
//!   injection, a delivery, an acknowledgment and a fault drop do) live once,
//!   in the private `effects` core, and the loop around it is shared with
//!   the sharded engine,
//! * [`fault`] makes the topology dynamic: a deterministic, tick-stamped
//!   [`FaultPlan`] of link churn and crash-stop node failures that every engine
//!   consults at dispatch and delivery time,
//! * [`scheduler`] holds the engine's event schedulers — the bounded-horizon
//!   timing wheel the model's one-time-unit delay bound makes possible, and the
//!   binary-heap reference it is tested against ([`SchedulerKind`] selects),
//! * [`sharded`] runs the asynchronous engine's loop over node shards — a
//!   dense tick's activations in parallel worker threads, their effects
//!   replayed serially in global sequence order — with schedules
//!   bit-identical to the single-threaded wheel,
//! * [`pool`] holds the persistent, work-conserving worker pool the sharded
//!   engine spreads its shards over (the only module in the workspace allowed
//!   to create threads),
//! * [`recycle`] checks engine state (wheel, link table, arena) out
//!   of a free pool and reuses it across runs — bit-identical to cold runs
//!   under an asserted reset contract,
//! * [`stage_queue`] holds the queue behind a link's inline head: one `Vec`
//!   sorted by `(priority, seq)`,
//! * [`metrics`] collects time and message accounting for both engines,
//! * [`trace`] records per-delivery causality on demand — the raw material the
//!   `ds-verify` happens-before checker rebuilds its ordering relation from.

#![forbid(unsafe_code)]

pub mod arena;
pub mod async_engine;
mod bitset;
pub mod delay;
mod effects;
pub mod event_driven;
pub mod fault;
pub mod metrics;
pub mod pool;
pub mod protocol;
pub mod recycle;
pub mod scheduler;
pub mod sharded;
pub mod stage_queue;
pub mod sync_engine;
pub mod trace;

pub use async_engine::{run, run_async_faulted, AsyncReport, RunSpec, SimError, SimLimits};
pub use delay::DelayModel;
pub use event_driven::{EventDriven, PulseCtx};
pub use fault::{FaultEvent, FaultPlan, FaultState};
pub use metrics::{MessageClass, RunMetrics};
pub use protocol::{Ctx, Protocol};
pub use recycle::{run_async_recycled, EngineSlab, SlabBank};
pub use scheduler::SchedulerKind;
pub use sharded::{run_async_sharded_faulted_with, ShardedOptions, ThreadMode};
pub use sync_engine::{run_sync, SyncReport};
pub use trace::{DeliveryRecord, DeliveryTrace};

/// Number of simulator ticks per asynchronous time unit `τ`.
///
/// Delays are integers in `[1, TICKS_PER_UNIT]`; reported times are normalized by
/// this constant, so a reported time of `t` means `t · τ` as in the paper.
pub const TICKS_PER_UNIT: u64 = 1000;
