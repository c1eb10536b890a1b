//! The paper's primary contribution: a deterministic distributed synchronizer with
//! polylogarithmic time and message complexity overheads, plus the classical α and β
//! baselines of Awerbuch.
//!
//! * [`pulse`] — pulse levels, `prev(·)` and stage bookkeeping (Definitions 4.3–4.5).
//! * [`registration`] — the cluster registration abstraction (Section 3.2).
//! * [`synchronizer`] — the deterministic synchronizer for event-driven algorithms
//!   (Sections 4–5, Theorems 5.2–5.5).
//! * [`alpha`], [`beta`] — the classical baselines (Appendix A), used for the
//!   overhead-comparison experiments.
//! * [`session`] — the [`session::Session`] builder, the single entry
//!   point and the one request description: [`session::Session::run`]
//!   dispatches on the [`session::SyncKind`] once, so the deterministic
//!   synchronizer, both baselines and the lock-step ground truth all execute
//!   through it.
//! * [`executor`] — what a run returns ([`executor::SynchronizedRun`],
//!   [`executor::RunHealth`]) and the engine dispatch the asynchronous
//!   synchronizers share.
//! * [`service`] — simulation-as-a-service: [`service::SessionPool`] runs
//!   batches of independent sessions concurrently, amortizing cover
//!   construction (a [`service::CoverCache`]) and engine allocations (a
//!   recycling bank) across them, with every pooled run bit-identical to its
//!   standalone session.
//! * [`event_driven`] — re-export of the event-driven algorithm interface from
//!   `ds-netsim`, so downstream crates only need this crate.
//!
//! # Example
//!
//! Wrap a synchronous flooding algorithm and run it asynchronously through
//! [`session::Session`]; see `examples/quickstart.rs` in the repository root for a
//! complete program and `DESIGN.md` for the theorem→module map.

#![forbid(unsafe_code)]

pub mod alpha;
pub mod beta;
pub mod executor;
pub mod flat;
pub mod pulse;
pub mod registration;
pub mod service;
pub mod session;
pub mod synchronizer;

/// Re-export of the event-driven algorithm interface.
pub mod event_driven {
    pub use ds_netsim::event_driven::{canonical_batch, EventDriven, PulseCtx};
}

pub use executor::{RunHealth, SynchronizedRun};
pub use service::{CoverCache, ServiceRequest, SessionPool, SynchronizerParams};
pub use session::{ComparisonReport, Session, SessionError, SyncKind};
pub use synchronizer::{collect_outputs, DetSynchronizer, SyncMsg, SynchronizerConfig};
