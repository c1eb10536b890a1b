//! # ds-verify — the determinism analysis layer
//!
//! The reproduction's whole value is the paper's *determinism* guarantee
//! (Ghaffari & Trygub, PODC 2023): identical inputs must yield bit-identical
//! schedules, on every scheduler, with any shard count, threaded or not. This
//! crate makes that guarantee machine-checked instead of conventional, with
//! four mechanisms (DESIGN.md §7 and §8):
//!
//! 1. **[`lint`]** — source-level rules rejecting determinism hazards
//!    (`HashMap` iteration feeding dispatch, wall-clock reads, ambient host
//!    authority, stray thread spawns, ungated `unsafe`). Run as
//!    `cargo run -p ds-verify --bin ds-lint`; `--self-test` seeds one
//!    violation per rule and asserts each fires.
//! 2. **[`hb`]** — the happens-before checker: rebuilds the ordering relation
//!    implied by the shard/merge contract from a recorded
//!    [`DeliveryTrace`](ds_netsim::DeliveryTrace) and fails if any cross-shard
//!    delivery order is not forced by `seq` (vector clocks over shards).
//! 3. **[`contract`]** — the engine-equivalence contract: [`check`] runs a
//!    [`Scenario`] of the one test protocol, [`Chatter`], on every engine
//!    configuration of [`rows`] (wheel, heap, sharded at seven shard counts
//!    with and without worker threads, cold and warm engine slab, traced and
//!    untraced) and asserts equal reports, verified equal traces and the
//!    scenario's non-vacuity flags. The scenario tables over it are the
//!    workspace's engine-equivalence tests.
//! 4. **Sanitizer CI** — ThreadSanitizer over the engine-contract tests and
//!    Miri over the core `ds-netsim` data structures, wired in the `analysis`
//!    workflow job (see `.github/workflows/ci.yml`), outside the tier-1 path.
//!
//! It also holds [`digest`], a test algorithm whose output depends on every
//! message a node receives, for integration tests that must see a
//! synchronizer deliver a message twice or not at all.

#![forbid(unsafe_code)]

pub mod contract;
pub mod digest;
pub mod hb;
pub mod lint;
pub mod source;

pub use contract::{check, rows, Chatter, Row, Scenario, SlabState};
pub use digest::DigestFlood;
pub use hb::{check_equivalence, check_trace, HbReport, HbViolation};
pub use lint::{lint_files, lint_source, self_test, Finding, Rule};
