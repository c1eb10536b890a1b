//! # det-synchronizer
//!
//! Façade crate for the reproduction of *"A Near-Optimal Deterministic Distributed
//! Synchronizer"* (Ghaffari & Trygub, PODC 2023).
//!
//! The workspace implements, from scratch:
//!
//! * a discrete-event simulator of the asynchronous CONGEST message-passing model
//!   with adversarial message delays and the acknowledgment discipline the paper
//!   assumes ([`netsim`]),
//! * a synchronous round-based executor for event-driven algorithms ([`netsim`]),
//! * deterministic sparse covers and network decompositions ([`covers`]),
//! * the paper's core contribution: a deterministic synchronizer with polylogarithmic
//!   time and message overheads, together with the α/β baselines, all driven
//!   by the one [`Session`](sync::session::Session) builder, whose
//!   [`SyncKind`](sync::session::SyncKind) picks the synchronizer ([`sync`]),
//! * the applications of Section 6: asynchronous deterministic BFS, leader election
//!   and MST ([`algos`]).
//!
//! ## Quickstart
//!
//! The [`Session`](sync::session::Session) builder is the single entry point: name a
//! graph, a delay adversary and a synchronizer, then run any event-driven algorithm
//! through it.
//!
//! ```
//! use det_synchronizer::algos::bfs::BfsAlgorithm;
//! use det_synchronizer::prelude::*;
//!
//! let graph = Graph::grid(4, 4);
//! let report = Session::on(&graph)
//!     .delay(DelayModel::jitter(7))
//!     .synchronizer(SyncKind::DetAuto)
//!     .compare(|v| BfsAlgorithm::new(&graph, v, &[NodeId(0)]))
//!     .expect("bfs run");
//! // The synchronized asynchronous execution reproduces the synchronous one exactly.
//! assert!(report.outputs_match());
//! assert_eq!(report.async_outputs[15].unwrap().distance, 6);
//! ```
//!
//! The application wrappers are thin `Session` shims with friendlier outputs:
//!
//! ```
//! use det_synchronizer::prelude::*;
//!
//! let graph = Graph::grid(4, 4);
//! let report = run_synchronized_bfs(&graph, NodeId(0), DelayModel::uniform())
//!     .expect("bfs run");
//! assert_eq!(report.outputs[&NodeId(15)].distance, 6);
//! ```
//!
//! See `examples/` for complete programs and `DESIGN.md` for the mapping from the
//! paper's theorems to code and for the experiment harness.

#![forbid(unsafe_code)]

pub use ds_algos as algos;
pub use ds_covers as covers;
pub use ds_graph as graph;
pub use ds_netsim as netsim;
pub use ds_sync as sync;

pub mod prelude {
    //! Convenient re-exports for examples and downstream users.
    pub use ds_algos::bfs::{
        run_synchronized_bfs, run_synchronized_multi_bfs, run_synchronized_multi_bfs_faulted,
        BfsOutput,
    };
    pub use ds_algos::leader::{
        run_synchronized_leader_election, run_synchronized_leader_election_faulted,
    };
    pub use ds_algos::mst::run_synchronized_mst;
    pub use ds_covers::{LayeredSparseCover, SparseCover};
    pub use ds_graph::{Graph, NodeId};
    pub use ds_netsim::async_engine::SimLimits;
    pub use ds_netsim::delay::DelayModel;
    pub use ds_netsim::metrics::RunMetrics;
    pub use ds_netsim::{FaultPlan, SchedulerKind};
    pub use ds_sync::event_driven::EventDriven;
    pub use ds_sync::executor::{RunHealth, SynchronizedRun};
    pub use ds_sync::session::{ComparisonReport, Session, SessionError, SyncKind};
    pub use ds_sync::synchronizer::{DetSynchronizer, SynchronizerConfig};
}
