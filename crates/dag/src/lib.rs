//! Computation-dag model for task-parallel programs with futures.
//!
//! This crate provides the shared vocabulary used throughout `futurerd-rs`:
//!
//! * [`ids`] — strand, function-instance and memory-address identifiers.
//! * [`events`] — the [`Observer`] trait describing the
//!   instrumentation event stream produced by a sequential depth-first eager
//!   execution of a program that uses `spawn`/`sync`/`create_fut`/`get_fut`.
//!   The race detectors in `futurerd-core` consume this stream; the executor
//!   in `futurerd-runtime` produces it.
//! * [`graph`] — an explicit computation dag (strands + typed edges), as used
//!   for testing and statistics. The detectors never need the
//!   explicit dag; it exists so that correctness can be checked against a
//!   ground-truth [`reachability`] oracle.
//! * [`reachability`] — ground-truth reachability over an explicit dag
//!   (transitive closure with bitsets) used as the specification in
//!   differential and property-based tests.
//! * [`record`] — an [`Observer`] that records the event
//!   stream into an explicit [`Dag`].
//! * [`stats`] — work/span and per-construct statistics of a dag.
//! * [`genprog`] — a random-program generator (structured and general
//!   futures) used for property-based differential testing of the detectors.
//! * [`trace`] — a persistent, serializable form of the event stream
//!   ([`Trace`] / [`TraceEvent`]) with a compact binary codec and a
//!   canonical serial-DF ordering validator; recorded once, a trace can be
//!   replayed through any observer (see `futurerd-core::replay`).
//!
//! The model follows Section 2 of the paper: a program execution is a dag of
//! *strands* (maximal instruction sequences without parallel control)
//! connected by *continue*, *spawn*, *join*, *create* and *get* edges.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod events;
pub mod genprog;
pub mod graph;
pub mod ids;
pub mod reachability;
pub mod record;
pub mod source;
pub mod stats;
pub mod trace;

pub use events::{
    CreateFutureEvent, GetFutureEvent, MultiObserver, NullObserver, Observer, SpawnEvent, SyncEvent,
};
pub use graph::{Dag, EdgeKind};
pub use ids::{FunctionId, MemAddr, StrandId};
pub use reachability::ReachabilityOracle;
pub use record::DagRecorder;
pub use source::{ChunkedEvents, EventSource};
pub use trace::{PrefixValidator, Trace, TraceCounts, TraceError, TraceEvent};
