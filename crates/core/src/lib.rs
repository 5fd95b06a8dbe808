//! # futurerd-core
//!
//! A from-scratch Rust implementation of **FutureRD** — the on-the-fly
//! determinacy-race detector for task-parallel programs with futures from
//! *Efficient Race Detection with Futures* (Utterback, Agrawal, Fineman,
//! Lee — PPoPP 2019).
//!
//! A determinacy race occurs when two logically parallel strands access the
//! same memory location and at least one access is a write. The detector
//! runs the program **sequentially in depth-first eager order** (see
//! `futurerd-runtime`) and maintains two components:
//!
//! * a **reachability data structure** answering "is the previously executed
//!   strand *u* sequentially before the currently executing strand?" —
//!   the paper's contribution:
//!   * [`MultiBags`] for *structured* futures, in
//!     `O(T1·α(m,n))` total time (Section 4 of the paper);
//!   * [`MultiBagsPlus`] for *general* futures,
//!     in `O((T1+k²)·α(m,n))` (Section 5);
//!   * plus an [`SpBags`] baseline for pure fork-join
//!     programs and a ground-truth [`GraphOracle`]
//!     used in tests and ablations;
//! * an **access history** ([`shadow::AccessHistory`]) storing, per
//!   four-byte granule, the last writer and the list of readers since that
//!   write (Section 3).
//!
//! The [`detector`] module glues the two together into observers that plug
//! into the sequential executor, one per measurement configuration used in
//! the paper's evaluation (baseline / reachability / instrumentation /
//! full). The [`replay`] module feeds a recorded
//! [`Trace`](futurerd_dag::trace::Trace) through those same observers, so a
//! program recorded once can be detected on offline, repeatedly, by every
//! algorithm. The [`parallel`] module shards that offline detection across
//! threads by granule: a one-shot replay runs one single pass per worker,
//! each keeping every `P`-th granule, and sessions freeze reachability into
//! an immutable index and partition the granule space in a second pass.
//! A deterministic merge makes the result identical to sequential replay.
//!
//! ## Quick start
//!
//! ```
//! use futurerd_core::detector::RaceDetector;
//! use futurerd_core::reachability::MultiBags;
//! use futurerd_runtime::{run_program, ShadowArray};
//!
//! // A program with a determinacy race: the spawned child writes a cell
//! // that the parent's continuation reads before the sync.
//! let (_, detector, _) = run_program(RaceDetector::<MultiBags>::structured(), |cx| {
//!     let mut shared = ShadowArray::new(cx, 1, 0u32);
//!     cx.spawn(|cx| shared.set(cx, 0, 1));
//!     let _racy = shared.get(cx, 0); // races with the child's write
//!     cx.sync();
//!     let _fine = shared.get(cx, 0); // after the sync: no race
//! });
//! let report = detector.into_report();
//! assert_eq!(report.race_count(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitset;
pub mod detector;
pub mod parallel;
pub mod races;
pub mod reachability;
pub mod replay;
pub mod shadow;
pub mod stats;

pub use detector::{InstrumentationOnly, RaceDetector, ReachabilityOnly};
pub use parallel::{par_replay_detect, DetectExecutor, ReachIndex, ShadowPartition};
pub use races::{AccessKind, Race, RaceReport};
pub use reachability::{
    GraphOracle, MultiBags, MultiBagsPlus, Reachability, SpBags, SpBagsConservative,
};
pub use replay::{differential, replay_all, replay_detect, ReplayAlgorithm};
pub use stats::ReachStats;
