//! Task-parallel runtime for `futurerd-rs`.
//!
//! This crate provides the two execution vehicles used by the reproduction of
//! *Efficient Race Detection with Futures* (PPoPP 2019):
//!
//! 1. **The sequential depth-first eager executor** ([`exec`]). Race
//!    detection in the paper runs the program *sequentially*, executing every
//!    `spawn`/`create_fut` child eagerly and to completion before resuming
//!    the parent. The executor exposes the Cilk-style constructs (`spawn`,
//!    `sync`, `create_fut`, `get_fut`) through an execution context
//!    [`Cx`] and reports every parallel construct and instrumented
//!    memory access to an [`Observer`](futurerd_dag::Observer) — the race
//!    detectors in `futurerd-core` are observers.
//!
//! 2. **A work-stealing thread pool** ([`pool`]) in the spirit of Cilk/rayon:
//!    per-worker Chase–Lev deques, `join`, `scope`d tasks, and parallel
//!    futures. It is used to run the *uninstrumented* benchmark baselines in
//!    parallel and to demonstrate that the workloads are real parallel
//!    programs, not detection-only mockups.
//!
//! The crate also provides [`memory`] — instrumented shared-memory wrappers
//! (`ShadowArray`, `ShadowCell`, `ShadowMatrix`) whose reads and writes are
//! reported to the observer — [`spec`], an interpreter for the random
//! programs generated by `futurerd_dag::genprog` (used heavily by the
//! property-based differential tests), and [`trace`], which captures
//! persistent event traces through a [`TraceRecorder`] observer on the
//! sequential executor.

#![warn(missing_docs)]

pub mod exec;
pub mod memory;
pub mod pool;
pub mod spec;
pub mod trace;

pub use exec::{run_program, Cx, ExecutionSummary};
pub use memory::{ShadowArray, ShadowCell, ShadowMatrix};
pub use pool::{FutureTask, ThreadPool, ThreadPoolBuilder, WorkerStats};
pub use trace::{record_program, record_spec, TraceRecorder};
