//! Schedule-exploration model checking and invariant linting for futurerd.
//!
//! This crate sits at the very bottom of the workspace dependency graph
//! (it depends on nothing, not even the vendored stand-ins) and provides
//! three things:
//!
//! * [`sync`] — a shim layer over the handful of `std::sync` primitives
//!   the lock-free core uses. Production code is written against the
//!   [`sync::SyncShim`] trait and instantiated at [`sync::RealShim`],
//!   whose newtypes are `#[repr(transparent)]`, `#[inline(always)]`
//!   wrappers that compile to the real primitives — zero cost in normal
//!   builds. Under the checker the same code is instantiated at
//!   [`model::ModelShim`], where every load/store/RMW/lock becomes a
//!   scheduling point.
//!
//! * [`model`] — a mini-loom: a depth-first schedule explorer that runs a
//!   closure repeatedly, enumerating every interleaving of its
//!   [`model::thread::spawn`]ed threads at small configs (2–3 threads),
//!   with DPOR-style sleep-set pruning, optional preemption bounding, and
//!   vector-clock based data-race detection on [`model::CheckCell`]s.
//!   Failures come back as a replayable schedule plus an op-level trace.
//!
//! * [`lint`] — a token-level workspace linter (no rustc internals) that
//!   enforces the repo invariants that otherwise live only in docs:
//!   `unsafe` only in allowlisted files and always under a `// SAFETY:`
//!   comment, observability names drawn from the `obs::names` manifest,
//!   `Ordering::Relaxed` banned on claim-protocol/latch atomics,
//!   `Instant::now` confined to the obs/bench measurement edges, and an
//!   `// INVARIANT:` comment on every panic site of the policed files.
//!
//! [`selftest`] holds the planted-bug protocol variants: deliberately
//! broken copies of the shipped protocols that the checker must refute,
//! proving the exploration actually covers the racy interleavings.

#![warn(missing_docs)]

pub mod lint;
pub mod model;
pub mod selftest;
pub mod sync;
