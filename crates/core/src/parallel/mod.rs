//! The parallel detection engine: two-pass, sharded, deterministic.
//!
//! Sequential replay ([`crate::replay`]) interleaves two very different
//! kinds of work: maintaining the *reachability structure* (driven by the
//! parallel-construct events, inherently ordered) and maintaining the
//! *access history* plus race checks (driven by the memory accesses, which
//! dominate real traces and are independent across granules). This engine
//! splits them:
//!
//! 1. **Pass 1 — freeze** ([`ReachIndex::freeze`]): replay the trace once
//!    through the reachability algorithm only, recording each bag's tag and
//!    merge *timeline* instead of its final state, and — for MultiBags+ —
//!    the earliest-connection closure of the attached-set dag `R`. The
//!    result answers `precedes(u, v)` *at any trace position* read-only,
//!    with no interior mutability, so it is shared by every worker. The same
//!    replay extracts the granule-level access stream.
//! 2. **Pass 2 — shard** ([`ShadowPartition`]): split the granule space into
//!    at most `P` contiguous ranges balanced by access count (one counting
//!    pass, [`partition_ranges`]), and let each worker scan the shared
//!    access stream in place, feeding the accesses of its range through a
//!    private shadow-memory partition that queries the shared frozen index
//!    ([`run_partition`]). A [`PartitionSet`] keeps the partitions between
//!    reports on a growing stream, so each report scans only the appended
//!    accesses.
//! 3. **Merge** : the per-partition witnesses carry the trace position of
//!    the access that exposed them; sorting by position rebuilds exactly the
//!    sequential report — [`par_replay_detect`] returns a [`RaceReport`]
//!    identical to [`replay_detect`](crate::replay::replay_detect) at every
//!    thread count, which the determinism property tests assert event-for-
//!    event over seeded generated programs.
//!
//! Workers are plain closures handed to a [`DetectExecutor`]; the default
//! [`StdExecutor`] uses scoped OS threads, and `futurerd`'s facade plugs the
//! work-stealing pool of `futurerd-runtime` in instead (its `PoolExecutor`),
//! so detection — not just capture — runs on the pool.

mod assist;
mod freeze;
mod shard;

pub use assist::{
    stamp_closure_row, AssistExecutor, ChunkIndex, ChunkIndexCore, ChunkIter, FreezeAssist,
    DEFAULT_MIN_BATCH,
};
pub use freeze::{
    FrozenBags, FrozenNsp, GranuleAccess, IncrementalFreezer, Pos, RawBagSet, RawBags, RawFreeze,
    RawIndexError, RawNsp, RawNspSet, ReachIndex, RAW_NONE,
};
pub use shard::{
    bucket_accesses, incremental_outcomes, merge_outcomes, merge_outcomes_stats, partition_ranges,
    run_partition, Advance, IncrementalOutcomes, PartitionOutcome, PartitionSet, ShadowPartition,
    REBALANCE_DRIFT_FACTOR,
};

use crate::races::RaceReport;
use crate::replay::{replay_detect_unchecked, ReplayAlgorithm};
use futurerd_dag::trace::{Trace, TraceCounts, TraceError};

/// Runs a batch of independent detection workers to completion.
///
/// The engine hands each granule partition to one task; implementations
/// decide where the tasks run. All tasks must have finished when `run_batch`
/// returns — the engine merges partition results immediately afterwards.
pub trait DetectExecutor {
    /// Executes every task, potentially in parallel, and waits for all of
    /// them.
    fn run_batch<'a>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'a>>);
}

/// The default executor: the calling thread runs the first task, and every
/// other task gets a scoped OS thread of its own (so a single task spawns
/// no thread at all).
#[derive(Debug, Clone, Copy, Default)]
pub struct StdExecutor;

impl DetectExecutor for StdExecutor {
    fn run_batch<'a>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'a>>) {
        let mut tasks = tasks.into_iter();
        let Some(first) = tasks.next() else {
            return;
        };
        // Label the scoped threads only while observability is recording:
        // labels register a per-thread buffer with the global registry, and
        // an idle run should not pay that registration.
        let label = futurerd_obs::recording();
        std::thread::scope(|scope| {
            for (slot, task) in (1..).zip(tasks) {
                scope.spawn(move || {
                    if label {
                        futurerd_obs::set_thread_label(&format!("detect.{slot}"));
                    }
                    task();
                });
            }
            // The caller works instead of parking until the others finish.
            first();
        });
    }
}

/// Replays a validated trace through the two-pass parallel detection engine
/// with up to `threads` workers and returns a [`RaceReport`] identical to
/// sequential [`replay_detect`](crate::replay::replay_detect).
///
/// Only the paper's algorithms have a frozen reachability form; for
/// [`ReplayAlgorithm::SpBags`], [`ReplayAlgorithm::SpBagsConservative`] and
/// [`ReplayAlgorithm::GraphOracle`] this falls back to sequential replay
/// (the report is identical either way).
///
/// # Example
///
/// ```
/// use futurerd_core::parallel::par_replay_detect;
/// use futurerd_core::replay::{replay_detect, ReplayAlgorithm};
/// use futurerd_runtime::record_program;
///
/// let (_, trace, _) = record_program(|cx| {
///     let mut cell = futurerd_runtime::ShadowCell::new(cx, 0u32);
///     cx.spawn(|cx| cell.set(cx, 1));
///     let _racy = cell.get(cx);
///     cx.sync();
/// });
/// let sequential = replay_detect(&trace, ReplayAlgorithm::MultiBags).unwrap();
/// let parallel = par_replay_detect(&trace, ReplayAlgorithm::MultiBags, 4).unwrap();
/// assert_eq!(parallel, sequential);
/// assert_eq!(parallel.race_count(), 1);
/// ```
pub fn par_replay_detect(
    trace: &Trace,
    algorithm: ReplayAlgorithm,
    threads: usize,
) -> Result<RaceReport, TraceError> {
    par_replay_detect_with(trace, algorithm, threads, &StdExecutor)
}

/// As [`par_replay_detect`], but both passes run on the given executor
/// (e.g. the work-stealing pool of `futurerd-runtime`): pass 2's detection
/// partitions through [`DetectExecutor::run_batch`], and pass 1's large
/// closure stamping batches through [`AssistExecutor::assist`] when
/// `threads > 1`. A thin wrapper over [`par_replay_outcomes_with`].
pub fn par_replay_detect_with(
    trace: &Trace,
    algorithm: ReplayAlgorithm,
    threads: usize,
    executor: &(impl DetectExecutor + AssistExecutor),
) -> Result<RaceReport, TraceError> {
    match par_replay_outcomes_with(trace, algorithm, threads, executor)? {
        (_, Some(outcomes)) => Ok(merge_outcomes(outcomes)),
        // No frozen form for this algorithm: sequential replay gives the
        // same report by definition.
        (_, None) => Ok(replay_detect_unchecked(trace, algorithm)),
    }
}

/// The one-shot engine pipeline over a borrowed trace: validate, freeze
/// (pass 1, moving the frozen state straight into the index) and sharded
/// pass 2, returning the trace's totals and the per-partition outcomes
/// (merge with [`merge_outcomes`] or [`merge_outcomes_stats`]).
///
/// The trace is never copied and no resumable freezer is kept: a one-shot
/// request has nothing to resume. The outcomes are `None` for algorithms
/// without a frozen form; the caller replays those sequentially.
pub fn par_replay_outcomes_with(
    trace: &Trace,
    algorithm: ReplayAlgorithm,
    threads: usize,
    executor: &(impl DetectExecutor + AssistExecutor),
) -> Result<(TraceCounts, Option<Vec<PartitionOutcome>>), TraceError> {
    let counts = {
        let _span = futurerd_obs::Span::enter(futurerd_obs::names::VALIDATE);
        trace.validate()?
    };
    let assist = (threads > 1).then(|| FreezeAssist::new(threads, executor));
    let frozen = {
        let _span = futurerd_obs::Span::enter(futurerd_obs::names::FREEZE);
        freeze::freeze_with_accesses_assisted(trace, algorithm, assist.as_ref())
    };
    let outcomes = frozen
        .map(|(index, accesses)| detect_frozen_outcomes(&index, &accesses, threads, executor));
    Ok((counts, outcomes))
}

/// Pass 2 alone: sharded detection over an already-frozen index and its
/// granule access stream — the warm path of a persistent detection store,
/// which loads both from an `FRDIDX` sidecar instead of refreezing. Returns
/// the per-partition outcomes, the form a store persists so that
/// incremental re-detection can reuse outcomes for untouched granule
/// ranges; [`merge_outcomes`] turns them into a report byte-identical to
/// sequential replay at every thread count.
///
/// One outcome per [`partition_ranges`] range, each equal to
/// [`run_partition`] on that range: every task reads the shared stream in
/// place, so the stream is never copied. This is the first
/// [`PartitionSet::advance`] of an empty set.
pub fn detect_frozen_outcomes(
    index: &ReachIndex,
    accesses: &[GranuleAccess],
    threads: usize,
    executor: &impl DetectExecutor,
) -> Vec<PartitionOutcome> {
    let mut set = PartitionSet::new();
    set.advance(index, accesses, threads, executor);
    set.into_outcomes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay_detect;
    use futurerd_dag::events::{ForkInfo, SpawnEvent, SyncEvent};
    use futurerd_dag::trace::TraceEvent;
    use futurerd_dag::{FunctionId, MemAddr, StrandId};

    /// A fork-join trace touching two distant granules, one of them racy.
    fn two_granule_trace() -> Trace {
        let root = FunctionId(0);
        let child = FunctionId(1);
        let x = MemAddr(0x1000);
        let y = MemAddr(0x8000);
        let mut t = Trace::new();
        t.push(TraceEvent::ProgramStart {
            root,
            first: StrandId(0),
        });
        t.push(TraceEvent::StrandStart {
            strand: StrandId(0),
            function: root,
        });
        t.push(TraceEvent::Write {
            strand: StrandId(0),
            addr: y,
            size: 4,
        });
        t.push(TraceEvent::Spawn(SpawnEvent {
            parent: root,
            child,
            fork_strand: StrandId(0),
            cont_strand: StrandId(2),
            child_first_strand: StrandId(1),
        }));
        t.push(TraceEvent::StrandStart {
            strand: StrandId(1),
            function: child,
        });
        t.push(TraceEvent::Write {
            strand: StrandId(1),
            addr: x,
            size: 4,
        });
        t.push(TraceEvent::Return {
            function: child,
            last: StrandId(1),
        });
        t.push(TraceEvent::StrandStart {
            strand: StrandId(2),
            function: root,
        });
        t.push(TraceEvent::Read {
            strand: StrandId(2),
            addr: x,
            size: 4,
        });
        t.push(TraceEvent::Read {
            strand: StrandId(2),
            addr: y,
            size: 4,
        });
        t.push(TraceEvent::Sync(SyncEvent {
            parent: root,
            child,
            pre_join_strand: StrandId(2),
            join_strand: StrandId(3),
            child_last_strand: StrandId(1),
            fork: ForkInfo {
                pre_fork_strand: StrandId(0),
                child_first_strand: StrandId(1),
                cont_strand: StrandId(2),
            },
        }));
        t.push(TraceEvent::StrandStart {
            strand: StrandId(3),
            function: root,
        });
        t.push(TraceEvent::Return {
            function: root,
            last: StrandId(3),
        });
        t.push(TraceEvent::ProgramEnd { last: StrandId(3) });
        t
    }

    #[test]
    fn par_detect_matches_sequential_at_every_thread_count() {
        let trace = two_granule_trace();
        for algorithm in [ReplayAlgorithm::MultiBags, ReplayAlgorithm::MultiBagsPlus] {
            let sequential = replay_detect(&trace, algorithm).expect("valid");
            for threads in [1, 2, 3, 8] {
                let parallel = par_replay_detect(&trace, algorithm, threads).expect("valid");
                assert_eq!(parallel, sequential, "{algorithm} at P={threads}");
            }
        }
    }

    #[test]
    fn par_detect_falls_back_for_unfreezable_algorithms() {
        let trace = two_granule_trace();
        for algorithm in [
            ReplayAlgorithm::SpBags,
            ReplayAlgorithm::SpBagsConservative,
            ReplayAlgorithm::GraphOracle,
        ] {
            let sequential = replay_detect(&trace, algorithm).expect("valid");
            let parallel = par_replay_detect(&trace, algorithm, 4).expect("valid");
            assert_eq!(parallel, sequential, "{algorithm}");
        }
    }

    #[test]
    fn par_detect_validates_the_trace() {
        let mut trace = two_granule_trace();
        trace.push(TraceEvent::ProgramEnd { last: StrandId(3) });
        assert!(par_replay_detect(&trace, ReplayAlgorithm::MultiBags, 2).is_err());
    }

    #[test]
    fn par_detect_handles_access_free_traces() {
        let mut t = Trace::new();
        t.push(TraceEvent::ProgramStart {
            root: FunctionId(0),
            first: StrandId(0),
        });
        t.push(TraceEvent::StrandStart {
            strand: StrandId(0),
            function: FunctionId(0),
        });
        t.push(TraceEvent::Return {
            function: FunctionId(0),
            last: StrandId(0),
        });
        t.push(TraceEvent::ProgramEnd { last: StrandId(0) });
        let report = par_replay_detect(&t, ReplayAlgorithm::MultiBags, 4).expect("valid");
        assert!(report.is_race_free());
    }
}
