//! The parallel detection engines: one-shot replicas, and the two-pass
//! engine that sessions and the store resume.
//!
//! Sequential replay ([`crate::replay`]) interleaves two very different
//! kinds of work: maintaining the *reachability structure* (driven by the
//! parallel-construct events, inherently ordered) and maintaining the
//! *access history* plus race checks (driven by the memory accesses, which
//! dominate real traces and are independent across granules). Both engines
//! shard the second by granule and deal with the first in different ways.
//!
//! **One-shot replay** ([`par_replay_detect`], [`par_replay_with`]) runs `P`
//! copies of the paper's single pass: every worker replays the whole
//! validated event stream through its own reachability structure and keeps
//! access history only for the granules dealt to it round-robin
//! (`g mod P`). Reachability costs little next to the access history, so
//! replicating it is cheaper than freezing it, and no pass over the
//! accesses comes before detection. Replicas past the machine's core count
//! would only repeat the reachability work, so a request for more threads
//! runs [`oneshot_workers`] of them.
//!
//! **The two-pass engine** serves sessions and the persistent store, which
//! resume detection on a growing trace and persist its state:
//!
//! 1. **Pass 1 — freeze** ([`ReachIndex::freeze`], [`IncrementalFreezer`]):
//!    replay the trace once through the reachability algorithm only,
//!    recording each bag's tag and merge *timeline* instead of its final
//!    state, and — for MultiBags+ — the earliest-connection closure of the
//!    attached-set dag `R`. The result answers `precedes(u, v)` *at any
//!    trace position* read-only, with no interior mutability, so it is
//!    shared by every worker. The same replay extracts the granule-level
//!    access stream.
//! 2. **Pass 2 — shard** ([`ShadowPartition`]): split the granule space
//!    into at most `P` contiguous ranges balanced by access count (one
//!    counting pass, [`partition_ranges`]), and let each worker scan the
//!    shared access stream in place, feeding the accesses of its range
//!    through a private shadow-memory partition that queries the shared
//!    frozen index ([`run_partition`]). A [`PartitionSet`] keeps the
//!    partitions between reports on a growing stream, so each report scans
//!    only the appended accesses.
//!
//! **Merge**: the workers' witnesses carry the trace position of the access
//! that exposed them; sorting by position rebuilds exactly the sequential
//! report. Both engines return a [`RaceReport`] identical to
//! [`replay_detect`](crate::replay::replay_detect) at every thread count,
//! which the determinism property tests assert event-for-event over seeded
//! generated programs.
//!
//! Workers are plain closures handed to a [`DetectExecutor`]; the default
//! [`StdExecutor`] uses scoped OS threads, and `futurerd`'s facade plugs the
//! work-stealing pool of `futurerd-runtime` in instead (its `PoolExecutor`),
//! so detection — not just capture — runs on the pool.

mod assist;
mod freeze;
mod oneshot;
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
    bucket_accesses, incremental_outcomes, merge_outcomes_stats, partition_ranges, run_partition,
    Advance, IncrementalOutcomes, PartitionOutcome, PartitionSet, ShadowPartition,
    REBALANCE_DRIFT_FACTOR,
};

use crate::races::RaceReport;
use crate::reachability::{MultiBags, MultiBagsPlus};
use crate::replay::{replay_detect_unchecked, ReplayAlgorithm};
use crate::stats::DetectorStats;
use futurerd_dag::trace::{Trace, TraceCounts, TraceError};

/// Runs a batch of independent detection workers to completion.
///
/// The engines hand each worker (a one-shot replica or a pass-2 partition)
/// to one task; implementations decide where the tasks run. All tasks must
/// have finished when `run_batch` returns — the engine merges their
/// results immediately afterwards.
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

/// Replays a validated trace with up to `threads` detection workers and
/// returns a [`RaceReport`] identical to sequential
/// [`replay_detect`](crate::replay::replay_detect).
///
/// For MultiBags and MultiBags+, each of [`oneshot_workers`]`(threads)`
/// workers replays the whole trace through its own copy of the
/// reachability structure and keeps the access history of every
/// `workers`-th granule (see [`par_replay_with`]); nothing is frozen. One
/// worker runs the paper's single pass. SP-Bags,
/// [`ReplayAlgorithm::SpBagsConservative`] and the graph oracle always run
/// the single pass (the report is identical either way).
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
    par_replay_detect_with(trace, algorithm, oneshot_workers(threads), &StdExecutor)
}

/// How many one-shot workers a request for `threads` runs: at most as many
/// as the machine runs at once, and at least one. Every worker repeats the
/// whole reachability replay, so a worker past the core count adds work
/// and memory and no speed.
pub fn oneshot_workers(threads: usize) -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let cores = *CORES.get_or_init(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    threads.clamp(1, cores)
}

/// As [`par_replay_detect`], but exactly `workers` workers run, on the
/// given executor (e.g. the work-stealing pool of `futurerd-runtime`). A
/// thin wrapper over [`par_replay_with`].
pub fn par_replay_detect_with(
    trace: &Trace,
    algorithm: ReplayAlgorithm,
    workers: usize,
    executor: &impl DetectExecutor,
) -> Result<RaceReport, TraceError> {
    match par_replay_with(trace, algorithm, workers, executor)? {
        (_, Some((report, _))) => Ok(report),
        // Not a paper algorithm: the single pass, by definition the same
        // report.
        (_, None) => Ok(replay_detect_unchecked(trace, algorithm)),
    }
}

/// The one-shot pipeline over a borrowed trace: validate once, then detect
/// with exactly `workers` workers on `executor`, and return the trace's
/// totals with the merged report and the summed access-history counters.
/// Callers that take a thread count from a user cap it with
/// [`oneshot_workers`] first, as [`par_replay_detect`] and the facade do.
///
/// Each worker `w` replays every event of the trace in place through its
/// own [`MultiBags`] or [`MultiBagsPlus`]. Construct events go to the
/// structure; a `Read` or `Write` applies only its granules `g` with
/// `g mod workers == w`, keeps each in slot `g div workers` of the
/// worker's shadow table, and asks `precedes_current`, as the single pass
/// does. The witnesses merge by trace position (the event index), then
/// granule, as [`merge_outcomes_stats`] merges pass-2 partitions, so the
/// report is byte-identical to the single pass. The counters equal the
/// single pass's except `shadow_pages`, which sums the workers' tables.
/// One worker runs the single pass on the calling thread.
///
/// Nothing is frozen, copied or kept: a one-shot request has nothing to
/// resume. The detection is `None` for algorithms other than MultiBags and
/// MultiBags+; the caller replays those in a single pass.
pub fn par_replay_with(
    trace: &Trace,
    algorithm: ReplayAlgorithm,
    workers: usize,
    executor: &impl DetectExecutor,
) -> Result<(TraceCounts, Option<(RaceReport, DetectorStats)>), TraceError> {
    let counts = {
        let _span = futurerd_obs::Span::enter(futurerd_obs::names::VALIDATE);
        trace.validate()?
    };
    let events = trace.events();
    let detected = match algorithm {
        ReplayAlgorithm::MultiBags => Some(oneshot::detect_replicas(
            events,
            workers,
            executor,
            MultiBags::new,
        )),
        ReplayAlgorithm::MultiBagsPlus => Some(oneshot::detect_replicas(
            events,
            workers,
            executor,
            MultiBagsPlus::new,
        )),
        _ => None,
    };
    Ok((counts, detected))
}

/// Pass 2 alone: sharded detection over an already-frozen index and its
/// granule access stream — the warm path of a persistent detection store,
/// which loads both from an `FRDIDX` sidecar instead of refreezing. Returns
/// the per-partition outcomes, the form a store persists so that
/// incremental re-detection can reuse outcomes for untouched granule
/// ranges; [`merge_outcomes_stats`] turns them into a report byte-identical to
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
