//! # futurerd
//!
//! One-stop facade over the FutureRD reproduction (*Efficient Race Detection
//! with Futures*, Utterback, Agrawal, Fineman, Lee — PPoPP 2019): write a
//! task-parallel program with futures against a single entry point, run it
//! under the paper's on-the-fly determinacy-race detector, and get back the
//! program's value plus a [`RaceReport`].
//!
//! The underlying crates stay available for fine-grained use (`futurerd-core`
//! for the detectors, `futurerd-runtime` for the executor and thread pool,
//! `futurerd-dag` for the dag model); this crate is the stable surface that
//! examples, integration tests, and downstream workloads program against.
//!
//! ## Quick start
//!
//! ```
//! // A program with a determinacy race: the main task reads a buffer
//! // element before joining the future that writes it.
//! let detection = futurerd::detect_structured(|cx| {
//!     let mut buffer = futurerd::ShadowArray::new(cx, 4, 0u32);
//!     let producer = cx.create_future(|cx| {
//!         for i in 0..4 {
//!             buffer.set(cx, i, 7);
//!         }
//!     });
//!     let early = buffer.get(cx, 0); // races with the producer's writes
//!     cx.get_future(producer);
//!     early
//! });
//! assert_eq!(detection.race_count(), 1);
//!
//! // Joining first removes the race.
//! let detection = futurerd::detect_structured(|cx| {
//!     let mut buffer = futurerd::ShadowArray::new(cx, 4, 0u32);
//!     let producer = cx.create_future(|cx| {
//!         for i in 0..4 {
//!             buffer.set(cx, i, 7);
//!         }
//!     });
//!     cx.get_future(producer);
//!     buffer.get(cx, 0)
//! });
//! assert!(detection.is_race_free());
//! assert_eq!(detection.value, 7);
//! ```
//!
//! ## Choosing the algorithm and analysis level
//!
//! [`detect_structured`] uses **MultiBags** (single-touch futures, the
//! paper's Section 4 algorithm) and [`detect_general`] uses **MultiBags+**
//! (multi-touch / escaping futures, Section 5). For anything else — the
//! ground-truth oracle, the SP-Bags baseline, or the paper's partial
//! measurement configurations — build a [`Config`]:
//!
//! ```
//! use futurerd::{Algorithm, Analysis, Config};
//!
//! let detection = Config::new()
//!     .algorithm(Algorithm::MultiBagsPlus)
//!     .analysis(Analysis::Reachability) // maintain reachability, skip the access history
//!     .run(|cx| {
//!         cx.spawn(|_| {});
//!         cx.sync();
//!     });
//! assert!(detection.report.is_none()); // no access history ⇒ no race report
//! assert!(detection.reach_stats.unwrap().dsu_ops() > 0);
//! ```
//!
//! ## Sessions: detect while the execution grows
//!
//! Offline detection is a **[`Session`]**: open one (ephemeral via
//! [`Config::session`], or persistent on a [`Store`] entry via
//! [`Config::open_session`]), [`ingest`](Session::ingest) event chunks as
//! the observed execution grows, and ask for a [`report`](Session::report)
//! at any point. The session validates each event exactly once, keeps the
//! reachability freeze and the access history *resident* (appends extend
//! them, never repeat them), and serves every report from the cheapest valid
//! path — fully cached, touched partitions resumed over the appended
//! accesses, or cold — reporting which via [`Detection::path`]. The answer
//! is byte-identical to replaying the whole trace from scratch, for any
//! chunking, at any thread count:
//!
//! ```
//! use futurerd::{Config, DetectionPath};
//!
//! let recorded = futurerd::record(|cx| {
//!     let mut cell = futurerd::ShadowCell::new(cx, 0u32);
//!     cx.spawn(|cx| cell.set(cx, 1));
//!     let racy = cell.get(cx);
//!     cx.sync();
//!     racy
//! });
//! let events = recorded.trace.events();
//!
//! let mut session = Config::structured().session();
//! session.ingest(&events[..4]).unwrap();
//! let early = session.report().unwrap(); // verdict on the prefix so far
//! assert_eq!(early.path, Some(DetectionPath::Cold));
//!
//! session.ingest(&events[4..]).unwrap(); // the execution grew
//! let full = session.report().unwrap();  // only the suffix is new work
//! assert!(matches!(full.path, Some(DetectionPath::Incremental { .. })));
//! assert_eq!(full.race_count(), 1);
//!
//! // Byte-identical to one-shot replay of the concatenated trace.
//! let one_shot = Config::structured().replay(&recorded.trace).unwrap();
//! assert_eq!(full.report().to_string(), one_shot.report().to_string());
//! ```
//!
//! ## Record once, detect many times
//!
//! [`record`] captures an execution as a persistent [`Trace`] without any
//! detection state; [`Config::replay`] feeds a trace back through any
//! detector in one shot. Traces serialize ([`Trace::save`] /
//! [`Trace::load`]), so detection can happen offline, repeatedly, across
//! algorithms — see the `futurerd-trace` CLI in `futurerd-bench` for the
//! command-line version of this workflow (including `follow`, the
//! append-and-redetect loop over a stored session):
//!
//! ```
//! let recorded = futurerd::record(|cx| {
//!     let mut cell = futurerd::ShadowCell::new(cx, 0u32);
//!     cx.spawn(|cx| cell.set(cx, 1));
//!     let racy = cell.get(cx);
//!     cx.sync();
//!     racy
//! });
//! let bytes = recorded.trace.to_bytes(); // or recorded.trace.save(path)
//!
//! let trace = futurerd::Trace::from_bytes(&bytes).unwrap();
//! let structured = futurerd::Config::structured().replay(&trace).unwrap();
//! let general = futurerd::Config::general().replay(&trace).unwrap();
//! assert_eq!(structured.race_count(), 1);
//! assert_eq!(general.race_count(), 1);
//! ```
//!
//! Every fallible entry point returns the single [`Error`] type with typed
//! kinds ([`Error::Trace`], [`Error::Store`], [`Error::Unsupported`]) —
//! callers match on what went wrong, not on which layer noticed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod session;

pub use error::Error;
pub use futurerd_core::detector::{InstrumentationOnly, RaceDetector, ReachabilityOnly};
pub use futurerd_core::parallel;
pub use futurerd_core::parallel::{par_replay_detect, DetectExecutor, ReachIndex};
pub use futurerd_core::replay;
pub use futurerd_core::replay::ReplayAlgorithm as Algorithm;
pub use futurerd_core::stats::{DetectorStats, ReachStats};
pub use futurerd_core::{AccessKind, Race, RaceReport};
pub use futurerd_dag::source::{ChunkedEvents, EventSource};
pub use futurerd_dag::trace::{PrefixValidator, Trace, TraceCounts, TraceError, TraceEvent};
pub use futurerd_dag::{FunctionId, MemAddr, NullObserver, Observer, StrandId};
pub use futurerd_runtime::exec::{ExecutionSummary, FutureHandle};
pub use futurerd_runtime::trace::TraceRecorder;
pub use futurerd_runtime::{ShadowArray, ShadowCell, ShadowMatrix, ThreadPool, ThreadPoolBuilder};
pub use futurerd_store as store;
pub use futurerd_store::{BatchJob, BatchManifest, DetectionPath, Store, StoreError, StoreStats};
pub use session::Session;

use futurerd_core::parallel::{oneshot_workers, par_replay_with};
use futurerd_core::reachability::{
    GraphOracle, MultiBags, MultiBagsPlus, SpBags, SpBagsConservative,
};
use futurerd_dag::events::{CreateFutureEvent, GetFutureEvent, SpawnEvent, SyncEvent};
use futurerd_dag::trace::fnv1a64;
use futurerd_runtime::run_program;
use futurerd_store::{BatchRecord, BatchSummary};

/// The execution context handed to program bodies run through this facade.
///
/// It is the sequential depth-first eager executor's context
/// ([`futurerd_runtime::Cx`]) instantiated with the facade's dynamically
/// configured observer, so every construct — [`spawn`](Cx::spawn),
/// [`sync`](Cx::sync), [`create_future`](Cx::create_future),
/// [`get_future`](Cx::get_future), [`touch_future`](Cx::touch_future) — and
/// every instrumented memory wrapper works unchanged.
pub type Cx = futurerd_runtime::Cx<AnyObserver>;

/// How much of the detection pipeline runs — the four measurement
/// configurations of the paper's Section 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Analysis {
    /// Run the program with no detection state at all.
    Baseline,
    /// Maintain the reachability structure only.
    Reachability,
    /// Reachability plus memory-access instrumentation, but no access
    /// history.
    Instrumentation,
    /// Full race detection: reachability + access history + race queries.
    #[default]
    Full,
}

/// Builder selecting the observer (analysis level) × reachability structure
/// combination to run a program under, and — for trace replay — how many
/// detection threads to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    algorithm: Algorithm,
    analysis: Analysis,
    threads: usize,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            algorithm: Algorithm::default(),
            analysis: Analysis::default(),
            threads: 1,
        }
    }
}

impl Config {
    /// Full detection with MultiBags — the right default for structured
    /// (single-touch) futures.
    pub fn new() -> Self {
        Self::default()
    }

    /// Full detection with MultiBags (alias of [`Config::new`]).
    pub fn structured() -> Self {
        Self::new()
    }

    /// Full detection with MultiBags+ — required for general futures
    /// (multi-touch handles, handles escaping their creating task).
    pub fn general() -> Self {
        Self::new().algorithm(Algorithm::MultiBagsPlus)
    }

    /// Selects the reachability algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the analysis level.
    pub fn analysis(mut self, analysis: Analysis) -> Self {
        self.analysis = analysis;
        self
    }

    /// Number of detection threads used by replays and sessions (default
    /// 1).
    ///
    /// At one thread, [`Config::replay`] runs the paper's single pass: one
    /// depth-first replay maintaining the reachability structure alongside
    /// the access history, with no freeze. With `P` threads, a one-shot
    /// MultiBags / MultiBags+ full-detection replay runs `P` single passes
    /// over the same events on a work-stealing [`ThreadPool`]: each worker
    /// keeps its own reachability structure and the access history of
    /// every `P`-th granule, and the workers' witnesses merge by trace
    /// position; `P` stops at the machine's core count
    /// ([`parallel::oneshot_workers`]), since every extra worker repeats
    /// the reachability work. Sessions and the store run the two-pass
    /// engine instead (`futurerd-core::parallel`), because they resume and
    /// persist its state: pass 1 freezes the reachability structure on the
    /// calling thread, and pass 2 shards detection over contiguous granule
    /// ranges balanced by access count.
    /// The [`RaceReport`] is identical at any thread count on every path.
    /// Other algorithms and partial analyses replay in a single pass
    /// regardless of this setting.
    ///
    /// Workers come from the **process-shared** pool of this size
    /// ([`ThreadPool::shared`]), so repeated replays and batch jobs pay the
    /// worker spawn cost once.
    ///
    /// Threaded paths report the summed per-worker `detector_stats` but no
    /// `reach_stats` (one-shot workers each replicate the reachability
    /// work, and the freeze does not meter it); single-pass paths report
    /// both.
    ///
    /// # Example
    ///
    /// ```
    /// use futurerd::Config;
    ///
    /// let recorded = futurerd::record(|cx| {
    ///     let mut cell = futurerd::ShadowCell::new(cx, 0u32);
    ///     cx.spawn(|cx| cell.set(cx, 1));
    ///     let racy = cell.get(cx);
    ///     cx.sync();
    ///     racy
    /// });
    /// let sequential = Config::structured().replay(&recorded.trace).unwrap();
    /// let parallel = Config::structured()
    ///     .threads(4)
    ///     .replay(&recorded.trace)
    ///     .unwrap();
    /// assert_eq!(parallel.race_count(), sequential.race_count());
    /// assert_eq!(
    ///     parallel.report().witnesses(),
    ///     sequential.report().witnesses()
    /// );
    /// ```
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    fn build_observer(self) -> AnyObserver {
        use AnyObserver as O;
        match (self.analysis, self.algorithm) {
            (Analysis::Baseline, _) => O::Baseline(NullObserver),
            (Analysis::Reachability, Algorithm::MultiBags) => {
                O::ReachMb(ReachabilityOnly::new(MultiBags::new()))
            }
            (Analysis::Reachability, Algorithm::MultiBagsPlus) => {
                O::ReachMbp(ReachabilityOnly::new(MultiBagsPlus::new()))
            }
            (Analysis::Reachability, Algorithm::SpBags) => {
                O::ReachSp(ReachabilityOnly::new(SpBags::new()))
            }
            (Analysis::Reachability, Algorithm::SpBagsConservative) => {
                O::ReachSpc(ReachabilityOnly::new(SpBagsConservative::new()))
            }
            (Analysis::Reachability, Algorithm::GraphOracle) => {
                O::ReachOracle(ReachabilityOnly::new(GraphOracle::new()))
            }
            (Analysis::Instrumentation, Algorithm::MultiBags) => {
                O::InstrMb(InstrumentationOnly::new(MultiBags::new()))
            }
            (Analysis::Instrumentation, Algorithm::MultiBagsPlus) => {
                O::InstrMbp(InstrumentationOnly::new(MultiBagsPlus::new()))
            }
            (Analysis::Instrumentation, Algorithm::SpBags) => {
                O::InstrSp(InstrumentationOnly::new(SpBags::new()))
            }
            (Analysis::Instrumentation, Algorithm::SpBagsConservative) => {
                O::InstrSpc(InstrumentationOnly::new(SpBagsConservative::new()))
            }
            (Analysis::Instrumentation, Algorithm::GraphOracle) => {
                O::InstrOracle(InstrumentationOnly::new(GraphOracle::new()))
            }
            (Analysis::Full, Algorithm::MultiBags) => {
                O::FullMb(RaceDetector::new(MultiBags::new()))
            }
            (Analysis::Full, Algorithm::MultiBagsPlus) => {
                O::FullMbp(RaceDetector::new(MultiBagsPlus::new()))
            }
            (Analysis::Full, Algorithm::SpBags) => O::FullSp(RaceDetector::new(SpBags::new())),
            (Analysis::Full, Algorithm::SpBagsConservative) => {
                O::FullSpc(RaceDetector::new(SpBagsConservative::new()))
            }
            (Analysis::Full, Algorithm::GraphOracle) => {
                O::FullOracle(RaceDetector::new(GraphOracle::new()))
            }
        }
    }

    /// Runs `body` on the sequential depth-first eager executor under the
    /// configured observer and returns what was observed.
    ///
    /// # Example
    ///
    /// ```
    /// use futurerd::{Algorithm, Analysis, Config};
    ///
    /// let detection = Config::new()
    ///     .algorithm(Algorithm::GraphOracle) // ground truth
    ///     .analysis(Analysis::Full)
    ///     .run(|cx| {
    ///         cx.spawn(|_| {});
    ///         cx.sync();
    ///     });
    /// assert!(detection.is_race_free());
    /// assert_eq!(detection.summary.spawns, 1);
    /// ```
    pub fn run<T>(self, body: impl FnOnce(&mut Cx) -> T) -> Detection<T> {
        let (value, observer, summary) = run_program(self.build_observer(), body);
        let Outcome {
            report,
            reach_stats,
            detector_stats,
        } = observer.into_outcome();
        Detection {
            value,
            summary,
            config: self,
            report,
            reach_stats,
            detector_stats,
            path: None,
        }
    }

    /// Replays a complete recorded [`Trace`] through this configuration —
    /// offline detection on a trace captured by [`record`] (or loaded from
    /// disk with [`Trace::load`]).
    ///
    /// The borrowed trace is validated in place (the canonical serial-DF
    /// ordering invariant, which the detectors' correctness depends on, and
    /// a complete stream ending in `ProgramEnd`) and detected once; nothing
    /// is copied or kept. At one detection thread — and for partial
    /// analyses or algorithms other than MultiBags and MultiBags+ at any
    /// thread count —
    /// the configured detector runs the paper's single pass over the
    /// events, reporting `reach_stats` too. With `P > 1`
    /// [`threads`](Config::threads), MultiBags / MultiBags+ full detection
    /// runs `P` single passes on the process-shared pool, each keeping the
    /// access history of every `P`-th granule; nothing is frozen (sessions
    /// and the store run the two-pass engine). `P` is at most the machine's
    /// core count ([`parallel::oneshot_workers`]): every pass repeats the
    /// reachability work, so a pass past the core count adds work and no
    /// speed. Either way the [`RaceReport`] is byte-identical to a
    /// [`Session`] fed the same events. The returned [`Detection`] carries
    /// no program value, its summary's `bytes_allocated` is zero (traces do
    /// not record allocations), and its [`path`](Detection::path) is
    /// [`DetectionPath::Cold`].
    ///
    /// [`Algorithm::SpBags`] has no transition for future constructs, so
    /// replaying a futures-bearing trace under it returns
    /// [`Error::Unsupported`] instead of running.
    ///
    /// # Example
    ///
    /// ```
    /// use futurerd::Config;
    ///
    /// let recorded = futurerd::record(|cx| {
    ///     let mut cell = futurerd::ShadowCell::new(cx, 7u32);
    ///     let fut = cx.create_future(|cx| cell.get(cx));
    ///     cx.get_future(fut)
    /// });
    /// let detection = Config::general().replay(&recorded.trace).unwrap();
    /// assert!(detection.is_race_free());
    /// assert_eq!(detection.summary.gets, recorded.summary.gets);
    /// ```
    pub fn replay(self, trace: &Trace) -> Result<Detection<()>, Error> {
        let workers = oneshot_workers(self.threads);
        if workers == 1 || self.analysis != Analysis::Full {
            let counts = {
                let _span = futurerd_obs::Span::enter(futurerd_obs::names::VALIDATE);
                trace.validate()?
            };
            return sequential_detection(self, trace, summary_from_counts(&counts));
        }
        let pool = ThreadPool::shared(workers);
        let (counts, detected) =
            par_replay_with(trace, self.algorithm, workers, &PoolExecutor(&pool))?;
        let summary = summary_from_counts(&counts);
        let Some((report, detector_stats)) = detected else {
            // Not a paper algorithm: the single pass.
            return sequential_detection(self, trace, summary);
        };
        detector_stats.export_metrics("detector");
        pool.export_worker_metrics("pool");
        Ok(Detection {
            value: (),
            summary,
            config: self,
            report: Some(report),
            reach_stats: None,
            detector_stats: Some(detector_stats),
            path: Some(DetectionPath::Cold),
        })
    }

    /// Opens (or creates) a persistent detection [`Store`] rooted at `path`
    /// — traces live next to their frozen-index `FRDIDX` sidecars, so
    /// repeated replays take the warm path and appended events re-detect
    /// incrementally. See [`Config::replay_stored`] for running this
    /// configuration against a stored trace.
    pub fn store(path: impl AsRef<std::path::Path>) -> Result<Store, StoreError> {
        Store::open(path)
    }

    /// Replays a trace *stored* in `store` under this configuration — the
    /// single-shot form of a persistent [`Session`]
    /// ([`Config::open_session`]): the freeze is served from the trace's
    /// `FRDIDX` sidecar when it is valid (warm replay), only the appended
    /// suffix is refrozen when the trace has grown, and the refreshed state
    /// is persisted back. The report is byte-identical to
    /// [`Config::replay`] on the same trace, and
    /// [`Detection::path`] records which path served it.
    ///
    /// Only the freezable algorithms ([`Algorithm::MultiBags`] and
    /// [`Algorithm::MultiBagsPlus`]) have a persistent index; other
    /// algorithms return the store's
    /// [`Unfreezable`](StoreError::Unfreezable) error. A partial
    /// [`Analysis`] level is honored by replaying the stored trace
    /// sequentially (no index is read or written): the result has the same
    /// shape as [`Config::replay`] — no silent upgrade to full detection.
    ///
    /// # Example
    ///
    /// ```
    /// use futurerd::Config;
    ///
    /// let recorded = futurerd::record(|cx| {
    ///     let mut cell = futurerd::ShadowCell::new(cx, 0u32);
    ///     cx.spawn(|cx| cell.set(cx, 1));
    ///     let racy = cell.get(cx);
    ///     cx.sync();
    ///     racy
    /// });
    /// let dir = std::env::temp_dir().join(format!("frd-facade-doc-{}", std::process::id()));
    /// let mut store = Config::store(&dir).unwrap();
    /// store.put_trace("racy", &recorded.trace).unwrap();
    ///
    /// let cold = Config::structured().replay_stored(&mut store, "racy").unwrap();
    /// let warm = Config::structured().replay_stored(&mut store, "racy").unwrap();
    /// assert_eq!(cold.race_count(), 1);
    /// assert_eq!(warm.report().witnesses(), cold.report().witnesses());
    /// assert_eq!(store.stats().warm_cached_hits, 1);
    /// # std::fs::remove_dir_all(&dir).ok();
    /// ```
    pub fn replay_stored(self, store: &mut Store, name: &str) -> Result<Detection<()>, Error> {
        if self.analysis != Analysis::Full {
            // A stored index only exists for full detection; honor the
            // requested partial analysis by replaying the trace itself.
            // Stored traces may be prefixes of a growing execution.
            let trace = store.load_trace(name)?;
            let (counts, _) = trace.validate_prefix()?;
            return sequential_detection(self, &trace, summary_from_counts(&counts));
        }
        let mut session = self.open_session(store, name)?;
        session.report()
    }
}

/// Runs a batch of stored replays and writes their manifest to
/// [`Store::manifest_path`].
///
/// Jobs run in deterministic `(trace, algorithm, threads)` order, each as
/// one report of a persistent [`Session`] ([`Config::open_session`]), so a
/// job is served warm, incremental or cold exactly like
/// [`Config::replay_stored`] and leaves the same sidecar behind. The
/// manifest digests every race report; a job that fails is recorded in the
/// manifest, not raised. Only writing the manifest can fail the batch.
pub fn run_batch(store: &mut Store, mut jobs: Vec<BatchJob>) -> Result<BatchManifest, Error> {
    jobs.sort_by_cached_key(|job| (job.trace.clone(), job.algorithm.name(), job.threads));
    let records = jobs
        .into_iter()
        .map(|job| {
            let outcome = batch_job(store, &job).map_err(|e| match e {
                // The manifest names the store's refusal, not the facade's
                // wrapping of it.
                Error::Store(e) => e.to_string(),
                e => e.to_string(),
            });
            BatchRecord { job, outcome }
        })
        .collect();
    let manifest = BatchManifest { records };
    std::fs::write(store.manifest_path(), manifest.to_string()).map_err(StoreError::Io)?;
    Ok(manifest)
}

/// One batch job: a single report of a persistent session on the job's
/// trace.
fn batch_job(store: &mut Store, job: &BatchJob) -> Result<BatchSummary, Error> {
    let mut session = Config::new()
        .algorithm(job.algorithm)
        .threads(job.threads)
        .open_session(store, &job.trace)?;
    let detection = session.report()?;
    let report = detection.report();
    Ok(BatchSummary {
        path: detection.path.unwrap_or(DetectionPath::Cold),
        races: report.race_count(),
        observations: report.total_observations(),
        events: session.len(),
        digest: fnv1a64(report.to_string().as_bytes()),
    })
}

/// The paper's single pass: replays the (already validated) events once
/// through the configured observer, which maintains the reachability
/// structure alongside the access history. Serves one-shot replays and
/// every report of a session without a frozen form; the path is always
/// [`DetectionPath::Cold`].
///
/// SP-Bags has no transition for future constructs, so it refuses
/// futures-bearing traces; its conservative variant runs and marks the
/// verdict approximate.
fn sequential_detection(
    config: Config,
    trace: &Trace,
    summary: ExecutionSummary,
) -> Result<Detection<()>, Error> {
    if config.algorithm == Algorithm::SpBags && trace.has_futures() {
        return Err(Error::unsupported(
            "SP-Bags cannot consume traces that contain futures",
        ));
    }
    let mut observer = config.build_observer();
    {
        let _span = futurerd_obs::Span::enter(futurerd_obs::names::DETECT);
        futurerd_dag::trace::replay_events(trace.events(), &mut observer);
    }
    let Outcome {
        mut report,
        reach_stats,
        detector_stats,
    } = observer.into_outcome();
    if let Some(stats) = &reach_stats {
        stats.export_metrics("reach");
    }
    if let Some(stats) = &detector_stats {
        stats.export_metrics("detector");
    }
    if config.algorithm == Algorithm::SpBagsConservative && trace.has_futures() {
        // The conservative fallback folded futures into fork-join
        // constructs: the verdict is approximate by construction.
        if let Some(report) = report.as_mut() {
            report.mark_approximate();
        }
    }
    Ok(Detection {
        value: (),
        summary,
        config,
        report,
        reach_stats,
        detector_stats,
        path: Some(DetectionPath::Cold),
    })
}

/// Maps validated trace totals onto the executor's summary shape (replayed
/// traces do not record allocations).
fn summary_from_counts(counts: &TraceCounts) -> ExecutionSummary {
    ExecutionSummary {
        functions: counts.functions,
        strands: counts.strands,
        spawns: counts.spawns,
        creates: counts.creates,
        syncs: counts.syncs,
        gets: counts.gets,
        reads: counts.reads,
        writes: counts.writes,
        bytes_allocated: 0,
    }
}

/// Runs the parallel engine's detection workers on a work-stealing
/// [`ThreadPool`]: the facade's [`DetectExecutor`], plugged in by
/// [`Config::threads`] so that sharded trace detection — not just capture —
/// is scheduled by `futurerd-runtime`'s pool.
#[derive(Clone, Copy)]
pub struct PoolExecutor<'p>(pub &'p ThreadPool);

impl std::fmt::Debug for PoolExecutor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolExecutor")
            .field("threads", &self.0.num_threads())
            .finish()
    }
}

impl DetectExecutor for PoolExecutor<'_> {
    fn run_batch<'a>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'a>>) {
        self.0.run_batch(tasks);
    }
}

/// Runs `body` under full race detection with **MultiBags** — for programs
/// whose futures are *structured* (each future handle consumed by exactly
/// one `get_future`).
///
/// Shorthand for `Config::structured().run(body)`.
///
/// # Example
///
/// ```
/// let detection = futurerd::detect_structured(|cx| {
///     let mut cell = futurerd::ShadowCell::new(cx, 0u32);
///     cx.spawn(|cx| cell.set(cx, 1));
///     let racy = cell.get(cx); // logically parallel with the child's write
///     cx.sync();
///     racy
/// });
/// assert_eq!(detection.race_count(), 1);
/// ```
pub fn detect_structured<T>(body: impl FnOnce(&mut Cx) -> T) -> Detection<T> {
    Config::structured().run(body)
}

/// Runs `body` under full race detection with **MultiBags+** — required for
/// *general* futures (multi-touch via [`Cx::touch_future`], or handles
/// consumed far from their creating task).
///
/// Shorthand for `Config::general().run(body)`.
///
/// # Example
///
/// ```
/// let detection = futurerd::detect_general(|cx| {
///     let mut shared = cx.create_future(|_| 21u64);
///     // Touching a future twice is a *general* (multi-touch) pattern.
///     cx.touch_future(&mut shared) + cx.touch_future(&mut shared)
/// });
/// assert!(detection.is_race_free());
/// assert_eq!(detection.value, 42);
/// assert_eq!(detection.summary.gets, 2);
/// ```
pub fn detect_general<T>(body: impl FnOnce(&mut Cx) -> T) -> Detection<T> {
    Config::general().run(body)
}

/// The output of [`record`]: the program's value, its execution counters,
/// and the captured [`Trace`].
#[derive(Debug)]
pub struct Recorded<T> {
    /// The value returned by the program body.
    pub value: T,
    /// Execution counters (strands, futures, memory accesses, ...).
    pub summary: ExecutionSummary,
    /// The recorded event stream, in canonical serial-DF order.
    pub trace: Trace,
}

/// Runs `body` once while recording its execution event stream, without any
/// detection state. The returned [`Trace`] can be replayed through every
/// detector with [`Config::replay`] (or saved with [`Trace::save`] and
/// detected on later, offline) — record once, detect many times.
///
/// # Example
///
/// ```
/// use futurerd::{Algorithm, Config};
///
/// // Record the (racy) execution once...
/// let recorded = futurerd::record(|cx| {
///     let mut cell = futurerd::ShadowCell::new(cx, 0u32);
///     cx.spawn(|cx| cell.set(cx, 1));
///     let racy = cell.get(cx);
///     cx.sync();
///     racy
/// });
/// assert_eq!(recorded.summary.spawns, 1);
///
/// // ...then detect on the trace as many times as needed, with any
/// // algorithm, without re-running the program.
/// for algorithm in [Algorithm::MultiBags, Algorithm::MultiBagsPlus, Algorithm::GraphOracle] {
///     let detection = Config::new()
///         .algorithm(algorithm)
///         .replay(&recorded.trace)
///         .expect("recorded traces replay cleanly");
///     assert_eq!(detection.race_count(), 1);
/// }
/// ```
pub fn record<T>(body: impl FnOnce(&mut Cx) -> T) -> Recorded<T> {
    let (value, observer, summary) = run_program(AnyObserver::Recorder(TraceRecorder::new()), body);
    let AnyObserver::Recorder(recorder) = observer else {
        unreachable!("the observer variant does not change during a run")
    };
    Recorded {
        value,
        summary,
        trace: recorder.into_trace(),
    }
}

/// Everything a facade run produced: the program's value, execution
/// counters, and whatever detection state the configuration maintained.
#[derive(Debug)]
pub struct Detection<T> {
    /// The value returned by the program body.
    pub value: T,
    /// Execution counters (strands, futures, memory accesses, ...).
    pub summary: ExecutionSummary,
    /// The configuration that produced this detection.
    pub config: Config,
    /// The race report — present only under [`Analysis::Full`].
    pub report: Option<RaceReport>,
    /// Reachability work counters — present on every single-pass run
    /// ([`Config::run`], [`Config::replay`] at one detection thread or with
    /// an algorithm or analysis the engine does not shard, and session
    /// reports without a frozen form). Absent under [`Analysis::Baseline`],
    /// on threaded replays (each worker's counters are a replica of the
    /// same work, not a share of a total) and on the frozen-engine paths:
    /// the MultiBags / MultiBags+ full-detection sessions and stores (the
    /// freeze does not meter its reachability work).
    pub reach_stats: Option<ReachStats>,
    /// Access-history counters — present only under [`Analysis::Full`].
    /// On threaded and engine paths these are the workers' counters summed
    /// (equal to a sequential replay's on every field except
    /// `shadow_pages`, which counts per-worker tables).
    pub detector_stats: Option<DetectorStats>,
    /// How a replay/session/store request was served (`None` for live
    /// [`Config::run`] executions, which have nothing to route).
    pub path: Option<DetectionPath>,
}

impl<T> Detection<T> {
    /// True if no race was found (vacuously true for configurations that do
    /// not maintain an access history).
    pub fn is_race_free(&self) -> bool {
        self.report.as_ref().is_none_or(RaceReport::is_race_free)
    }

    /// Number of distinct racy granules found (0 when no access history was
    /// maintained).
    pub fn race_count(&self) -> usize {
        self.report.as_ref().map_or(0, RaceReport::race_count)
    }

    /// The race report; panics if the configuration did not maintain one
    /// (any [`Analysis`] other than [`Analysis::Full`]).
    pub fn report(&self) -> &RaceReport {
        self.report
            .as_ref()
            .expect("this configuration did not maintain an access history")
    }
}

/// The facade's dynamically selected observer: one variant per
/// analysis × algorithm combination (plus the baseline), so a runtime
/// [`Config`] choice maps onto the statically monomorphized detectors of
/// `futurerd-core`.
#[derive(Debug)]
#[allow(missing_docs)] // variant names mirror Config (analysis × algorithm)
pub enum AnyObserver {
    Baseline(NullObserver),
    /// Trace capture instead of detection; used by [`record`].
    Recorder(TraceRecorder),
    ReachMb(ReachabilityOnly<MultiBags>),
    ReachMbp(ReachabilityOnly<MultiBagsPlus>),
    ReachSp(ReachabilityOnly<SpBags>),
    ReachSpc(ReachabilityOnly<SpBagsConservative>),
    ReachOracle(ReachabilityOnly<GraphOracle>),
    InstrMb(InstrumentationOnly<MultiBags>),
    InstrMbp(InstrumentationOnly<MultiBagsPlus>),
    InstrSp(InstrumentationOnly<SpBags>),
    InstrSpc(InstrumentationOnly<SpBagsConservative>),
    InstrOracle(InstrumentationOnly<GraphOracle>),
    FullMb(RaceDetector<MultiBags>),
    FullMbp(RaceDetector<MultiBagsPlus>),
    FullSp(RaceDetector<SpBags>),
    FullSpc(RaceDetector<SpBagsConservative>),
    FullOracle(RaceDetector<GraphOracle>),
}

struct Outcome {
    report: Option<RaceReport>,
    reach_stats: Option<ReachStats>,
    detector_stats: Option<DetectorStats>,
}

impl AnyObserver {
    fn into_outcome(self) -> Outcome {
        let none = Outcome {
            report: None,
            reach_stats: None,
            detector_stats: None,
        };
        macro_rules! reach_only {
            ($obs:expr) => {
                Outcome {
                    reach_stats: Some($obs.stats()),
                    ..none
                }
            };
        }
        macro_rules! full {
            ($det:expr) => {{
                let (report, reach_stats, detector_stats) = $det.into_parts();
                Outcome {
                    report: Some(report),
                    reach_stats: Some(reach_stats),
                    detector_stats: Some(detector_stats),
                }
            }};
        }
        match self {
            AnyObserver::Baseline(_) => none,
            AnyObserver::Recorder(_) => none,
            AnyObserver::ReachMb(o) => reach_only!(o),
            AnyObserver::ReachMbp(o) => reach_only!(o),
            AnyObserver::ReachSp(o) => reach_only!(o),
            AnyObserver::ReachSpc(o) => reach_only!(o),
            AnyObserver::ReachOracle(o) => reach_only!(o),
            AnyObserver::InstrMb(o) => reach_only!(o),
            AnyObserver::InstrMbp(o) => reach_only!(o),
            AnyObserver::InstrSp(o) => reach_only!(o),
            AnyObserver::InstrSpc(o) => reach_only!(o),
            AnyObserver::InstrOracle(o) => reach_only!(o),
            AnyObserver::FullMb(d) => full!(d),
            AnyObserver::FullMbp(d) => full!(d),
            AnyObserver::FullSp(d) => full!(d),
            AnyObserver::FullSpc(d) => full!(d),
            AnyObserver::FullOracle(d) => full!(d),
        }
    }
}

macro_rules! each_observer {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            AnyObserver::Baseline($inner) => $body,
            AnyObserver::Recorder($inner) => $body,
            AnyObserver::ReachMb($inner) => $body,
            AnyObserver::ReachMbp($inner) => $body,
            AnyObserver::ReachSp($inner) => $body,
            AnyObserver::ReachSpc($inner) => $body,
            AnyObserver::ReachOracle($inner) => $body,
            AnyObserver::InstrMb($inner) => $body,
            AnyObserver::InstrMbp($inner) => $body,
            AnyObserver::InstrSp($inner) => $body,
            AnyObserver::InstrSpc($inner) => $body,
            AnyObserver::InstrOracle($inner) => $body,
            AnyObserver::FullMb($inner) => $body,
            AnyObserver::FullMbp($inner) => $body,
            AnyObserver::FullSp($inner) => $body,
            AnyObserver::FullSpc($inner) => $body,
            AnyObserver::FullOracle($inner) => $body,
        }
    };
}

impl Observer for AnyObserver {
    fn on_program_start(&mut self, root: FunctionId, first: StrandId) {
        each_observer!(self, o => o.on_program_start(root, first))
    }
    fn on_strand_start(&mut self, strand: StrandId, function: FunctionId) {
        each_observer!(self, o => o.on_strand_start(strand, function))
    }
    fn on_spawn(&mut self, ev: &SpawnEvent) {
        each_observer!(self, o => o.on_spawn(ev))
    }
    fn on_create_future(&mut self, ev: &CreateFutureEvent) {
        each_observer!(self, o => o.on_create_future(ev))
    }
    fn on_return(&mut self, function: FunctionId, last: StrandId) {
        each_observer!(self, o => o.on_return(function, last))
    }
    fn on_sync(&mut self, ev: &SyncEvent) {
        each_observer!(self, o => o.on_sync(ev))
    }
    fn on_get_future(&mut self, ev: &GetFutureEvent) {
        each_observer!(self, o => o.on_get_future(ev))
    }
    fn on_read(&mut self, strand: StrandId, addr: MemAddr, size: usize) {
        each_observer!(self, o => o.on_read(strand, addr, size))
    }
    fn on_write(&mut self, strand: StrandId, addr: MemAddr, size: usize) {
        each_observer!(self, o => o.on_write(strand, addr, size))
    }
    fn on_program_end(&mut self, last: StrandId) {
        each_observer!(self, o => o.on_program_end(last))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn racy_body(cx: &mut Cx) -> u32 {
        let mut cell = ShadowCell::new(cx, 0u32);
        cx.spawn(|cx| cell.set(cx, 1));
        let v = cell.get(cx); // races with the child's write
        cx.sync();
        v
    }

    #[test]
    fn structured_and_general_agree_on_a_simple_race() {
        let a = detect_structured(racy_body);
        let b = detect_general(racy_body);
        assert_eq!(a.race_count(), 1);
        assert_eq!(b.race_count(), 1);
        assert!(!a.is_race_free());
        assert_eq!(a.report().race_count(), 1);
    }

    #[test]
    fn every_full_algorithm_finds_the_seeded_race() {
        for algorithm in [
            Algorithm::MultiBags,
            Algorithm::MultiBagsPlus,
            Algorithm::SpBags, // pure fork-join body, so SP-Bags is exact here
            Algorithm::GraphOracle,
        ] {
            let d = Config::new().algorithm(algorithm).run(racy_body);
            assert_eq!(d.race_count(), 1, "{algorithm:?}");
            assert!(d.detector_stats.unwrap().read_checks > 0);
        }
    }

    #[test]
    fn baseline_maintains_no_state() {
        let d = Config::new().analysis(Analysis::Baseline).run(racy_body);
        assert!(d.report.is_none());
        assert!(d.reach_stats.is_none());
        assert!(d.detector_stats.is_none());
        assert!(d.is_race_free()); // vacuously
        assert_eq!(d.race_count(), 0);
        assert_eq!(d.summary.spawns, 1);
    }

    #[test]
    fn partial_analyses_expose_reachability_stats_only() {
        for analysis in [Analysis::Reachability, Analysis::Instrumentation] {
            let d = Config::general().analysis(analysis).run(racy_body);
            assert!(d.report.is_none());
            assert!(d.detector_stats.is_none());
            assert!(d.reach_stats.unwrap().dsu_ops() > 0, "{analysis:?}");
        }
    }

    #[test]
    #[should_panic(expected = "did not maintain an access history")]
    fn report_accessor_panics_without_access_history() {
        let d = Config::new().analysis(Analysis::Baseline).run(|_| ());
        let _ = d.report();
    }

    #[test]
    fn recorded_trace_replays_identically_to_direct_detection() {
        let direct = detect_structured(racy_body);
        let recorded = record(racy_body);
        assert_eq!(recorded.value, direct.value);
        assert_eq!(recorded.summary, direct.summary);
        let trace = Trace::from_bytes(&recorded.trace.to_bytes()).expect("codec round trip");
        for algorithm in [
            Algorithm::MultiBags,
            Algorithm::MultiBagsPlus,
            Algorithm::SpBags,
            Algorithm::GraphOracle,
        ] {
            let replayed = Config::new()
                .algorithm(algorithm)
                .replay(&trace)
                .expect("recorded traces are canonical");
            assert_eq!(replayed.race_count(), direct.race_count(), "{algorithm:?}");
            assert_eq!(
                replayed.report().witnesses(),
                direct.report().witnesses(),
                "{algorithm:?}"
            );
        }
    }

    #[test]
    fn replay_supports_partial_analyses() {
        let recorded = record(racy_body);
        let d = Config::general()
            .analysis(Analysis::Reachability)
            .replay(&recorded.trace)
            .unwrap();
        assert!(d.report.is_none());
        assert!(d.reach_stats.unwrap().dsu_ops() > 0);
    }

    #[test]
    fn replay_rejects_corrupt_traces() {
        let mut recorded = record(racy_body);
        recorded
            .trace
            .push(TraceEvent::ProgramEnd { last: StrandId(0) });
        assert!(Config::new().replay(&recorded.trace).is_err());
    }

    #[test]
    fn replay_refuses_spbags_on_futures_traces() {
        let recorded = record(|cx| {
            let fut = cx.create_future(|_| 1u32);
            cx.get_future(fut)
        });
        let err = Config::new()
            .algorithm(Algorithm::SpBags)
            .replay(&recorded.trace)
            .unwrap_err();
        assert!(err.is_unsupported(), "{err}");
        // The same trace replays fine on a fork-join-capable algorithm.
        assert!(Config::general().replay(&recorded.trace).is_ok());
    }

    #[test]
    fn threaded_replay_matches_sequential_replay() {
        let recorded = record(racy_body);
        for algorithm in [Algorithm::MultiBags, Algorithm::MultiBagsPlus] {
            let sequential = Config::new()
                .algorithm(algorithm)
                .replay(&recorded.trace)
                .unwrap();
            for threads in [2, 4] {
                let parallel = Config::new()
                    .algorithm(algorithm)
                    .threads(threads)
                    .replay(&recorded.trace)
                    .unwrap();
                assert_eq!(
                    parallel.report().witnesses(),
                    sequential.report().witnesses(),
                    "{algorithm:?} P={threads}"
                );
                assert_eq!(parallel.race_count(), sequential.race_count());
                assert_eq!(parallel.summary, sequential.summary);
            }
        }
    }

    #[test]
    fn threaded_replay_ignores_threads_for_partial_analyses() {
        let recorded = record(racy_body);
        let d = Config::general()
            .threads(4)
            .analysis(Analysis::Reachability)
            .replay(&recorded.trace)
            .unwrap();
        assert!(d.report.is_none());
        assert!(d.reach_stats.unwrap().dsu_ops() > 0);
    }

    #[test]
    fn conservative_spbags_runs_on_futures_and_is_marked_approximate() {
        let recorded = record(|cx| {
            let mut cell = ShadowCell::new(cx, 0u32);
            let fut = cx.create_future(|cx| cell.set(cx, 1));
            let racy = cell.get(cx); // races with the future's write
            cx.get_future(fut);
            racy
        });
        // Classic SP-Bags refuses the trace; the conservative fallback runs.
        assert!(Config::new()
            .algorithm(Algorithm::SpBags)
            .replay(&recorded.trace)
            .is_err());
        let d = Config::new()
            .algorithm(Algorithm::SpBagsConservative)
            .replay(&recorded.trace)
            .unwrap();
        assert!(d.report().is_approximate());
        // On a pure fork-join body the fallback is exact and unmarked.
        let d = Config::new()
            .algorithm(Algorithm::SpBagsConservative)
            .replay(&record(racy_body).trace)
            .unwrap();
        assert!(!d.report().is_approximate());
        assert_eq!(d.race_count(), 1);
    }

    #[test]
    fn general_futures_multi_touch_is_race_free_after_joins() {
        let d = detect_general(|cx| {
            let mut shared = cx.create_future(|cx| {
                let cell = ShadowCell::new(cx, 21u64);
                cell.get(cx)
            });
            let a = cx.touch_future(&mut shared);
            let b = cx.touch_future(&mut shared);
            a + b
        });
        assert!(d.is_race_free());
        assert_eq!(d.value, 42);
        assert_eq!(d.summary.gets, 2);
    }
}
