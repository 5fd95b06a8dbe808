//! Long-lived detection sessions: one streaming API over run, replay and
//! store. The module is private — [`Session`] (re-exported at the crate
//! root) carries the full routing-model documentation.

use crate::error::Error;
use crate::{sequential_detection, summary_from_counts, Analysis, Config, Detection, PoolExecutor};
use futurerd_core::parallel::{
    merge_outcomes_stats, Advance, DetectExecutor, IncrementalFreezer, PartitionSet, StdExecutor,
};
use futurerd_dag::source::EventSource;
use futurerd_dag::trace::{PrefixValidator, Trace, TraceEvent};
use futurerd_runtime::ThreadPool;
use futurerd_store::{DetectionPath, Store};

/// The engine half of a session: the resident freezer plus the pass-2
/// partitions it keeps between reports.
#[derive(Debug)]
struct EngineState {
    freezer: IncrementalFreezer,
    /// The pass-2 partitions of the last report (or the sidecar's cached
    /// outcomes), covering their first `detected()` granule accesses;
    /// `None` before the first detection.
    partitions: Option<PartitionSet>,
    /// Stream position the partitions cover (for append accounting).
    detected_pos: usize,
    /// True once the resident index is not this session's fresh build: it
    /// came from a persisted sidecar, or it already served a report.
    warm: bool,
}

/// A long-lived, incrementally-fed detection session — one streaming API
/// over run, replay and store.
///
/// Open one from a [`Config`] ([`Config::session`], ephemeral) or from a
/// [`Store`] entry ([`Config::open_session`], persistent),
/// [`ingest`](Session::ingest) event chunks as the observed execution
/// grows, and ask for a [`report`](Session::report) at any point. Each
/// report is served from the cheapest valid path and says which one it
/// took ([`Session::last_path`], [`Detection::path`]):
///
/// * **warm-cached** — nothing was appended since the last report: the
///   cached per-partition outcomes merge straight into the report;
/// * **incremental** — the session's resident freezer has already absorbed
///   the ingested suffix (freezing is *live*, spread over the appends,
///   never repeated), and the detection partitions whose granule ranges
///   the suffix touched *resume*: each keeps its access history between
///   reports, as the paper's online detector does, and scans only the
///   appended accesses. Partitions loaded from a sidecar carry no history
///   and are rebuilt once, when first touched; re-partitioning once the
///   access histogram drifts past
///   [`REBALANCE_DRIFT_FACTOR`](futurerd_core::parallel::REBALANCE_DRIFT_FACTOR)
///   rebuilds the partitions whose ranges changed. A report borrows the
///   freezer's frozen index in place, so an append costs its own accesses
///   plus the freeze of its own events;
/// * **warm-index / cold** — first report of a stored (resp. fresh)
///   stream.
///
/// The report is **byte-identical** to one-shot [`Config::replay`] of the
/// concatenated trace, for any chunking, at any thread count — the
/// property tests assert this over random chunkings down to single events.
///
/// Algorithms without a frozen reachability form (the SP-Bags variants and
/// the graph oracle) and partial analysis levels fall back to sequential
/// replay of the accumulated trace on every report: always correct, never
/// incremental — the reported path stays [`DetectionPath::Cold`].
pub struct Session<'s> {
    config: Config,
    validator: PrefixValidator,
    trace: Trace,
    engine: Option<EngineState>,
    /// Store binding of a persistent session (plus its entry name).
    store: Option<(&'s mut Store, String)>,
    /// Events ingested since the session state was last persisted.
    dirty: bool,
    last_path: Option<DetectionPath>,
    /// Wall time spent inside [`Session::ingest`] while observability
    /// recording was enabled — feeds the `session.ingest.events_per_sec`
    /// gauge. Stays zero (and costs nothing) when recording is off.
    ingest_ns: u64,
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("config", &self.config)
            .field("events", &self.validator.position())
            .field("complete", &self.validator.is_complete())
            .field("stored", &self.store.as_ref().map(|(_, name)| name))
            .field("last_path", &self.last_path)
            .finish_non_exhaustive()
    }
}

impl Config {
    /// Opens an **ephemeral** detection session for this configuration: all
    /// state lives in memory and dies with the session.
    ///
    /// Full-detection MultiBags / MultiBags+ sessions keep a resident
    /// incremental freezer and resident pass-2 partitions, so repeated
    /// [`Session::report`] calls across [`Session::ingest`]s never re-freeze
    /// already-seen events nor re-detect already-seen accesses. Other
    /// algorithms and partial analyses replay sequentially per report.
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
    /// let mut session = Config::structured().session();
    /// for event in recorded.trace.events() {
    ///     session.ingest(std::slice::from_ref(event)).unwrap();
    /// }
    /// let detection = session.report().unwrap();
    /// assert_eq!(detection.race_count(), 1);
    /// ```
    pub fn session(self) -> Session<'static> {
        let engine = (self.analysis == Analysis::Full)
            .then(|| IncrementalFreezer::new(self.algorithm))
            .flatten()
            .map(|freezer| EngineState {
                freezer,
                partitions: None,
                detected_pos: 0,
                warm: false,
            });
        Session {
            config: self,
            validator: PrefixValidator::new(),
            trace: Trace::new(),
            engine,
            store: None,
            dirty: false,
            last_path: None,
            ingest_ns: 0,
        }
    }

    /// Opens a **persistent** detection session on a [`Store`] entry.
    ///
    /// The session resumes from the entry's `FRDIDX` sidecar when one is
    /// valid (so a re-opened session starts warm, not cold), keeps the
    /// freezer resident across [`Session::ingest`]s, and persists refreshed
    /// state back to the store on every [`Session::report`] that changed
    /// it: the freezer and the partition outcomes, plus the trace when the
    /// session ingested events. Stored outcomes carry no shadow state: the
    /// first report after an append rebuilds the partitions the append
    /// touched, and later reports resume them. The store's
    /// [`stats`](Store::stats) account every report the session serves.
    ///
    /// Persistent sessions are full-detection only and need a freezable
    /// algorithm: partial analyses return [`Error::Unsupported`] and the
    /// SP-Bags variants / graph oracle return the store's
    /// [`Unfreezable`](futurerd_store::StoreError::Unfreezable) error.
    pub fn open_session<'s>(self, store: &'s mut Store, name: &str) -> Result<Session<'s>, Error> {
        if self.analysis != Analysis::Full {
            return Err(Error::unsupported(
                "persistent sessions always run full detection; \
                 use Config::replay (or an ephemeral session) for partial analyses",
            ));
        }
        let state = store.open_session_state(name, self.algorithm)?;
        let warm = state.freezer.is_some();
        let mut freezer = match state.freezer {
            Some(freezer) => freezer,
            None => IncrementalFreezer::new(self.algorithm).expect("open_session_state checked"),
        };
        let frozen_pos = freezer.position() as usize;
        // Stored outcomes carry no shadow state: they enter as cached
        // partitions, rebuilt once when an append first touches them.
        let partitions = state
            .outcomes
            .map(|outcomes| PartitionSet::cached(outcomes, freezer.accesses().len()));
        let mut validator = PrefixValidator::new();
        validator.extend(state.trace.events())?;
        freezer.extend(&state.trace.events()[frozen_pos..]);
        Ok(Session {
            config: self,
            validator,
            trace: state.trace,
            engine: Some(EngineState {
                freezer,
                partitions,
                // With no cached outcomes the resumed *index* still covers
                // the frozen prefix — append accounting starts there.
                detected_pos: frozen_pos,
                warm,
            }),
            store: Some((store, name.to_string())),
            dirty: false,
            last_path: None,
            ingest_ns: 0,
        })
    }
}

impl Session<'_> {
    /// The configuration this session detects under.
    pub fn config(&self) -> Config {
        self.config
    }

    /// Number of events ingested so far.
    pub fn len(&self) -> usize {
        self.validator.position()
    }

    /// True if no events have been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once the stream has reached its `ProgramEnd` — further ingests
    /// will be rejected by validation.
    pub fn is_complete(&self) -> bool {
        self.validator.is_complete()
    }

    /// The accumulated event stream.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// How the most recent [`Session::report`] was served, if one ran.
    pub fn last_path(&self) -> Option<DetectionPath> {
        self.last_path
    }

    /// Ingests the next chunk of the execution's event stream.
    ///
    /// The chunk is validated as the continuation of the canonical
    /// serial-DF prefix seen so far (the validator is session state — each
    /// event is validated exactly once, however many chunks the stream
    /// arrives in) and fed straight into the resident freezer. Ingest does
    /// **no detection work** beyond the freeze; call
    /// [`report`](Session::report) when a verdict is wanted.
    ///
    /// On a validation error the chunk's valid prefix is retained, the
    /// offending event and everything after it are dropped, and the session
    /// refuses further ingests (the stream is corrupt at a known
    /// position); reports on the retained prefix remain available.
    pub fn ingest(&mut self, events: &[TraceEvent]) -> Result<(), Error> {
        if events.is_empty() {
            return Ok(());
        }
        let started = futurerd_obs::enabled().then(std::time::Instant::now);
        let before = self.validator.position();
        let result = {
            let _span = futurerd_obs::Span::enter(futurerd_obs::names::VALIDATE);
            self.validator.extend(events)
        };
        let accepted = &events[..self.validator.position() - before];
        if !accepted.is_empty() {
            self.trace.extend_events(accepted);
            if let Some(engine) = &mut self.engine {
                engine.freezer.extend(accepted);
            }
            self.dirty = true;
        }
        if let Some(started) = started {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.ingest_ns = self.ingest_ns.saturating_add(ns);
            futurerd_obs::counter_add(
                futurerd_obs::names::SESSION_INGEST_EVENTS,
                accepted.len() as u64,
            );
            if self.ingest_ns > 0 {
                let rate = (self.validator.position() as u128).saturating_mul(1_000_000_000)
                    / u128::from(self.ingest_ns);
                futurerd_obs::gauge_set(
                    futurerd_obs::names::SESSION_INGEST_EVENTS_PER_SEC,
                    u64::try_from(rate).unwrap_or(u64::MAX),
                );
            }
        }
        result?;
        Ok(())
    }

    /// Drains an [`EventSource`] into the session: a whole [`Trace`], a
    /// chunk queue, or a live
    /// [`TraceRecorder`](futurerd_runtime::trace::TraceRecorder). Returns
    /// the number of events ingested.
    pub fn ingest_from(&mut self, source: &mut impl EventSource) -> Result<usize, Error> {
        let mut total = 0;
        loop {
            let chunk = source.take_events();
            if chunk.is_empty() {
                return Ok(total);
            }
            total += chunk.len();
            self.ingest(&chunk)?;
        }
    }

    /// Detects races on everything ingested so far and returns the
    /// [`Detection`], with [`Detection::path`] saying how the request was
    /// served. The report is byte-identical to one-shot
    /// [`Config::replay`] of the accumulated trace.
    ///
    /// Incomplete streams are fine: a report on a prefix reflects the
    /// execution so far and a later report continues incrementally from it.
    pub fn report(&mut self) -> Result<Detection<()>, Error> {
        let counts = self.validator.counts();
        let summary = summary_from_counts(&counts);
        let detection = match self.engine.take() {
            Some(engine) => {
                // The engine (resident freezer + caches) goes back into the
                // session whether or not the report succeeded: a transient
                // failure (e.g. persisting to a full disk) must not degrade
                // every later report to a cold sequential replay.
                let (engine, result) = self.engine_report(engine, summary);
                self.engine = Some(engine);
                result?
            }
            None => self.sequential_report(summary)?,
        };
        self.last_path = detection.path;
        Ok(detection)
    }

    /// The engine path: resident freezer + sharded pass 2 over resident
    /// partitions, routed warm-cached → incremental → warm-index/cold.
    /// Always hands the engine back, even on error.
    fn engine_report(
        &mut self,
        mut engine: EngineState,
        summary: futurerd_runtime::exec::ExecutionSummary,
    ) -> (EngineState, Result<Detection<()>, Error>) {
        let started = futurerd_obs::recording().then(std::time::Instant::now);
        let threads = self.config.threads;
        let shared_pool = (threads > 1).then(|| ThreadPool::shared(threads));
        let executor = match &shared_pool {
            Some(pool) => AnyExec::Pool(PoolExecutor(pool)),
            None => AnyExec::Std(StdExecutor),
        };

        let appended_events = self.validator.position() - engine.detected_pos;
        let first = engine.partitions.is_none();
        let partitions = engine.partitions.get_or_insert_with(PartitionSet::new);
        let path = if !first && appended_events == 0 {
            // Nothing was appended since the partitions last advanced.
            DetectionPath::WarmCached
        } else {
            // Pass 2 over the index the freezer lends in place: resident
            // partitions resume over the appended accesses, the first
            // detection partitions the whole stream. An append without
            // accesses reruns nothing but is still incremental, so a stored
            // session persists the freezer that absorbed it.
            let Advance {
                rerun,
                resumed,
                reused,
                rebalanced,
            } = engine.freezer.with_index(|index, accesses| {
                partitions.advance(index, accesses, threads, &executor)
            });
            if first && !engine.warm {
                DetectionPath::Cold
            } else if first && appended_events == 0 {
                DetectionPath::WarmIndex
            } else {
                DetectionPath::Incremental {
                    appended_events,
                    rerun,
                    reused,
                    resumed,
                    rebalanced,
                }
            }
        };

        let outcomes = partitions.outcomes();
        let (report, detector_stats) = merge_outcomes_stats(outcomes.iter().cloned());
        if let Some(started) = started {
            // The report's compute time, attributed to the path the routing
            // chose — span names must be `'static`, so map the kind onto
            // the fixed `session.report.*` stage set. `record_stage` feeds
            // both the aggregate stats and the interval journal.
            let stage = match path {
                DetectionPath::Cold => futurerd_obs::names::SESSION_REPORT_COLD,
                DetectionPath::WarmIndex => futurerd_obs::names::SESSION_REPORT_WARM_INDEX,
                DetectionPath::WarmCached => futurerd_obs::names::SESSION_REPORT_WARM_CACHED,
                DetectionPath::Incremental { .. } => {
                    futurerd_obs::names::SESSION_REPORT_INCREMENTAL
                }
            };
            futurerd_obs::record_stage(stage, started);
            futurerd_obs::counter_add(&format!("session.path.{}", path.kind_key()), 1);
            detector_stats.export_metrics("detector");
            if let AnyExec::Pool(PoolExecutor(pool)) = &executor {
                pool.export_worker_metrics("pool");
            }
        }
        let mut persist_error = None;
        if let Some((store, name)) = &mut self.store {
            store.record_path(path);
            if self.dirty || path != DetectionPath::WarmCached {
                persist_error = store
                    .persist_session(name, &self.trace, self.dirty, &engine.freezer, outcomes)
                    .err();
            }
            store.stats().export_metrics("store");
        }
        // The partitions stay resident regardless: the in-memory state is
        // valid even when writing it to disk failed, so the session keeps
        // reporting incrementally (and keeps `dirty`, so the next
        // successful report persists everything).
        engine.detected_pos = self.validator.position();
        engine.warm = true;
        if let Some(error) = persist_error {
            return (engine, Err(error.into()));
        }
        self.dirty = false;

        let detection = Detection {
            value: (),
            summary,
            config: self.config,
            report: Some(report),
            reach_stats: None,
            detector_stats: Some(detector_stats),
            path: Some(path),
        };
        (engine, Ok(detection))
    }

    /// The fallback path: replay the accumulated trace through the
    /// configured observer from scratch — always correct, never
    /// incremental.
    fn sequential_report(
        &mut self,
        summary: futurerd_runtime::exec::ExecutionSummary,
    ) -> Result<Detection<()>, Error> {
        let started = futurerd_obs::recording().then(std::time::Instant::now);
        let detection = sequential_detection(self.config, &self.trace, summary)?;
        if let Some(started) = started {
            futurerd_obs::record_stage(futurerd_obs::names::SESSION_REPORT_COLD, started);
            futurerd_obs::counter_add("session.path.cold", 1);
        }
        Ok(detection)
    }
}

/// The session's runtime executor choice: the shared pool when detection
/// is parallel, scoped threads otherwise.
enum AnyExec<'p> {
    Pool(PoolExecutor<'p>),
    Std(StdExecutor),
}

impl DetectExecutor for AnyExec<'_> {
    fn run_batch<'a>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'a>>) {
        match self {
            AnyExec::Pool(pool) => pool.run_batch(tasks),
            AnyExec::Std(std) => std.run_batch(tasks),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{record, Algorithm, Cx, ShadowCell};
    use futurerd_dag::source::ChunkedEvents;
    use futurerd_dag::{FunctionId, MemAddr, StrandId};

    fn racy_body(cx: &mut Cx) -> u32 {
        let mut cell = ShadowCell::new(cx, 0u32);
        cx.spawn(|cx| cell.set(cx, 1));
        let v = cell.get(cx);
        cx.sync();
        v
    }

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!(
            "futurerd-session-test-{}-{tag}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        Store::open(dir).expect("store opens")
    }

    #[test]
    fn chunked_ingest_matches_one_shot_replay() {
        let recorded = record(racy_body);
        let one_shot = Config::structured().replay(&recorded.trace).unwrap();
        for chunk_size in [1, 3, recorded.trace.len()] {
            let mut session = Config::structured().session();
            for chunk in recorded.trace.events().chunks(chunk_size) {
                session.ingest(chunk).unwrap();
            }
            assert!(session.is_complete());
            let detection = session.report().unwrap();
            assert_eq!(
                detection.report().to_string(),
                one_shot.report().to_string(),
                "chunk size {chunk_size}"
            );
            assert_eq!(detection.summary, one_shot.summary);
            assert_eq!(detection.path, Some(DetectionPath::Cold));
        }
    }

    #[test]
    fn live_session_never_refreezes_across_appends() {
        let recorded = record(racy_body);
        let events = recorded.trace.events();
        let cut = events.len() / 2;
        let mut session = Config::structured().session();

        session.ingest(&events[..cut]).unwrap();
        let first = session.report().unwrap();
        assert_eq!(first.path, Some(DetectionPath::Cold));

        session.ingest(&events[cut..]).unwrap();
        let second = session.report().unwrap();
        assert!(
            matches!(second.path, Some(DetectionPath::Incremental { .. })),
            "{:?}",
            second.path
        );
        // A report with nothing new ingested is fully cached.
        let third = session.report().unwrap();
        assert_eq!(third.path, Some(DetectionPath::WarmCached));
        assert_eq!(session.last_path(), third.path);

        let one_shot = Config::structured().replay(&recorded.trace).unwrap();
        for d in [&second, &third] {
            assert_eq!(d.report().to_string(), one_shot.report().to_string());
        }
    }

    #[test]
    fn ingest_from_drains_chunk_queues_and_recorders() {
        let recorded = record(racy_body);
        let expected = Config::structured().replay(&recorded.trace).unwrap();

        let mut chunks = ChunkedEvents::new();
        for chunk in recorded.trace.events().chunks(2) {
            chunks.push_chunk(chunk.to_vec());
        }
        let mut session = Config::structured().session();
        let n = session.ingest_from(&mut chunks).unwrap();
        assert_eq!(n, recorded.trace.len());
        assert_eq!(
            session.report().unwrap().report().to_string(),
            expected.report().to_string()
        );

        // A whole Trace is a source too.
        let mut trace = record(racy_body).trace;
        let mut session = Config::structured().session();
        session.ingest_from(&mut trace).unwrap();
        assert!(trace.is_empty());
        assert_eq!(session.report().unwrap().race_count(), 1);
    }

    #[test]
    fn invalid_chunks_poison_the_session() {
        let mut session = Config::structured().session();
        let recorded = record(racy_body);
        session.ingest(recorded.trace.events()).unwrap();
        // The stream is complete: anything further violates the invariant.
        let err = session
            .ingest(&[TraceEvent::ProgramEnd { last: StrandId(0) }])
            .unwrap_err();
        assert!(err.is_trace(), "{err}");
        assert!(session
            .ingest(&[TraceEvent::ProgramEnd { last: StrandId(0) }])
            .is_err());
        // The last good state still reports.
        assert_eq!(session.report().unwrap().race_count(), 1);
    }

    #[test]
    fn stored_sessions_resume_warm_and_persist_appends() {
        let recorded = record(racy_body);
        let events = recorded.trace.events();
        let cut = events.len() / 2;
        let mut prefix = Trace::new();
        prefix.extend_events(&events[..cut]);

        let mut store = temp_store("resume");
        store.put_trace("grow", &prefix).unwrap();

        // First session: cold, then ingest the rest incrementally.
        let mut session = Config::structured()
            .open_session(&mut store, "grow")
            .unwrap();
        assert_eq!(session.len(), cut);
        let first = session.report().unwrap();
        assert_eq!(first.path, Some(DetectionPath::Cold));
        session.ingest(&events[cut..]).unwrap();
        let second = session.report().unwrap();
        assert!(
            matches!(second.path, Some(DetectionPath::Incremental { .. })),
            "{:?}",
            second.path
        );
        drop(session);

        // Re-opened session resumes from the persisted sidecar: no freeze,
        // no detection — the first report is fully cached.
        let mut session = Config::structured()
            .open_session(&mut store, "grow")
            .unwrap();
        assert!(session.is_complete(), "appends were persisted");
        let third = session.report().unwrap();
        assert_eq!(third.path, Some(DetectionPath::WarmCached));
        drop(session);

        let one_shot = Config::structured().replay(&recorded.trace).unwrap();
        assert_eq!(second.report().to_string(), one_shot.report().to_string());
        assert_eq!(third.report().to_string(), one_shot.report().to_string());

        // The store accounted the session traffic: exactly one cold freeze
        // over the whole life of the entry.
        let stats = store.stats();
        assert_eq!(stats.cold_freezes, 1);
        assert_eq!(stats.incremental_refreezes, 1);
        assert_eq!(stats.warm_cached_hits, 1);
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn stored_sessions_require_full_analysis_and_freezable_algorithms() {
        let mut store = temp_store("reject");
        store.put_trace("t", &record(racy_body).trace).unwrap();
        let err = Config::structured()
            .analysis(Analysis::Reachability)
            .open_session(&mut store, "t")
            .expect_err("partial analyses have no stored index");
        assert!(err.is_unsupported(), "{err}");
        let err = Config::new()
            .algorithm(Algorithm::GraphOracle)
            .open_session(&mut store, "t")
            .expect_err("no frozen form");
        assert!(err.is_store(), "{err}");
        std::fs::remove_dir_all(store.root()).ok();
    }

    /// A synthetic single-strand trace: `ProgramStart`/`StrandStart`, then
    /// one write per address in `addrs` (still executing — a canonical
    /// prefix, extendable).
    fn write_prefix(addrs: &[u64]) -> Vec<TraceEvent> {
        let mut events = vec![
            TraceEvent::ProgramStart {
                root: FunctionId(0),
                first: StrandId(0),
            },
            TraceEvent::StrandStart {
                strand: StrandId(0),
                function: FunctionId(0),
            },
        ];
        events.extend(addrs.iter().map(|&a| TraceEvent::Write {
            strand: StrandId(0),
            addr: MemAddr(a),
            size: 4,
        }));
        events
    }

    #[test]
    fn histogram_drift_triggers_partition_rebalancing() {
        let g = MemAddr::GRANULARITY;
        // 40 granules touched once: P=4 partitions of ~10 accesses each.
        let spread: Vec<u64> = (0..40u64).map(|i| i * g).collect();
        let mut session = Config::structured().threads(4).session();
        session.ingest(&write_prefix(&spread)).unwrap();
        let first = session.report().unwrap();
        assert_eq!(first.path, Some(DetectionPath::Cold));

        // Hammer one granule: the first partition's load drifts far past
        // its fair share, so the session re-partitions.
        let hot: Vec<TraceEvent> = (0..100)
            .map(|_| TraceEvent::Write {
                strand: StrandId(0),
                addr: MemAddr(0),
                size: 4,
            })
            .collect();
        session.ingest(&hot).unwrap();
        let second = session.report().unwrap();
        match second.path {
            Some(DetectionPath::Incremental { rebalanced, .. }) => {
                assert!(rebalanced, "{:?}", second.path)
            }
            other => panic!("expected incremental, got {other:?}"),
        }
        // Identical answer regardless: single-strand writes are race-free.
        assert!(second.is_race_free());

        // A balanced append in a fresh session does not re-partition.
        let mut session = Config::structured().threads(4).session();
        session.ingest(&write_prefix(&spread)).unwrap();
        session.report().unwrap();
        let mild: Vec<TraceEvent> = [5u64, 15, 25, 35]
            .map(|granule| TraceEvent::Write {
                strand: StrandId(0),
                addr: MemAddr(granule * g),
                size: 4,
            })
            .into();
        session.ingest(&mild).unwrap();
        let third = session.report().unwrap();
        match third.path {
            Some(DetectionPath::Incremental { rebalanced, .. }) => {
                assert!(!rebalanced, "{:?}", third.path)
            }
            other => panic!("expected incremental, got {other:?}"),
        }
    }

    #[test]
    fn threaded_detections_aggregate_detector_stats() {
        let recorded = record(racy_body);
        let sequential = Config::new()
            .algorithm(Algorithm::GraphOracle)
            .replay(&recorded.trace)
            .unwrap();
        let seq_stats = sequential.detector_stats.unwrap();
        for threads in [1, 4] {
            let parallel = Config::structured()
                .threads(threads)
                .replay(&recorded.trace)
                .unwrap();
            let par_stats = parallel
                .detector_stats
                .expect("engine paths aggregate partition counters");
            assert_eq!(par_stats.read_checks, seq_stats.read_checks, "P={threads}");
            assert_eq!(par_stats.write_checks, seq_stats.write_checks);
            assert_eq!(par_stats.readers_recorded, seq_stats.readers_recorded);
            assert_eq!(par_stats.readers_cleared, seq_stats.readers_cleared);
            assert_eq!(par_stats.races_found, seq_stats.races_found);
            assert!(par_stats.shadow_pages >= seq_stats.shadow_pages);
        }
    }

    #[test]
    fn fallback_algorithms_session_and_error_semantics() {
        // Oracle sessions replay sequentially per report (always Cold).
        let recorded = record(racy_body);
        let mut session = Config::new().algorithm(Algorithm::GraphOracle).session();
        session.ingest(recorded.trace.events()).unwrap();
        let d = session.report().unwrap();
        assert_eq!(d.path, Some(DetectionPath::Cold));
        assert_eq!(d.race_count(), 1);
        assert!(d.reach_stats.is_some(), "sequential paths keep full stats");

        // SP-Bags refuses futures at report time with the unified error.
        let futures = record(|cx| {
            let fut = cx.create_future(|_| 1u32);
            cx.get_future(fut)
        });
        let mut session = Config::new().algorithm(Algorithm::SpBags).session();
        session.ingest(futures.trace.events()).unwrap();
        assert!(session.report().unwrap_err().is_unsupported());
    }

    #[test]
    fn partial_analysis_replay_stored_is_honored_not_upgraded() {
        let mut store = temp_store("partial");
        store.put_trace("t", &record(racy_body).trace).unwrap();
        let d = Config::general()
            .analysis(Analysis::Reachability)
            .replay_stored(&mut store, "t")
            .unwrap();
        // The requested partial analysis ran: no race report, but
        // reachability stats — previously this silently ran full detection.
        assert!(d.report.is_none());
        assert!(d.reach_stats.unwrap().dsu_ops() > 0);
        // And no sidecar was written for it.
        assert!(!store.sidecar_path("t", Algorithm::MultiBagsPlus).exists());
        std::fs::remove_dir_all(store.root()).ok();
    }
}
