//! # futurerd-store — the persistent detection store
//!
//! Recording once and detecting many times still pays the **freeze** —
//! pass 1 of the parallel engine — on every replay. This crate keeps the
//! bytes that let a later request skip it:
//!
//! * **traces** ([`Store::put_trace`], [`Store::append_events`],
//!   [`Store::load_trace`]): `<name>.trace` holds a recorded, possibly still
//!   growing event stream, validated as a canonical prefix on every write;
//! * **`FRDIDX` sidecars** ([`codec`]): the frozen
//!   [`ReachIndex`](futurerd_core::parallel::ReachIndex) timelines, the
//!   freeze *resume state* and the cached per-partition detection outcomes
//!   serialize to a checksummed LEB128 sidecar per trace and algorithm.
//!   [`Store::open_session_state`] loads and binds one, rebuilding the
//!   granule access stream from the trace prefix it binds to (the sidecar
//!   does not copy it); [`Store::persist_session`] writes one back;
//! * **accounting** ([`Store::record_path`], [`StoreStats`]): how the
//!   requests on this store were served;
//! * **the batch manifest** ([`BatchManifest`], written to
//!   [`Store::manifest_path`]).
//!
//! The store detects nothing itself. The `futurerd` facade's persistent
//! session (`Config::open_session`, `Config::replay_stored`) routes every
//! stored request, and `futurerd::run_batch` serves each batch job as one
//! such session.
//!
//! ## Invalidation rules
//!
//! A sidecar binds to its trace by a hash of the event prefix it was frozen
//! from. [`Store::open_session_state`] hands a session:
//!
//! * the frozen state and cached outcomes when the hash matches the whole
//!   trace (the session reports **warm**) or a strict prefix of it (the
//!   session refreezes the suffix and reports **incremental**);
//! * no frozen state otherwise — a rewritten trace, a different algorithm,
//!   a corrupt or truncated sidecar — so the session freezes from scratch
//!   (**cold**) and rewrites the sidecar.
//!
//! ```
//! use futurerd_core::parallel::{detect_frozen_outcomes, IncrementalFreezer, StdExecutor};
//! use futurerd_core::replay::ReplayAlgorithm;
//! use futurerd_store::Store;
//!
//! # fn trace() -> futurerd_dag::trace::Trace {
//! #     use futurerd_dag::trace::{Trace, TraceEvent};
//! #     use futurerd_dag::{FunctionId, StrandId};
//! #     let mut t = Trace::new();
//! #     t.push(TraceEvent::ProgramStart { root: FunctionId(0), first: StrandId(0) });
//! #     t.push(TraceEvent::StrandStart { strand: StrandId(0), function: FunctionId(0) });
//! #     t.push(TraceEvent::Return { function: FunctionId(0), last: StrandId(0) });
//! #     t.push(TraceEvent::ProgramEnd { last: StrandId(0) });
//! #     t
//! # }
//! let dir = std::env::temp_dir().join(format!("frd-doc-{}", std::process::id()));
//! let mut store = Store::open(&dir).unwrap();
//! let trace = trace();
//! store.put_trace("example", &trace).unwrap();
//! let algorithm = ReplayAlgorithm::MultiBags;
//! // No sidecar yet: a session on this entry starts cold.
//! assert!(store.open_session_state("example", algorithm).unwrap().freezer.is_none());
//!
//! // Persist what a session's first report leaves behind...
//! let mut freezer = IncrementalFreezer::new(algorithm).unwrap();
//! freezer.extend(trace.events());
//! let outcomes = freezer
//!     .with_index(|index, accesses| detect_frozen_outcomes(index, accesses, 1, &StdExecutor));
//! store.persist_session("example", &trace, false, &freezer, outcomes).unwrap();
//!
//! // ...and the next open resumes from it.
//! let state = store.open_session_state("example", algorithm).unwrap();
//! assert_eq!(state.freezer.unwrap().position() as usize, trace.len());
//! assert!(state.outcomes.is_some());
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;

use futurerd_core::parallel::{IncrementalFreezer, PartitionOutcome};
use futurerd_core::replay::ReplayAlgorithm;
use futurerd_dag::trace::{Trace, TraceCounts, TraceError, TraceEvent};
use std::io;
use std::path::{Path, PathBuf};

pub use codec::{decode_sidecar, encode_sidecar, Sidecar, INDEX_MAGIC, INDEX_VERSION};

/// Errors produced by the detection store.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O error.
    Io(io::Error),
    /// The trace file is invalid (codec or canonical-ordering failure).
    Trace(TraceError),
    /// A sidecar does not start with [`INDEX_MAGIC`].
    BadMagic,
    /// A sidecar's format version is not supported.
    UnsupportedVersion(u32),
    /// A sidecar's payload does not hash to its header checksum.
    Checksum {
        /// The checksum stored in the header.
        expected: u64,
        /// The checksum computed over the payload.
        found: u64,
    },
    /// A sidecar ended in the middle of a field.
    Truncated,
    /// A sidecar continues past its declared contents.
    TrailingData,
    /// A varint field does not fit its integer width.
    FieldOverflow,
    /// A sidecar decoded but is structurally inconsistent.
    Corrupt(String),
    /// The named trace does not exist in the store.
    UnknownTrace(String),
    /// Trace names must be non-empty and `[A-Za-z0-9_-]` only (they become
    /// file stems).
    InvalidName(String),
    /// The algorithm has no frozen reachability form, so the store cannot
    /// persist an index for it (SP-Bags variants and the graph oracle).
    Unfreezable(ReplayAlgorithm),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Trace(e) => write!(f, "trace error: {e}"),
            StoreError::BadMagic => write!(f, "not a futurerd index sidecar (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported sidecar version {v} (expected {INDEX_VERSION})")
            }
            StoreError::Checksum { expected, found } => write!(
                f,
                "sidecar checksum mismatch: header says {expected:#018x}, payload hashes to {found:#018x}"
            ),
            StoreError::Truncated => write!(f, "sidecar truncated mid-field"),
            StoreError::TrailingData => write!(f, "sidecar continues past its declared contents"),
            StoreError::FieldOverflow => write!(f, "varint field exceeds its integer width"),
            StoreError::Corrupt(message) => write!(f, "corrupt sidecar: {message}"),
            StoreError::UnknownTrace(name) => write!(f, "no trace named '{name}' in the store"),
            StoreError::InvalidName(name) => {
                write!(f, "invalid trace name '{name}' (use [A-Za-z0-9_-])")
            }
            StoreError::Unfreezable(algorithm) => write!(
                f,
                "{algorithm} has no frozen reachability form; the store only serves freezable algorithms"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<TraceError> for StoreError {
    fn from(e: TraceError) -> Self {
        StoreError::Trace(e)
    }
}

/// Hashes an event prefix (a word-folded FNV-style hash over a canonical
/// field rendering, no allocation) — the binding between a sidecar and the
/// trace it was frozen from. Runs on every sidecar load and write, so it
/// must be a small fraction of the detection it guards.
pub fn hash_events(events: &[TraceEvent]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325 ^ (events.len() as u64);
    let mut fold = |word: u64| hash = (hash ^ word).wrapping_mul(PRIME);
    let pair = |a: u32, b: u32| u64::from(a) | (u64::from(b) << 32);
    for event in events {
        match event {
            TraceEvent::ProgramStart { root, first } => {
                fold(0);
                fold(pair(root.0, first.0));
            }
            TraceEvent::StrandStart { strand, function } => {
                fold(1);
                fold(pair(strand.0, function.0));
            }
            TraceEvent::Spawn(ev) => {
                fold(2);
                fold(pair(ev.parent.0, ev.child.0));
                fold(pair(ev.fork_strand.0, ev.cont_strand.0));
                fold(u64::from(ev.child_first_strand.0));
            }
            TraceEvent::CreateFuture(ev) => {
                fold(3);
                fold(pair(ev.parent.0, ev.child.0));
                fold(pair(ev.creator_strand.0, ev.cont_strand.0));
                fold(u64::from(ev.child_first_strand.0));
            }
            TraceEvent::Return { function, last } => {
                fold(4);
                fold(pair(function.0, last.0));
            }
            TraceEvent::Sync(ev) => {
                fold(5);
                fold(pair(ev.parent.0, ev.child.0));
                fold(pair(ev.pre_join_strand.0, ev.join_strand.0));
                fold(pair(ev.child_last_strand.0, ev.fork.pre_fork_strand.0));
                fold(pair(ev.fork.child_first_strand.0, ev.fork.cont_strand.0));
            }
            TraceEvent::GetFuture(ev) => {
                fold(6);
                fold(pair(ev.parent.0, ev.future.0));
                fold(pair(ev.pre_get_strand.0, ev.getter_strand.0));
                fold(pair(ev.future_last_strand.0, ev.prior_touches));
            }
            TraceEvent::Read { strand, addr, size } => {
                fold(7);
                fold(pair(strand.0, *size));
                fold(addr.0);
            }
            TraceEvent::Write { strand, addr, size } => {
                fold(8);
                fold(pair(strand.0, *size));
                fold(addr.0);
            }
            TraceEvent::ProgramEnd { last } => {
                fold(9);
                fold(u64::from(last.0));
            }
        }
    }
    hash
}

/// How a detection request was served (recorded in the store's
/// [`StoreStats`] for stored requests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionPath {
    /// No usable frozen state: froze from scratch and ran full detection.
    Cold,
    /// Loaded the frozen index from the sidecar but had to run detection
    /// (no cached outcomes).
    WarmIndex,
    /// Nothing was appended since the detection partitions last advanced
    /// (or since the sidecar was frozen): the cached outcomes merge
    /// straight into the report — no freeze, no detection.
    WarmCached,
    /// The trace grew since the last detection: froze the appended suffix
    /// and brought only the touched partitions up to date.
    Incremental {
        /// Events appended since the last detection (for the first report
        /// of a stored session, since the sidecar's frozen position).
        appended_events: usize,
        /// Partitions that processed accesses because the suffix touched
        /// their granules (or a re-balance gave them a new range): resumed
        /// or rebuilt.
        rerun: usize,
        /// Partitions whose outcomes were reused verbatim.
        reused: usize,
        /// Of `rerun`, the partitions a session resumed from the shadow
        /// state it kept since its previous report, over the appended
        /// accesses alone; the others were rebuilt from the start of the
        /// stream. Always `≤ rerun`, and 0 on the first report of a stored
        /// session, whose cached outcomes carry no shadow state.
        resumed: usize,
        /// True if the access histogram drifted past the threshold and the
        /// partition ranges were recomputed from the full stream (see
        /// [`futurerd_core::parallel::REBALANCE_DRIFT_FACTOR`]).
        rebalanced: bool,
    },
}

impl DetectionPath {
    /// True if the frozen index was loaded instead of recomputed.
    pub fn is_warm(self) -> bool {
        matches!(self, DetectionPath::WarmIndex | DetectionPath::WarmCached)
    }

    /// Stable dotted-metric suffix for this path kind — the per-request
    /// provenance counter names (`store.path.<kind>`,
    /// `session.report.<kind>`) are built from it, so it never carries the
    /// per-request parameters `Display` shows.
    pub fn kind_key(self) -> &'static str {
        match self {
            DetectionPath::Cold => "cold",
            DetectionPath::WarmIndex => "warm_index",
            DetectionPath::WarmCached => "warm_cached",
            DetectionPath::Incremental { .. } => "incremental",
        }
    }
}

impl std::fmt::Display for DetectionPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectionPath::Cold => f.write_str("cold"),
            DetectionPath::WarmIndex => f.write_str("warm-index"),
            DetectionPath::WarmCached => f.write_str("warm-cached"),
            DetectionPath::Incremental {
                appended_events,
                rerun,
                reused,
                resumed,
                rebalanced,
            } => {
                write!(
                    f,
                    "incremental(+{appended_events}ev, {rerun} rerun / {reused} reused"
                )?;
                if *resumed > 0 {
                    write!(f, ", {resumed} resumed")?;
                }
                if *rebalanced {
                    f.write_str(", rebalanced")?;
                }
                f.write_str(")")
            }
        }
    }
}

/// Work counters accumulated by a [`Store`] — the cold/warm/incremental
/// economics of the detection service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Full freezes (cold path).
    pub cold_freezes: u64,
    /// Sidecar index loads that still ran detection.
    pub warm_index_loads: u64,
    /// Fully cached hits (index + outcomes reused).
    pub warm_cached_hits: u64,
    /// Incremental refreezes (suffix only).
    pub incremental_refreezes: u64,
    /// Detection partitions re-run during incremental requests.
    pub partitions_rerun: u64,
    /// Detection partitions reused verbatim during incremental requests.
    pub partitions_reused: u64,
    /// Incremental requests that re-balanced the partition ranges because
    /// the access histogram had drifted.
    pub rebalances: u64,
    /// Sidecars discarded as corrupt, stale or mismatched.
    pub invalidated_sidecars: u64,
}

impl StoreStats {
    /// Registers every counter as a `<prefix>.<field>` gauge in the
    /// `futurerd-obs` metrics registry (no-op while recording is
    /// disabled). Gauges because these are store-lifetime totals: each
    /// export overwrites with the newer reading.
    pub fn export_metrics(&self, prefix: &str) {
        if !futurerd_obs::enabled() {
            return;
        }
        futurerd_obs::gauge_set(&format!("{prefix}.cold_freezes"), self.cold_freezes);
        futurerd_obs::gauge_set(&format!("{prefix}.warm_index_loads"), self.warm_index_loads);
        futurerd_obs::gauge_set(&format!("{prefix}.warm_cached_hits"), self.warm_cached_hits);
        futurerd_obs::gauge_set(
            &format!("{prefix}.incremental_refreezes"),
            self.incremental_refreezes,
        );
        futurerd_obs::gauge_set(&format!("{prefix}.partitions_rerun"), self.partitions_rerun);
        futurerd_obs::gauge_set(
            &format!("{prefix}.partitions_reused"),
            self.partitions_reused,
        );
        futurerd_obs::gauge_set(&format!("{prefix}.rebalances"), self.rebalances);
        futurerd_obs::gauge_set(
            &format!("{prefix}.invalidated_sidecars"),
            self.invalidated_sidecars,
        );
    }
}

/// One batch job: replay `trace` under `algorithm` with `threads`
/// detection workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchJob {
    /// Store-relative trace name (no extension).
    pub trace: String,
    /// The detection algorithm (must be freezable).
    pub algorithm: ReplayAlgorithm,
    /// Detection worker count.
    pub threads: usize,
}

/// The summary of one completed batch job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSummary {
    /// How the job's session served its report.
    pub path: DetectionPath,
    /// Distinct racy granules.
    pub races: usize,
    /// Total racing pairs observed.
    pub observations: u64,
    /// Events in the trace.
    pub events: usize,
    /// FNV-1a 64 digest of the rendered race report — the determinism
    /// fingerprint compared across runs and machines.
    pub digest: u64,
}

/// One line of the batch manifest: the job plus its summary or failure.
#[derive(Debug, Clone)]
pub struct BatchRecord {
    /// The job as submitted.
    pub job: BatchJob,
    /// The outcome (a failure is recorded, not fatal to the batch).
    pub outcome: Result<BatchSummary, String>,
}

/// The deterministic result manifest of one batch run (`futurerd::run_batch`):
/// jobs sorted by `(trace, algorithm, threads)`, each with its report digest.
/// Rendered with [`std::fmt::Display`] and written to
/// [`Store::manifest_path`].
#[derive(Debug, Clone, Default)]
pub struct BatchManifest {
    /// One record per job, in manifest order.
    pub records: Vec<BatchRecord>,
}

impl BatchManifest {
    /// True if every job completed.
    pub fn all_ok(&self) -> bool {
        self.records.iter().all(|r| r.outcome.is_ok())
    }

    /// How many completed jobs were served by each [`DetectionPath`] kind,
    /// in fixed `(cold, warm_index, warm_cached, incremental)` order.
    /// Deterministic for a given store history — path provenance depends
    /// only on which sidecars exist, never on timings — so it is safe to
    /// render into the reproducible manifest.
    pub fn path_counts(&self) -> [(&'static str, usize); 4] {
        let mut counts = [
            ("cold", 0),
            ("warm_index", 0),
            ("warm_cached", 0),
            ("incremental", 0),
        ];
        for record in &self.records {
            if let Ok(summary) = &record.outcome {
                let key = summary.path.kind_key();
                if let Some(slot) = counts.iter_mut().find(|(name, _)| *name == key) {
                    slot.1 += 1;
                }
            }
        }
        counts
    }
}

impl std::fmt::Display for BatchManifest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "# futurerd-store batch manifest ({} jobs)",
            self.records.len()
        )?;
        let [cold, warm_index, warm_cached, incremental] = self.path_counts();
        writeln!(
            f,
            "# paths: cold={} warm-index={} warm-cached={} incremental={}",
            cold.1, warm_index.1, warm_cached.1, incremental.1
        )?;
        for record in &self.records {
            let job = &record.job;
            write!(f, "{} {} P={}: ", job.trace, job.algorithm, job.threads)?;
            match &record.outcome {
                Ok(s) => writeln!(
                    f,
                    "races={} pairs={} events={} digest={:016x} [{}]",
                    s.races, s.observations, s.events, s.digest, s.path
                )?,
                Err(e) => writeln!(f, "FAILED {e}")?,
            }
        }
        Ok(())
    }
}

/// A persistent, versioned detection store rooted at a directory.
///
/// Layout: `<name>.trace` holds a recorded (possibly still growing) event
/// stream; `<name>.<algorithm>.frdidx` holds the frozen index sidecar for
/// one algorithm; `batch-manifest.txt` holds the last batch run's manifest.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    stats: StoreStats,
}

impl Store {
    /// Opens a store rooted at `root`, creating the directory if needed.
    pub fn open(root: impl AsRef<Path>) -> Result<Self, StoreError> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            stats: StoreStats::default(),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Accumulated work counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    fn check_name(name: &str) -> Result<(), StoreError> {
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(StoreError::InvalidName(name.to_string()));
        }
        Ok(())
    }

    /// Path of the named trace file.
    pub fn trace_path(&self, name: &str) -> PathBuf {
        self.root.join(format!("{name}.trace"))
    }

    /// Path of the named trace's sidecar for `algorithm`.
    pub fn sidecar_path(&self, name: &str, algorithm: ReplayAlgorithm) -> PathBuf {
        self.root.join(format!("{name}.{algorithm}.frdidx"))
    }

    /// Path of the last batch run's [`BatchManifest`].
    pub fn manifest_path(&self) -> PathBuf {
        self.root.join("batch-manifest.txt")
    }

    /// Names of every stored trace, sorted.
    pub fn trace_names(&self) -> Result<Vec<String>, StoreError> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("trace") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    names.push(stem.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// Stores (or replaces) a trace under `name` after validating it as a
    /// canonical prefix. Returns its counts and completeness.
    pub fn put_trace(
        &mut self,
        name: &str,
        trace: &Trace,
    ) -> Result<(TraceCounts, bool), StoreError> {
        Self::check_name(name)?;
        let prefix = trace.validate_prefix()?;
        self.write_trace(name, trace)?;
        Ok(prefix)
    }

    /// Loads the named trace.
    pub fn load_trace(&self, name: &str) -> Result<Trace, StoreError> {
        Self::check_name(name)?;
        let path = self.trace_path(name);
        if !path.exists() {
            return Err(StoreError::UnknownTrace(name.to_string()));
        }
        let bytes = std::fs::read(path)?;
        futurerd_obs::counter_add(
            futurerd_obs::names::STORE_TRACE_DECODED_BYTES,
            bytes.len() as u64,
        );
        let _span = futurerd_obs::Span::enter(futurerd_obs::names::STORE_TRACE_DECODE);
        Ok(Trace::from_bytes(&bytes)?)
    }

    /// Encodes `trace` and writes it as the named entry's trace file.
    fn write_trace(&self, name: &str, trace: &Trace) -> Result<(), StoreError> {
        let bytes = {
            let _span = futurerd_obs::Span::enter(futurerd_obs::names::STORE_TRACE_ENCODE);
            trace.to_bytes()
        };
        futurerd_obs::counter_add(
            futurerd_obs::names::STORE_TRACE_ENCODED_BYTES,
            bytes.len() as u64,
        );
        std::fs::write(self.trace_path(name), bytes)?;
        Ok(())
    }

    /// Appends events to a stored trace, validating the extended stream as a
    /// canonical prefix. The trace file is rewritten; its sidecars are *not*
    /// touched — the next session opened on the entry notices the grown
    /// trace and takes the incremental path.
    pub fn append_events(
        &mut self,
        name: &str,
        events: &[TraceEvent],
    ) -> Result<(TraceCounts, bool), StoreError> {
        let mut trace = self.load_trace(name)?;
        trace.extend_events(events);
        let prefix = trace.validate_prefix()?;
        self.write_trace(name, &trace)?;
        Ok(prefix)
    }

    /// Loads, verifies and binds the sidecar for `(name, algorithm)` against
    /// the current trace, whose frozen prefix restores the access stream.
    /// Any mismatch (corrupt bytes, wrong algorithm, rewritten prefix, a
    /// state the prefix contradicts) invalidates it — the caller then goes
    /// cold.
    fn load_sidecar(
        &mut self,
        name: &str,
        algorithm: ReplayAlgorithm,
        trace: &Trace,
    ) -> Option<(IncrementalFreezer, Option<Vec<PartitionOutcome>>)> {
        let bytes = match std::fs::read(self.sidecar_path(name, algorithm)) {
            Ok(bytes) => bytes,
            Err(_) => return None,
        };
        futurerd_obs::counter_add(
            futurerd_obs::names::STORE_SIDECAR_DECODED_BYTES,
            bytes.len() as u64,
        );
        let decoded = {
            let _span = futurerd_obs::Span::enter(futurerd_obs::names::STORE_SIDECAR_DECODE);
            codec::decode_sidecar(&bytes)
        };
        let sidecar = match decoded {
            Ok(sidecar) => sidecar,
            Err(_) => {
                self.stats.invalidated_sidecars += 1;
                return None;
            }
        };
        let pos = sidecar.freeze.pos as usize;
        if sidecar.freeze.algorithm != algorithm
            || pos > trace.len()
            || sidecar.trace_hash != hash_events(&trace.events()[..pos])
        {
            self.stats.invalidated_sidecars += 1;
            return None;
        }
        match IncrementalFreezer::from_raw(sidecar.freeze, &trace.events()[..pos]) {
            Ok(freezer) => Some((freezer, sidecar.outcomes)),
            Err(_) => {
                self.stats.invalidated_sidecars += 1;
                None
            }
        }
    }

    /// Opens the raw state a long-lived detection session resumes from: the
    /// named trace plus — when a valid bound sidecar exists for `algorithm`
    /// — the resident freezer and any cached partition outcomes.
    ///
    /// A session keeps the freezer *in memory* across appends instead of
    /// round-tripping it through the sidecar per request; it writes state
    /// back with [`Store::persist_session`] so a later open resumes warm.
    pub fn open_session_state(
        &mut self,
        name: &str,
        algorithm: ReplayAlgorithm,
    ) -> Result<SessionState, StoreError> {
        if !algorithm.freezable() {
            return Err(StoreError::Unfreezable(algorithm));
        }
        let trace = self.load_trace(name)?;
        let (freezer, outcomes) = self.load_sidecar(name, algorithm, &trace).unzip();
        Ok(SessionState {
            trace,
            freezer,
            outcomes: outcomes.flatten(),
        })
    }

    /// Persists a session's current state: the freezer's algorithm sidecar
    /// with its cached outcomes, plus the trace file when `trace_changed`
    /// (the session ingested events since it last persisted), so the next
    /// session open on the entry is served warm.
    pub fn persist_session(
        &mut self,
        name: &str,
        trace: &Trace,
        trace_changed: bool,
        freezer: &IncrementalFreezer,
        outcomes: Vec<PartitionOutcome>,
    ) -> Result<(), StoreError> {
        Self::check_name(name)?;
        if trace_changed {
            self.write_trace(name, trace)?;
        }
        let sidecar = Sidecar {
            trace_hash: hash_events(&trace.events()[..freezer.position() as usize]),
            freeze: freezer.to_raw(),
            outcomes: Some(outcomes),
        };
        let bytes = {
            let _span = futurerd_obs::Span::enter(futurerd_obs::names::STORE_SIDECAR_ENCODE);
            codec::encode_sidecar(&sidecar)
        };
        futurerd_obs::counter_add(
            futurerd_obs::names::STORE_SIDECAR_ENCODED_BYTES,
            bytes.len() as u64,
        );
        std::fs::write(self.sidecar_path(name, freezer.algorithm()), bytes)?;
        Ok(())
    }

    /// Folds one session-served detection into the store's work counters.
    /// Sessions route requests through their resident state, so the store
    /// only sees the resulting [`DetectionPath`]; this keeps the
    /// cold/warm/incremental economics in [`Store::stats`].
    pub fn record_path(&mut self, path: DetectionPath) {
        if futurerd_obs::enabled() {
            futurerd_obs::counter_add(&format!("store.path.{}", path.kind_key()), 1);
        }
        match path {
            DetectionPath::Cold => self.stats.cold_freezes += 1,
            DetectionPath::WarmIndex => self.stats.warm_index_loads += 1,
            DetectionPath::WarmCached => self.stats.warm_cached_hits += 1,
            DetectionPath::Incremental {
                rerun,
                reused,
                rebalanced,
                ..
            } => {
                self.stats.incremental_refreezes += 1;
                self.stats.partitions_rerun += rerun as u64;
                self.stats.partitions_reused += reused as u64;
                self.stats.rebalances += u64::from(rebalanced);
            }
        }
    }
}

/// The raw state of a store-backed detection session (see
/// [`Store::open_session_state`]).
#[derive(Debug)]
pub struct SessionState {
    /// The stored trace as currently on disk.
    pub trace: Trace,
    /// The resident freezer resumed from the sidecar, if one was valid.
    pub freezer: Option<IncrementalFreezer>,
    /// Cached per-partition outcomes, if the sidecar carried them.
    pub outcomes: Option<Vec<PartitionOutcome>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use futurerd_dag::events::SpawnEvent;
    use futurerd_dag::trace::TraceEvent;
    use futurerd_dag::{FunctionId, MemAddr, StrandId};

    fn temp_store(tag: &str) -> Store {
        let dir =
            std::env::temp_dir().join(format!("futurerd-store-test-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        Store::open(dir).expect("store opens")
    }

    fn racy_trace() -> Trace {
        let root = FunctionId(0);
        let child = FunctionId(1);
        let x = MemAddr(0x1000);
        let mut t = Trace::new();
        t.push(TraceEvent::ProgramStart {
            root,
            first: StrandId(0),
        });
        t.push(TraceEvent::StrandStart {
            strand: StrandId(0),
            function: root,
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
        t
    }

    #[test]
    fn store_rejects_bad_names_and_unfreezable_algorithms() {
        let mut store = temp_store("names");
        assert!(matches!(
            store.put_trace("../evil", &Trace::new()),
            Err(StoreError::InvalidName(_))
        ));
        assert!(matches!(
            store.open_session_state("nope", ReplayAlgorithm::MultiBags),
            Err(StoreError::UnknownTrace(_))
        ));
        store.put_trace("t", &racy_trace()).expect("stores");
        assert!(matches!(
            store.open_session_state("t", ReplayAlgorithm::GraphOracle),
            Err(StoreError::Unfreezable(_))
        ));
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn incremental_paths_show_resumed_partitions_only_when_some_resumed() {
        let path = |resumed, rebalanced| DetectionPath::Incremental {
            appended_events: 12,
            rerun: 3,
            reused: 1,
            resumed,
            rebalanced,
        };
        assert_eq!(
            path(0, false).to_string(),
            "incremental(+12ev, 3 rerun / 1 reused)"
        );
        assert_eq!(
            path(2, false).to_string(),
            "incremental(+12ev, 3 rerun / 1 reused, 2 resumed)"
        );
        assert_eq!(
            path(2, true).to_string(),
            "incremental(+12ev, 3 rerun / 1 reused, 2 resumed, rebalanced)"
        );
    }

    #[test]
    fn hash_events_distinguishes_prefixes() {
        let t = racy_trace();
        let h_full = hash_events(t.events());
        let h_prefix = hash_events(&t.events()[..t.len() - 1]);
        assert_ne!(h_full, h_prefix);
        assert_eq!(h_full, hash_events(t.events()));
    }
}
