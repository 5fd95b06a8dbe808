//! # futurerd-obs — observability substrate for the FutureRD stack
//!
//! A zero-dependency (std-only) observability layer shared by every crate
//! in the workspace: lock-cheap **spans** measuring where wall time goes,
//! a process-wide **metrics registry** unifying the stack's scattered
//! counters under stable dotted names, and three **exporters** (human text
//! table, JSON lines, Prometheus text format) over a deterministic
//! [`Snapshot`].
//!
//! ## Determinism contract
//!
//! Observability is **off the correctness path**. The recording side only
//! ever *reads* detection state and *writes* obs-private buffers; nothing
//! in this crate feeds back into what the detectors compute. Every
//! detection output (reports, frozen indices, manifests) is byte-identical
//! with metrics enabled or disabled, at every thread count — enforced by
//! the `obs_invariance` property suite at the workspace root.
//!
//! Recording is globally gated by [`set_enabled`] and **off by default**:
//! the disabled fast path is one relaxed atomic load per call site.
//!
//! ## Span naming scheme
//!
//! Stage names are `'static` dotted paths, hierarchical by prefix. The
//! top-level pipeline stages are disjoint on the coordinator thread and
//! sum to ≈ the replay wall time:
//!
//! | stage       | where                                                  |
//! |-------------|--------------------------------------------------------|
//! | `validate`  | trace/prefix validation                                |
//! | `freeze`    | pass-1 freeze replay (one-shot or incremental extend)  |
//! | `detect`    | pass-2 sharded shadow-memory detection                 |
//! | `merge`     | deterministic outcome merge                            |
//!
//! Nested and worker-side stages refine those: `detect.ranges` (choosing
//! the partition boundaries), `detect.partition` (per-worker tasks),
//! `store.sidecar.encode` / `store.sidecar.decode`,
//! `store.trace.encode` / `store.trace.decode`, and per-path report
//! timings `session.report.cold|warm_index|warm_cached|incremental`.
//!
//! ## Thread attribution
//!
//! Spans record into per-thread buffers (one uncontended mutex per
//! thread), merged deterministically — sorted by stage name — at
//! [`snapshot`] time. Pool workers call [`set_thread_label`] once at
//! spawn, and each interval of the timeline journal carries its thread's
//! label; per-worker metrics embed the worker's index in the metric name
//! (`pool.worker.3.steals`).
//!
//! ## Timeline journal
//!
//! On top of the aggregated [`StageStats`], an optional **interval
//! timeline** ([`set_timeline_enabled`]) journals every closed span as a
//! `(thread, stage, start_ns, end_ns)` [`Interval`] into a bounded
//! per-thread ring. The ring is lossy: once a thread's ring holds
//! [`timeline_capacity`] intervals, further intervals on that thread are
//! counted (`obs.timeline.dropped`) and discarded — the hot path never
//! blocks on a full journal and surviving intervals keep their order.
//! [`timeline()`] merges the rings deterministically (sorted by
//! `(start, thread, stage)`); see [`Timeline`] for the derived analyses
//! (worker utilization, partition overlap) and
//! [`export::export_chrome_trace`] / [`export::export_timeline_text`]
//! for the exporters.

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use futurerd_check::sync::RealShim;
use proto::{MetricsRegistry, TimelineJournal};

pub mod export;
pub mod names;
pub mod proto;
pub mod timeline;

pub use export::{
    export_chrome_trace, export_json_lines, export_prometheus, export_text, export_timeline_text,
};
pub use timeline::{Interval, ParallelismProfile, Timeline, WorkerUtilization};

// ---------------------------------------------------------------------------
// Global enable flags
// ---------------------------------------------------------------------------

/// Bit 0: aggregate recording (spans + metrics registry).
const FLAG_METRICS: u8 = 1;
/// Bit 1: interval timeline journaling.
const FLAG_TIMELINE: u8 = 1 << 1;

static FLAGS: AtomicU8 = AtomicU8::new(0);

#[inline]
fn flags() -> u8 {
    FLAGS.load(Ordering::Relaxed)
}

fn set_flag(bit: u8, on: bool) {
    if on {
        FLAGS.fetch_or(bit, Ordering::Relaxed);
    } else {
        FLAGS.fetch_and(!bit, Ordering::Relaxed);
    }
}

/// Turns aggregate recording (spans + metrics) on or off process-wide.
/// Off by default.
///
/// Disabling does not clear previously recorded data; use [`reset`] for a
/// clean slate between measured sections.
pub fn set_enabled(on: bool) {
    set_flag(FLAG_METRICS, on);
}

/// Whether aggregate recording is currently enabled (one relaxed atomic
/// load — cheap enough for hot-path call sites to check directly).
#[inline]
pub fn enabled() -> bool {
    flags() & FLAG_METRICS != 0
}

/// Turns the interval timeline journal on or off process-wide. Off by
/// default. Enabling pins the timeline epoch (the `start_ns = 0` origin)
/// if it is not pinned yet.
pub fn set_timeline_enabled(on: bool) {
    if on {
        epoch(); // pin the time origin before the first interval
    }
    set_flag(FLAG_TIMELINE, on);
}

/// Whether anything (aggregates or timeline) is recording — the single
/// relaxed load every [`Span::enter`] pays while fully disabled.
#[inline]
pub fn recording() -> bool {
    flags() != 0
}

// ---------------------------------------------------------------------------
// Timeline epoch and capacity
// ---------------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The timeline's time origin: all interval timestamps are nanoseconds
/// since this instant. Pinned on first use (or when the timeline is first
/// enabled) and never moves for the life of the process.
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Default bound on intervals retained per thread.
pub const DEFAULT_TIMELINE_CAPACITY: usize = 65_536;

static TIMELINE_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_TIMELINE_CAPACITY);

/// Sets the per-thread interval ring bound (min 1). Intervals recorded
/// past the bound are dropped and counted, never retained — shrinking the
/// bound does not evict already-journaled intervals.
pub fn set_timeline_capacity(capacity: usize) {
    TIMELINE_CAPACITY.store(capacity.max(1), Ordering::Relaxed);
}

/// The current per-thread interval ring bound.
pub fn timeline_capacity() -> usize {
    TIMELINE_CAPACITY.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Stage statistics
// ---------------------------------------------------------------------------

/// Aggregated timings for one stage name: how many spans closed, and the
/// total / min / max span duration in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// Number of spans recorded under this name.
    pub count: u64,
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Shortest span, nanoseconds.
    pub min_ns: u64,
    /// Longest span, nanoseconds.
    pub max_ns: u64,
}

impl StageStats {
    fn one(ns: u64) -> Self {
        StageStats {
            count: 1,
            total_ns: ns,
            min_ns: ns,
            max_ns: ns,
        }
    }

    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Merges another aggregate into this one (used when combining
    /// per-thread buffers for the same stage name).
    pub fn merge(&mut self, other: &StageStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Mean span duration in nanoseconds (0 when no spans recorded).
    pub fn avg_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Per-thread span buffers
// ---------------------------------------------------------------------------

/// One thread's recording state. The mutexes are uncontended in steady
/// state (only the owning thread writes; [`snapshot`]/[`reset`] briefly
/// lock them from outside), so a span close is a CAS plus a map update.
///
/// The timeline ring is the shim-generic [`TimelineJournal`] — the same
/// push/drop protocol the model checker explores — instantiated with the
/// zero-cost [`RealShim`].
struct ThreadBuffer {
    stages: Mutex<HashMap<&'static str, StageStats>>,
    timeline: TimelineJournal<RealShim>,
    label: Mutex<Option<String>>,
}

static BUFFERS: Mutex<Vec<Arc<ThreadBuffer>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Option<Arc<ThreadBuffer>>> = const { RefCell::new(None) };
}

fn with_local_buffer<R>(f: impl FnOnce(&ThreadBuffer) -> R) -> R {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let buf = Arc::new(ThreadBuffer {
                stages: Mutex::new(HashMap::new()),
                timeline: TimelineJournal::new(),
                label: Mutex::new(None),
            });
            BUFFERS.lock().unwrap().push(Arc::clone(&buf));
            buf
        });
        f(buf)
    })
}

fn record_span(name: &'static str, ns: u64) {
    with_local_buffer(|buf| {
        let mut stages = buf.stages.lock().unwrap();
        stages
            .entry(name)
            .and_modify(|s| s.record(ns))
            .or_insert_with(|| StageStats::one(ns));
    });
}

fn record_interval(name: &'static str, start_ns: u64, end_ns: u64) {
    with_local_buffer(|buf| {
        buf.timeline
            .push(name, start_ns, end_ns, timeline_capacity());
    });
}

/// Folds one closed measurement into whatever layers are enabled: the
/// aggregate [`StageStats`] (metrics bit) and the interval journal
/// (timeline bit). `start` is the measurement's begin instant; the
/// duration is computed once so the journaled interval and the aggregate
/// total reconcile exactly, nanosecond for nanosecond.
fn record_closed(name: &'static str, start: Instant) {
    let flags = flags();
    if flags == 0 {
        return;
    }
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    if flags & FLAG_METRICS != 0 {
        record_span(name, ns);
    }
    if flags & FLAG_TIMELINE != 0 {
        let start_ns =
            u64::try_from(start.saturating_duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX);
        record_interval(name, start_ns, start_ns.saturating_add(ns));
    }
}

/// Closes a measurement started at `start` under a stage name chosen
/// after the fact: records the aggregate timing *and* journals the
/// timeline interval, exactly as if a [`Span`] named `name` had been
/// entered at `start` and dropped now. No-op while nothing is recording.
pub fn record_stage(name: &'static str, start: Instant) {
    record_closed(name, start);
}

/// Labels the calling thread for per-worker metric attribution
/// (e.g. `"worker.3"`). Pool workers call this once at spawn; unlabeled
/// threads report as `"main"`.
pub fn set_thread_label(label: &str) {
    with_local_buffer(|buf| {
        *buf.label.lock().unwrap() = Some(label.to_string());
    });
}

// ---------------------------------------------------------------------------
// Span guard
// ---------------------------------------------------------------------------

/// An RAII timer for one stage. [`Span::enter`] starts the clock when
/// recording is enabled (and is a no-op otherwise); dropping the guard
/// folds the elapsed time into the calling thread's buffer.
///
/// ```
/// futurerd_obs::set_enabled(true);
/// {
///     let _span = futurerd_obs::Span::enter("freeze");
///     // ... timed work ...
/// }
/// futurerd_obs::set_enabled(false);
/// let snap = futurerd_obs::snapshot();
/// assert_eq!(snap.stage("freeze").unwrap().count, 1);
/// # futurerd_obs::reset();
/// ```
#[must_use = "a span records on drop; binding it to `_` drops immediately"]
pub struct Span {
    active: Option<(&'static str, Instant)>,
}

impl Span {
    /// Starts timing `name` if anything (aggregates or timeline) is
    /// recording; the fully-disabled cost is one relaxed atomic load.
    #[inline]
    pub fn enter(name: &'static str) -> Span {
        let active = recording().then(|| (name, Instant::now()));
        Span { active }
    }

    /// A guard that records nothing (useful to keep one code path).
    pub fn disabled() -> Span {
        Span { active: None }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, start)) = self.active.take() {
            record_closed(name, start);
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// What a registered metric measures: a monotonically accumulated
/// [`Counter`](MetricKind::Counter) or a last-write-wins
/// [`Gauge`](MetricKind::Gauge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Accumulates via [`counter_add`].
    Counter,
    /// Overwritten via [`gauge_set`].
    Gauge,
}

impl MetricKind {
    /// Lower-case name as used by the exporters (`"counter"` / `"gauge"`).
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// The process-wide registry: the shim-generic [`MetricsRegistry`] — the
/// same lossless-merge protocol the model checker explores — instantiated
/// with the zero-cost [`RealShim`].
fn metrics() -> &'static MetricsRegistry<RealShim> {
    static METRICS: OnceLock<MetricsRegistry<RealShim>> = OnceLock::new();
    METRICS.get_or_init(MetricsRegistry::new)
}

/// Adds `delta` to the named counter (creating it at zero first). No-op
/// while recording is disabled.
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    metrics().counter_add(name, delta);
}

/// Sets the named gauge to `value`. No-op while recording is disabled.
pub fn gauge_set(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    metrics().gauge_set(name, value);
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// One merged stage row in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRow {
    /// Dotted stage name.
    pub name: String,
    /// Aggregated timings across every thread.
    pub stats: StageStats,
}

/// One metric row in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricRow {
    /// Dotted metric name.
    pub name: String,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Current value.
    pub value: u64,
}

/// A deterministic point-in-time view of everything recorded so far:
/// per-thread span buffers merged by stage name, plus the metrics
/// registry. Both sections are sorted by name, so two snapshots of the
/// same state render identically regardless of which threads recorded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Stage timings, sorted by name.
    pub stages: Vec<StageRow>,
    /// Metrics, sorted by name.
    pub metrics: Vec<MetricRow>,
}

impl Snapshot {
    /// Looks up a stage row by exact name.
    pub fn stage(&self, name: &str) -> Option<&StageStats> {
        self.stages
            .iter()
            .find(|row| row.name == name)
            .map(|row| &row.stats)
    }

    /// Looks up a metric value by exact name.
    pub fn metric(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|row| row.name == name)
            .map(|row| row.value)
    }

    /// Sum of `total_ns` over stages matching one of `names` exactly.
    pub fn total_ns_of(&self, names: &[&str]) -> u64 {
        self.stages
            .iter()
            .filter(|row| names.contains(&row.name.as_str()))
            .map(|row| row.stats.total_ns)
            .sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty() && self.metrics.is_empty()
    }
}

/// Merges every thread's span buffer and the metrics registry into a
/// sorted [`Snapshot`]. Cheap relative to any measured work; safe to call
/// while other threads are still recording (their in-flight spans simply
/// land in a later snapshot).
pub fn snapshot() -> Snapshot {
    let mut merged: BTreeMap<String, StageStats> = BTreeMap::new();
    for buf in BUFFERS.lock().unwrap().iter() {
        for (name, stats) in buf.stages.lock().unwrap().iter() {
            merged
                .entry((*name).to_string())
                .and_modify(|s| s.merge(stats))
                .or_insert(*stats);
        }
    }
    let stages = merged
        .into_iter()
        .map(|(name, stats)| StageRow { name, stats })
        .collect();
    let metrics = metrics()
        .rows()
        .into_iter()
        .map(|(name, kind, value)| MetricRow { name, kind, value })
        .collect();
    Snapshot { stages, metrics }
}

/// Merges every thread's interval ring into one deterministic
/// [`Timeline`]: intervals sorted by `(start_ns, thread, stage)`, plus the
/// total number of intervals dropped by full rings. When any were
/// dropped, the count is also surfaced in the metrics registry as the
/// `obs.timeline.dropped` gauge so plain [`snapshot`] consumers see the
/// journal was lossy.
pub fn timeline() -> Timeline {
    let mut intervals = Vec::new();
    let mut dropped = 0u64;
    for buf in BUFFERS.lock().unwrap().iter() {
        let label = buf
            .label
            .lock()
            .unwrap()
            .clone()
            .unwrap_or_else(|| "main".to_string());
        let (ring, ring_dropped) = buf.timeline.snapshot();
        dropped += ring_dropped;
        for (stage, start_ns, end_ns) in ring {
            intervals.push(Interval {
                thread: label.clone(),
                stage,
                start_ns,
                end_ns,
            });
        }
    }
    intervals
        .sort_by(|a, b| (a.start_ns, &a.thread, a.stage).cmp(&(b.start_ns, &b.thread, b.stage)));
    if dropped > 0 {
        // Bypasses the `enabled()` gate deliberately: the drop count must
        // surface even when aggregate recording was switched off between
        // journaling and snapshotting.
        metrics().gauge_set(names::OBS_TIMELINE_DROPPED, dropped);
    }
    Timeline { intervals, dropped }
}

/// Clears all recorded spans, journaled intervals and metrics. Buffers of
/// threads that have exited are dropped; live threads keep their (now
/// empty) buffers.
pub fn reset() {
    let mut buffers = BUFFERS.lock().unwrap();
    for buf in buffers.iter() {
        buf.stages.lock().unwrap().clear();
        buf.timeline.clear();
    }
    // A strong count of 1 means the owning thread's `LOCAL` slot is gone:
    // the thread exited and the buffer can never fill again.
    buffers.retain(|buf| Arc::strong_count(buf) > 1);
    metrics().clear();
}

/// Formats a nanosecond duration for human output (`17ns`, `4.200us`,
/// `1.250ms`, `2.000s`).
pub fn fmt_duration_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The obs state is process-global; tests that enable recording
    /// serialize on this lock so cargo's parallel test threads don't
    /// interleave their counters.
    static GLOBAL: Mutex<()> = Mutex::new(());

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        let guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        guard
    }

    #[test]
    fn disabled_records_nothing() {
        let _x = exclusive();
        set_enabled(false);
        {
            let _span = Span::enter("noop");
        }
        counter_add("noop.counter", 5);
        gauge_set("noop.gauge", 7);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn span_records_count_total_min_max() {
        let _x = exclusive();
        set_enabled(true);
        for _ in 0..3 {
            let _span = Span::enter("stage.a");
        }
        set_enabled(false);
        let snap = snapshot();
        let stats = snap.stage("stage.a").expect("stage recorded");
        assert_eq!(stats.count, 3);
        assert!(stats.min_ns <= stats.max_ns);
        assert!(stats.total_ns >= stats.max_ns);
        reset();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let _x = exclusive();
        set_enabled(true);
        counter_add("c", 2);
        counter_add("c", 3);
        gauge_set("g", 10);
        gauge_set("g", 4);
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.metric("c"), Some(5));
        assert_eq!(snap.metric("g"), Some(4));
        let kinds: Vec<_> = snap
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.kind))
            .collect();
        assert_eq!(
            kinds,
            vec![("c", MetricKind::Counter), ("g", MetricKind::Gauge)]
        );
        reset();
    }

    #[test]
    fn cross_thread_spans_merge_deterministically() {
        let _x = exclusive();
        set_enabled(true);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    set_thread_label(&format!("worker.{i}"));
                    let _span = Span::enter("shared.stage");
                    let _inner = Span::enter("shared.stage.inner");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_enabled(false);
        let a = snapshot();
        let b = snapshot();
        assert_eq!(a, b, "snapshots of quiescent state are identical");
        assert_eq!(a.stage("shared.stage").unwrap().count, 4);
        assert_eq!(a.stage("shared.stage.inner").unwrap().count, 4);
        let names: Vec<_> = a.stages.iter().map(|s| s.name.clone()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "stages are name-sorted");
        reset();
    }

    #[test]
    fn thread_label_defaults_to_main() {
        let _x = exclusive();
        set_timeline_enabled(true);
        {
            let _span = Span::enter("label.unset");
        }
        std::thread::spawn(|| {
            set_thread_label("worker.9");
            let _span = Span::enter("label.set");
        })
        .join()
        .unwrap();
        set_timeline_enabled(false);
        let journal = timeline();
        let thread_of = |stage: &str| {
            let interval = journal.intervals.iter().find(|i| i.stage == stage);
            interval.expect("span journaled").thread.clone()
        };
        assert_eq!(thread_of("label.unset"), "main");
        assert_eq!(thread_of("label.set"), "worker.9");
        reset();
    }

    #[test]
    fn reset_prunes_dead_thread_buffers() {
        let _x = exclusive();
        set_enabled(true);
        std::thread::spawn(|| {
            let _span = Span::enter("ephemeral");
        })
        .join()
        .unwrap();
        set_enabled(false);
        assert!(snapshot().stage("ephemeral").is_some());
        reset();
        assert!(snapshot().stage("ephemeral").is_none());
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration_ns(17), "17ns");
        assert_eq!(fmt_duration_ns(4_200), "4.200us");
        assert_eq!(fmt_duration_ns(1_250_000), "1.250ms");
        assert_eq!(fmt_duration_ns(2_000_000_000), "2.000s");
    }

    #[test]
    fn stage_stats_merge() {
        let mut a = StageStats::one(10);
        a.record(30);
        let b = StageStats::one(5);
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.count, 3);
        assert_eq!(m.total_ns, 45);
        assert_eq!(m.min_ns, 5);
        assert_eq!(m.max_ns, 30);
        let mut empty = StageStats {
            count: 0,
            total_ns: 0,
            min_ns: 0,
            max_ns: 0,
        };
        empty.merge(&b);
        assert_eq!(empty, b);
    }
}
