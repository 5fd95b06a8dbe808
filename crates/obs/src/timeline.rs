//! Timeline analysis: derived views over the merged interval journal.
//!
//! A [`Timeline`] is the deterministic merge of every thread's interval
//! ring (see [`timeline()`](crate::timeline())): one
//! `(thread, stage, start_ns, end_ns)` [`Interval`] per closed span, in
//! `(start, thread, stage)` order, timestamps relative to the process
//! [`epoch`](crate::epoch). On top of it this module computes the
//! questions aggregated [`StageStats`](crate::StageStats) cannot answer:
//!
//! * **per-worker utilization** ([`Timeline::utilization`]) — how busy
//!   each thread actually was over the journal's wall-clock window, with
//!   overlapping (nested) spans union-merged so nothing double-counts;
//! * **partition overlap** ([`Timeline::parallelism_profile`]) — how much
//!   wall time `detect.partition` (or any stage) spent at each
//!   concurrency level, i.e. whether partitions actually overlapped;
//! * **coordinator critical path** ([`Timeline::stage_totals`] over
//!   [`TOP_STAGES`]) — the disjoint `validate`/`freeze`/`detect`/`merge`
//!   accounting, which [`Timeline::reconcile`] checks against the
//!   aggregate [`Snapshot`] totals: with zero drops the
//!   two views are recorded from the same measurements and must agree
//!   **exactly**, nanosecond for nanosecond.

use crate::{Snapshot, StageRow};

/// The disjoint top-level coordinator stages whose durations sum to ≈ the
/// pipeline wall clock; every other stage nests inside one of them.
pub const TOP_STAGES: [&str; 4] = ["validate", "freeze", "detect", "merge"];

/// One journaled span occurrence: which thread ran which stage, from
/// `start_ns` to `end_ns` (nanoseconds since the timeline epoch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interval {
    /// Thread label ([`set_thread_label`](crate::set_thread_label), or
    /// `"main"` for unlabeled threads).
    pub thread: String,
    /// Dotted stage name, same namespace as the aggregate stages.
    pub stage: &'static str,
    /// Begin, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch (`end_ns >= start_ns`).
    pub end_ns: u64,
}

impl Interval {
    /// The interval's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's share of the journal window: how much of
/// `[window_start, window_end]` it spent inside at least one span.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerUtilization {
    /// Thread label.
    pub thread: String,
    /// Nanoseconds covered by ≥1 interval (overlaps union-merged).
    pub busy_ns: u64,
    /// Number of intervals journaled on this thread.
    pub intervals: usize,
    /// `busy_ns` over the whole journal window (0.0 for an empty window).
    pub utilization: f64,
}

/// Wall time spent at each concurrency level of one stage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParallelismProfile {
    /// `levels[k]` = nanoseconds during which exactly `k` intervals of
    /// the stage were open (index 0 counts gaps *between* the stage's
    /// first and last activity, not the journal's idle tails).
    pub levels: Vec<u64>,
    /// Highest concurrency observed.
    pub max_parallelism: usize,
    /// Time-weighted mean concurrency over the active (≥1 open) time.
    pub avg_parallelism: f64,
}

/// The merged interval journal plus its loss counter. Produced by
/// [`timeline()`](crate::timeline()).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// All surviving intervals, sorted by `(start_ns, thread, stage)`.
    pub intervals: Vec<Interval>,
    /// Intervals discarded because a thread's ring was full.
    pub dropped: u64,
}

impl Timeline {
    /// True when nothing was journaled (and nothing dropped).
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty() && self.dropped == 0
    }

    /// The journal window: earliest start and latest end over all
    /// intervals, or `None` when empty.
    pub fn window(&self) -> Option<(u64, u64)> {
        let start = self.intervals.iter().map(|i| i.start_ns).min()?;
        let end = self.intervals.iter().map(|i| i.end_ns).max()?;
        Some((start, end))
    }

    /// Sum of durations over intervals with exactly this stage name.
    pub fn stage_total_ns(&self, stage: &str) -> u64 {
        self.intervals
            .iter()
            .filter(|i| i.stage == stage)
            .map(Interval::duration_ns)
            .sum()
    }

    /// Totals for the disjoint top-level coordinator stages, in
    /// [`TOP_STAGES`] order — the critical-path accounting of one
    /// pipeline run. Stages with no intervals report 0.
    pub fn stage_totals(&self) -> Vec<(&'static str, u64)> {
        TOP_STAGES
            .iter()
            .map(|&stage| (stage, self.stage_total_ns(stage)))
            .collect()
    }

    /// Per-thread busy time over the journal window, overlaps
    /// union-merged, sorted by thread label.
    pub fn utilization(&self) -> Vec<WorkerUtilization> {
        let Some((window_start, window_end)) = self.window() else {
            return Vec::new();
        };
        let window = (window_end - window_start).max(1);
        let mut threads: Vec<&str> = self.intervals.iter().map(|i| i.thread.as_str()).collect();
        threads.sort_unstable();
        threads.dedup();
        threads
            .into_iter()
            .map(|thread| {
                let mut spans: Vec<(u64, u64)> = self
                    .intervals
                    .iter()
                    .filter(|i| i.thread == thread)
                    .map(|i| (i.start_ns, i.end_ns))
                    .collect();
                let intervals = spans.len();
                spans.sort_unstable();
                let mut busy_ns = 0u64;
                let mut open: Option<(u64, u64)> = None;
                for (start, end) in spans {
                    match &mut open {
                        Some((_, open_end)) if start <= *open_end => {
                            *open_end = (*open_end).max(end);
                        }
                        _ => {
                            if let Some((s, e)) = open.take() {
                                busy_ns += e - s;
                            }
                            open = Some((start, end));
                        }
                    }
                }
                if let Some((s, e)) = open {
                    busy_ns += e - s;
                }
                WorkerUtilization {
                    thread: thread.to_string(),
                    busy_ns,
                    intervals,
                    utilization: busy_ns as f64 / window as f64,
                }
            })
            .collect()
    }

    /// Sweeps the intervals of one stage (exact name match, e.g.
    /// `"detect.partition"`) and reports the wall time spent at each
    /// concurrency level between the stage's first start and last end.
    pub fn parallelism_profile(&self, stage: &str) -> ParallelismProfile {
        let mut edges: Vec<(u64, i64)> = Vec::new();
        for interval in self.intervals.iter().filter(|i| i.stage == stage) {
            edges.push((interval.start_ns, 1));
            edges.push((interval.end_ns, -1));
        }
        if edges.is_empty() {
            return ParallelismProfile::default();
        }
        // Ends sort before starts at the same timestamp so a zero-length
        // touch does not register as overlap with its successor.
        edges.sort_unstable();
        let mut levels: Vec<u64> = Vec::new();
        let mut level = 0i64;
        let mut prev = edges[0].0;
        for (at, delta) in edges {
            let k = usize::try_from(level).unwrap_or(0);
            if levels.len() <= k {
                levels.resize(k + 1, 0);
            }
            levels[k] += at - prev;
            prev = at;
            level += delta;
        }
        let max_parallelism = levels.len().saturating_sub(1);
        let active: u64 = levels.iter().skip(1).sum();
        let weighted: u64 = levels
            .iter()
            .enumerate()
            .skip(1)
            .map(|(k, &ns)| ns * k as u64)
            .sum();
        ParallelismProfile {
            levels,
            max_parallelism,
            avg_parallelism: if active == 0 {
                0.0
            } else {
                weighted as f64 / active as f64
            },
        }
    }

    /// Checks the reconciliation contract between the journal and the
    /// aggregate snapshot: for every [`TOP_STAGES`] stage, the summed
    /// interval durations must equal the snapshot's `total_ns` (and the
    /// interval count its span count). Both views are recorded from the
    /// same measurement at span close, so with `dropped == 0` they agree
    /// exactly; with drops the journal is allowed to undershoot but never
    /// overshoot. Returns the list of violated stages, empty on success.
    pub fn reconcile(&self, snapshot: &Snapshot) -> Result<(), Vec<String>> {
        let mut violations = Vec::new();
        for &stage in &TOP_STAGES {
            let aggregate = snapshot.stage(stage).copied().unwrap_or(crate::StageStats {
                count: 0,
                total_ns: 0,
                min_ns: 0,
                max_ns: 0,
            });
            let journal_total = self.stage_total_ns(stage);
            let journal_count = self.intervals.iter().filter(|i| i.stage == stage).count() as u64;
            let exact = self.dropped == 0;
            let total_ok = if exact {
                journal_total == aggregate.total_ns
            } else {
                journal_total <= aggregate.total_ns
            };
            let count_ok = if exact {
                journal_count == aggregate.count
            } else {
                journal_count <= aggregate.count
            };
            if !total_ok || !count_ok {
                violations.push(format!(
                    "{stage}: journal {journal_count} interval(s) / {journal_total}ns vs \
                     snapshot {} span(s) / {}ns (dropped {})",
                    aggregate.count, aggregate.total_ns, self.dropped
                ));
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }

    /// Renders the timeline *and* the matching aggregate rows as a
    /// [`Snapshot`]-shaped pair for exporters that want both. Stage rows
    /// are derived from the journal alone.
    pub fn to_stage_rows(&self) -> Vec<StageRow> {
        let mut names: Vec<&'static str> = self.intervals.iter().map(|i| i.stage).collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|stage| {
                let mut stats = crate::StageStats {
                    count: 0,
                    total_ns: 0,
                    min_ns: u64::MAX,
                    max_ns: 0,
                };
                for interval in self.intervals.iter().filter(|i| i.stage == stage) {
                    let ns = interval.duration_ns();
                    stats.count += 1;
                    stats.total_ns += ns;
                    stats.min_ns = stats.min_ns.min(ns);
                    stats.max_ns = stats.max_ns.max(ns);
                }
                if stats.count == 0 {
                    stats.min_ns = 0;
                }
                StageRow {
                    name: stage.to_string(),
                    stats,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(thread: &str, stage: &'static str, start_ns: u64, end_ns: u64) -> Interval {
        Interval {
            thread: thread.to_string(),
            stage,
            start_ns,
            end_ns,
        }
    }

    fn sample() -> Timeline {
        Timeline {
            intervals: vec![
                iv("main", "validate", 0, 10),
                iv("main", "freeze", 10, 110),
                iv("main", "freeze.assist.dispatch", 20, 80),
                iv("worker.0", "freeze.assist.stamp", 25, 70),
                iv("worker.1", "freeze.assist.stamp", 30, 60),
                iv("main", "detect", 110, 200),
                iv("worker.0", "detect.partition", 115, 160),
                iv("worker.1", "detect.partition", 120, 190),
                iv("main", "merge", 200, 220),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn window_and_stage_totals() {
        let tl = sample();
        assert_eq!(tl.window(), Some((0, 220)));
        assert_eq!(tl.stage_total_ns("freeze"), 100);
        assert_eq!(
            tl.stage_totals(),
            vec![
                ("validate", 10),
                ("freeze", 100),
                ("detect", 90),
                ("merge", 20)
            ]
        );
    }

    #[test]
    fn utilization_union_merges_nested_spans() {
        let tl = sample();
        let util = tl.utilization();
        assert_eq!(util.len(), 3);
        // main: [0,10] ∪ [10,110] ∪ [20,80] ∪ [110,200] ∪ [200,220] = 220.
        assert_eq!(util[0].thread, "main");
        assert_eq!(util[0].busy_ns, 220);
        assert!((util[0].utilization - 1.0).abs() < 1e-9);
        // worker.0: [25,70] ∪ [115,160] = 90 of 220.
        assert_eq!(util[1].thread, "worker.0");
        assert_eq!(util[1].busy_ns, 90);
        assert_eq!(util[1].intervals, 2);
    }

    #[test]
    fn parallelism_profile_counts_overlap() {
        let tl = sample();
        let profile = tl.parallelism_profile("detect.partition");
        // [115,160] and [120,190]: overlap [120,160] = 40ns at 2,
        // [115,120] + [160,190] = 35ns at 1, no gaps.
        assert_eq!(profile.max_parallelism, 2);
        assert_eq!(profile.levels, vec![0, 35, 40]);
        let expected = (35.0 + 80.0) / 75.0;
        assert!((profile.avg_parallelism - expected).abs() < 1e-9);
        assert_eq!(
            tl.parallelism_profile("no.such.stage"),
            ParallelismProfile::default()
        );
    }

    #[test]
    fn reconcile_exact_without_drops_bounded_with() {
        let tl = sample();
        let snapshot = Snapshot {
            stages: tl.to_stage_rows(),
            metrics: Vec::new(),
        };
        assert!(tl.reconcile(&snapshot).is_ok());
        // A journal that lost intervals may undershoot...
        let mut lossy = tl.clone();
        lossy.intervals.retain(|i| i.stage != "merge");
        lossy.dropped = 1;
        assert!(lossy.reconcile(&snapshot).is_ok());
        // ...but a lossless journal must match exactly.
        lossy.dropped = 0;
        let violations = lossy.reconcile(&snapshot).unwrap_err();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].starts_with("merge:"));
    }

    #[test]
    fn stage_rows_aggregate_like_snapshot() {
        let rows = sample().to_stage_rows();
        let names: Vec<_> = rows.iter().map(|r| r.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        let stamp = rows
            .iter()
            .find(|r| r.name == "freeze.assist.stamp")
            .unwrap();
        assert_eq!(stamp.stats.count, 2);
        assert_eq!(stamp.stats.total_ns, 75);
        assert_eq!(stamp.stats.min_ns, 30);
        assert_eq!(stamp.stats.max_ns, 45);
    }
}
