//! The central manifest of every observability name in the workspace.
//!
//! Every stage and metric name the stack records lives here, either as a
//! named constant (static names — use these at call sites instead of
//! string literals) or as a wildcard pattern covering a family built with
//! `format!` (dynamic names). `*` stands for exactly one dotted segment,
//! so a two-segment dynamic tail needs two stars: `pool.worker.*.steals`
//! covers `pool.worker.3.steals`.
//!
//! [`MANIFEST`] is the machine-readable union of both. The
//! `futurerd-trace lint` obs-name rule sweeps every dotted string literal
//! in `crates/*/src` and requires it to normalize (placeholders → `*`)
//! into this list: a typo'd name is a lint error, not a silently minted
//! stray metric.

// --- Top-level pipeline stages (spans) -------------------------------------

/// Trace/prefix validation.
pub const VALIDATE: &str = "validate";
/// Pass-1 freeze replay (one-shot or incremental extend).
pub const FREEZE: &str = "freeze";
/// Shadow-memory detection: the single pass, the one-shot workers, or
/// pass 2 of the two-pass engine.
pub const DETECT: &str = "detect";
/// Deterministic outcome merge.
pub const MERGE: &str = "merge";

// --- Nested / worker-side stages (spans) -----------------------------------

/// One detection worker's task (worker side): a one-shot worker or a
/// pass-2 partition.
pub const DETECT_PARTITION: &str = "detect.partition";
/// Choosing the pass-2 partition boundaries (coordinator side).
pub const DETECT_RANGES: &str = "detect.ranges";

/// Sidecar serialization.
pub const STORE_SIDECAR_ENCODE: &str = "store.sidecar.encode";
/// Sidecar deserialization.
pub const STORE_SIDECAR_DECODE: &str = "store.sidecar.decode";
/// Trace file serialization in the store (`FRDTRACE` encode).
pub const STORE_TRACE_ENCODE: &str = "store.trace.encode";
/// Trace file deserialization in the store (`FRDTRACE` decode).
pub const STORE_TRACE_DECODE: &str = "store.trace.decode";

/// Session report timing, cold path.
pub const SESSION_REPORT_COLD: &str = "session.report.cold";
/// Session report timing, warm-index path.
pub const SESSION_REPORT_WARM_INDEX: &str = "session.report.warm_index";
/// Session report timing, warm-cached path.
pub const SESSION_REPORT_WARM_CACHED: &str = "session.report.warm_cached";
/// Session report timing, incremental path.
pub const SESSION_REPORT_INCREMENTAL: &str = "session.report.incremental";

// --- Counters ---------------------------------------------------------------

/// Events accepted by session ingest.
pub const SESSION_INGEST_EVENTS: &str = "session.ingest.events";
/// Sidecar bytes written.
pub const STORE_SIDECAR_ENCODED_BYTES: &str = "store.sidecar.encoded_bytes";
/// Sidecar bytes read.
pub const STORE_SIDECAR_DECODED_BYTES: &str = "store.sidecar.decoded_bytes";
/// Trace file bytes written by the store.
pub const STORE_TRACE_ENCODED_BYTES: &str = "store.trace.encoded_bytes";
/// Trace file bytes read by the store.
pub const STORE_TRACE_DECODED_BYTES: &str = "store.trace.decoded_bytes";

// --- Gauges -----------------------------------------------------------------

/// Ingest throughput over the session's accumulated ingest time.
pub const SESSION_INGEST_EVENTS_PER_SEC: &str = "session.ingest.events_per_sec";
/// Intervals discarded by full timeline rings (set by
/// [`timeline()`](crate::timeline()) when nonzero).
pub const OBS_TIMELINE_DROPPED: &str = "obs.timeline.dropped";

/// Everything the stack may record, one pattern per line. `*` matches
/// exactly one dotted segment (on either side: manifest patterns use it
/// for dynamic segments, and the linter normalizes `{…}` format
/// placeholders in scanned literals to `*` before matching).
pub const MANIFEST: &[&str] = &[
    // Spans.
    VALIDATE,
    FREEZE,
    DETECT,
    MERGE,
    DETECT_PARTITION,
    DETECT_RANGES,
    STORE_SIDECAR_ENCODE,
    STORE_SIDECAR_DECODE,
    STORE_TRACE_ENCODE,
    STORE_TRACE_DECODE,
    SESSION_REPORT_COLD,
    SESSION_REPORT_WARM_INDEX,
    SESSION_REPORT_WARM_CACHED,
    SESSION_REPORT_INCREMENTAL,
    // Counters.
    SESSION_INGEST_EVENTS,
    "session.path.*",
    "store.path.*",
    STORE_SIDECAR_ENCODED_BYTES,
    STORE_SIDECAR_DECODED_BYTES,
    STORE_TRACE_ENCODED_BYTES,
    STORE_TRACE_DECODED_BYTES,
    // Gauges.
    SESSION_INGEST_EVENTS_PER_SEC,
    OBS_TIMELINE_DROPPED,
    // Per-worker pool stats: `pool.worker.<i>.<stat>`.
    "pool.worker.*.executed",
    "pool.worker.*.steals",
    "pool.worker.*.injected",
    // Reachability stats, exported under the `reach` prefix.
    "reach.queries",
    "reach.make_sets",
    "reach.unions",
    "reach.finds",
    "reach.attached_sets",
    "reach.r_arcs",
    "reach.r_bytes",
    "reach.unexpected_attachifies",
    // Detector access-history stats, exported under `detector`.
    "detector.read_checks",
    "detector.write_checks",
    "detector.readers_recorded",
    "detector.readers_cleared",
    "detector.races_found",
    "detector.shadow_pages",
    // Store path/cache stats, exported under `store`.
    "store.cold_freezes",
    "store.warm_index_loads",
    "store.warm_cached_hits",
    "store.incremental_refreezes",
    "store.partitions_rerun",
    "store.partitions_reused",
    "store.rebalances",
    "store.invalidated_sidecars",
    // Thread labels (not metric names, but recorded dotted strings).
    "worker.*",
    "detect.*",
];

#[cfg(test)]
mod tests {
    use super::MANIFEST;

    #[test]
    fn manifest_is_sorted_within_reason_and_duplicate_free() {
        let mut seen = std::collections::BTreeSet::new();
        for entry in MANIFEST {
            assert!(seen.insert(*entry), "duplicate manifest entry: {entry}");
            assert!(!entry.is_empty());
            assert!(
                entry.split('.').all(|seg| seg == "*"
                    || seg
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')),
                "malformed manifest entry: {entry}"
            );
            assert!(!entry.starts_with('.') && !entry.ends_with('.'));
        }
    }

    #[test]
    fn consts_are_all_in_the_manifest() {
        for name in [
            super::VALIDATE,
            super::FREEZE,
            super::DETECT,
            super::MERGE,
            super::DETECT_PARTITION,
            super::DETECT_RANGES,
            super::SESSION_INGEST_EVENTS,
            super::OBS_TIMELINE_DROPPED,
        ] {
            assert!(MANIFEST.contains(&name), "{name} missing from MANIFEST");
        }
    }
}
