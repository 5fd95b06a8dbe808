//! Observability-invariance properties: the `futurerd-obs` recorder is
//! **off the correctness path**. Turning it on must not change a single
//! byte of any detection output — same rendered report, same summary,
//! same aggregated detector statistics, same serving path — over fuzz
//! generator shapes, both paper algorithms, and P ∈ {1, 2, 8}, through
//! both one-shot replay and chunked streaming sessions. The interval
//! timeline journal is held to the same bar: on/off across the same
//! matrix, and a full ring drops intervals (bumping the
//! `obs.timeline.dropped` counter) without blocking detection or
//! reordering the surviving intervals.
//!
//! Also pins the contrapositive (nothing is recorded while disabled) and
//! sanity-checks that an enabled run actually records the documented
//! stages and metrics, so the invariance tests cannot pass vacuously.

use futurerd::replay::{replay_detect, ReplayAlgorithm};
use futurerd::{par_replay_detect, Algorithm, Config, RaceReport};
use futurerd_runtime::trace::record_spec;
use futurerd_workloads::fuzzgen::{generate_shaped, FuzzShape};
use std::sync::{Mutex, MutexGuard};

const ALGORITHMS: [Algorithm; 2] = [Algorithm::MultiBags, Algorithm::MultiBagsPlus];
const THREADS: [usize; 3] = [1, 2, 8];

/// The obs recorder is process-global; the test harness runs `#[test]`s on
/// concurrent threads, so every test serializes on this lock before
/// toggling it.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One recorded trace per fuzz generator shape × seed: the same program
/// families the differential fuzzer rotates through.
fn shaped_traces() -> Vec<(String, futurerd::Trace)> {
    let mut traces = Vec::new();
    for shape in FuzzShape::ALL {
        for seed in 0..2u64 {
            let program = generate_shaped(shape, seed);
            let (trace, _) = record_spec(&program.spec);
            traces.push((format!("{shape} seed {seed}"), trace));
        }
    }
    traces
}

/// Runs `detect` twice — recorder off, then on — and asserts every
/// detection output is byte-identical.
fn assert_invariant(
    tag: &str,
    detect: impl Fn() -> futurerd::Detection<()>,
) -> futurerd::Detection<()> {
    futurerd_obs::set_enabled(false);
    futurerd_obs::reset();
    let off = detect();
    futurerd_obs::set_enabled(true);
    let on = detect();
    futurerd_obs::set_enabled(false);
    assert_eq!(
        on.report().to_string(),
        off.report().to_string(),
        "{tag}: rendered report changed under the recorder"
    );
    assert_eq!(on.summary, off.summary, "{tag}: summary changed");
    assert_eq!(
        on.detector_stats, off.detector_stats,
        "{tag}: detector stats changed"
    );
    assert_eq!(on.path, off.path, "{tag}: serving path changed");
    on
}

/// As [`assert_invariant`], but the second run records the interval
/// timeline journal (with metrics) instead of metrics alone.
fn assert_timeline_invariant(
    tag: &str,
    detect: impl Fn() -> futurerd::Detection<()>,
) -> futurerd::Detection<()> {
    futurerd_obs::set_enabled(false);
    futurerd_obs::set_timeline_enabled(false);
    futurerd_obs::reset();
    let off = detect();
    futurerd_obs::set_enabled(true);
    futurerd_obs::set_timeline_enabled(true);
    let on = detect();
    futurerd_obs::set_enabled(false);
    futurerd_obs::set_timeline_enabled(false);
    assert_eq!(
        on.report().to_string(),
        off.report().to_string(),
        "{tag}: rendered report changed under the timeline journal"
    );
    assert_eq!(on.summary, off.summary, "{tag}: summary changed");
    assert_eq!(
        on.detector_stats, off.detector_stats,
        "{tag}: detector stats changed"
    );
    assert_eq!(on.path, off.path, "{tag}: serving path changed");
    on
}

#[test]
fn one_shot_replay_is_byte_identical_with_metrics_on() {
    let _guard = exclusive();
    for (tag, trace) in shaped_traces() {
        for algorithm in ALGORITHMS {
            for threads in THREADS {
                let config = Config::new().algorithm(algorithm).threads(threads);
                assert_invariant(&format!("{tag} {algorithm:?} P={threads}"), || {
                    config.replay(&trace).expect("canonical trace")
                });
            }
        }
    }
}

#[test]
fn chunked_sessions_are_byte_identical_with_metrics_on() {
    let _guard = exclusive();
    // A handful of shapes suffices here: chunked ingest drives the session
    // through the cold-then-incremental serving paths, where most of the
    // instrumentation (ingest counters, path timers, stats exports) lives.
    for (tag, trace) in shaped_traces().into_iter().step_by(3) {
        for algorithm in ALGORITHMS {
            for threads in THREADS {
                let config = Config::new().algorithm(algorithm).threads(threads);
                let chunk = (trace.len() / 5).max(1);
                let run = || {
                    let mut session = config.session();
                    for events in trace.events().chunks(chunk) {
                        session.ingest(events).expect("canonical prefix");
                        session.report().expect("prefix reports");
                    }
                    session.report().expect("final report")
                };
                let on = assert_invariant(&format!("{tag} {algorithm:?} P={threads}"), run);
                let one_shot = config.replay(&trace).expect("canonical trace");
                assert_eq!(
                    on.report().to_string(),
                    one_shot.report().to_string(),
                    "{tag}: session diverged from one-shot replay"
                );
            }
        }
    }
}

#[test]
fn one_shot_replay_is_byte_identical_with_timeline_on() {
    let _guard = exclusive();
    for (tag, trace) in shaped_traces() {
        for algorithm in ALGORITHMS {
            for threads in THREADS {
                let config = Config::new().algorithm(algorithm).threads(threads);
                let on = assert_timeline_invariant(
                    &format!("{tag} {algorithm:?} P={threads} timeline"),
                    || config.replay(&trace).expect("canonical trace"),
                );
                drop(on);
            }
        }
    }
}

#[test]
fn timeline_reconciles_with_snapshot_aggregates() {
    let _guard = exclusive();
    let program = generate_shaped(FuzzShape::General, 7);
    let (trace, _) = record_spec(&program.spec);
    let config = Config::general().threads(2);

    futurerd_obs::set_enabled(true);
    futurerd_obs::set_timeline_enabled(true);
    futurerd_obs::reset();
    config.replay(&trace).expect("canonical trace");
    let snapshot = futurerd_obs::snapshot();
    let timeline = futurerd_obs::timeline();
    futurerd_obs::set_enabled(false);
    futurerd_obs::set_timeline_enabled(false);

    assert_eq!(timeline.dropped, 0, "default capacity must not drop here");
    assert!(!timeline.intervals.is_empty(), "journal must not be empty");
    // With zero drops, per-stage interval sums must equal the snapshot's
    // aggregate totals nanosecond for nanosecond — both views are written
    // from the same measurement at span close.
    if let Err(violations) = timeline.reconcile(&snapshot) {
        panic!("timeline/snapshot reconciliation failed: {violations:?}");
    }
    // The merge ordering contract: (start, thread, stage).
    assert!(
        timeline.intervals.windows(2).all(|w| {
            (w[0].start_ns, &w[0].thread, w[0].stage) <= (w[1].start_ns, &w[1].thread, w[1].stage)
        }),
        "merged intervals must be ordered by (start, thread, stage)"
    );
}

#[test]
fn full_ring_drops_newest_without_blocking_or_reordering() {
    let _guard = exclusive();
    futurerd_obs::set_enabled(false);
    futurerd_obs::set_timeline_enabled(true);
    futurerd_obs::reset();
    futurerd_obs::set_timeline_capacity(3);

    // Five deterministic spans on this thread; a capacity-3 ring must keep
    // the first three in recording order and count the other two. Strictly
    // increasing start instants keep the (start, thread, stage) merge order
    // equal to recording order.
    let stages = ["validate", "freeze", "detect", "merge", "detect.partition"];
    let mut prev = std::time::Instant::now();
    for stage in stages {
        let mut started = std::time::Instant::now();
        while started <= prev {
            started = std::time::Instant::now();
        }
        futurerd_obs::record_stage(stage, started);
        prev = started;
    }
    let timeline = futurerd_obs::timeline();
    let snapshot = futurerd_obs::snapshot();
    futurerd_obs::set_timeline_capacity(futurerd_obs::DEFAULT_TIMELINE_CAPACITY);
    futurerd_obs::set_timeline_enabled(false);

    assert_eq!(timeline.dropped, 2, "two intervals past the bound");
    let survivors: Vec<&str> = timeline.intervals.iter().map(|i| i.stage).collect();
    assert_eq!(
        survivors,
        vec!["validate", "freeze", "detect"],
        "survivors must be the earliest intervals, order preserved"
    );
    assert_eq!(
        snapshot.metric("obs.timeline.dropped"),
        Some(2),
        "drops must surface in the metrics registry"
    );

    // A lossy journal must also not block a full detection run: the ring
    // stays at capacity, drops keep counting, detection output is intact.
    futurerd_obs::set_timeline_enabled(true);
    futurerd_obs::set_timeline_capacity(4);
    let program = generate_shaped(FuzzShape::Pipeline, 1);
    let (trace, _) = record_spec(&program.spec);
    let config = Config::general().threads(2);
    let lossy = config.replay(&trace).expect("canonical trace");
    let full = futurerd_obs::timeline();
    futurerd_obs::set_timeline_capacity(futurerd_obs::DEFAULT_TIMELINE_CAPACITY);
    futurerd_obs::set_timeline_enabled(false);
    futurerd_obs::reset();

    let clean = config.replay(&trace).expect("canonical trace");
    assert_eq!(
        lossy.report().to_string(),
        clean.report().to_string(),
        "a saturated ring must not change detection output"
    );
    assert!(
        full.dropped > 0,
        "the tiny ring must have dropped intervals"
    );
    for util in full.utilization() {
        assert!(
            util.intervals <= 4,
            "{}: ring bound exceeded ({} intervals)",
            util.thread,
            util.intervals
        );
    }
}

#[test]
fn enabled_runs_record_the_documented_stages() {
    let _guard = exclusive();
    let program = generate_shaped(FuzzShape::Pipeline, 3);
    let (trace, _) = record_spec(&program.spec);
    let config = Config::general().threads(2);

    futurerd_obs::set_enabled(true);
    futurerd_obs::reset();
    let mut session = config.session();
    let chunk = (trace.len() / 4).max(1);
    for events in trace.events().chunks(chunk) {
        session.ingest(events).expect("canonical prefix");
        session.report().expect("prefix reports");
    }
    let snapshot = futurerd_obs::snapshot();
    futurerd_obs::set_enabled(false);

    // `detect.ranges` is the P=2 partition-boundary pass, nested in `detect`.
    for stage in ["validate", "freeze", "detect", "detect.ranges", "merge"] {
        let stats = snapshot
            .stage(stage)
            .unwrap_or_else(|| panic!("stage '{stage}' missing from {snapshot:?}"));
        assert!(stats.count > 0, "{stage}: no spans closed");
        assert!(stats.min_ns <= stats.max_ns, "{stage}: inconsistent bounds");
    }
    assert_eq!(
        snapshot.metric("session.path.cold"),
        Some(1),
        "exactly one cold report expected"
    );
    assert!(
        snapshot.metric("session.ingest.events") >= Some(trace.len() as u64),
        "ingest counter must cover every event"
    );
    assert!(
        snapshot.metric("detector.read_checks").is_some(),
        "detector stats gauges missing"
    );

    // The exporters must all render the live snapshot without panicking
    // and carry the stage names through (formats are pinned exactly by the
    // golden tests in `crates/obs/tests/golden.rs`).
    let text = futurerd_obs::export_text(&snapshot);
    assert!(text.contains("validate") && text.contains("session.path.cold"));
    let json = futurerd_obs::export_json_lines(&snapshot);
    assert!(json.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    let prom = futurerd_obs::export_prometheus(&snapshot);
    assert!(prom.contains("futurerd_stage_spans_total{stage=\"validate\"}"));

    // A stored session that ingests and reports decodes its trace file on
    // open and encodes it again when it persists the ingested events.
    let dir = std::env::temp_dir().join(format!("futurerd-obs-stages-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut store = futurerd::Store::open(&dir).expect("store opens");
    let (prefix, suffix) = trace.events().split_at(trace.len() / 2);
    let mut head = futurerd::Trace::new();
    head.extend_events(prefix);
    store.put_trace("t", &head).expect("canonical prefix");
    futurerd_obs::set_enabled(true);
    futurerd_obs::reset();
    let mut session = config.open_session(&mut store, "t").expect("stored entry");
    session.ingest(suffix).expect("canonical suffix");
    session.report().expect("stored session reports");
    drop(session);
    let snapshot = futurerd_obs::snapshot();
    futurerd_obs::set_enabled(false);
    std::fs::remove_dir_all(&dir).ok();
    for stage in ["store.trace.decode", "store.trace.encode"] {
        let stats = snapshot
            .stage(stage)
            .unwrap_or_else(|| panic!("stage '{stage}' missing from {snapshot:?}"));
        assert!(stats.count > 0, "{stage}: no spans closed");
    }
    for counter in ["store.trace.decoded_bytes", "store.trace.encoded_bytes"] {
        assert!(
            snapshot.metric(counter) > Some(0),
            "{counter} missing from {snapshot:?}"
        );
    }
}

#[test]
fn recorded_single_thread_replay_attributes_the_single_pass() {
    let _guard = exclusive();
    let program = generate_shaped(FuzzShape::General, 3);
    let (trace, _) = record_spec(&program.spec);
    let config = Config::general();

    futurerd_obs::set_enabled(true);
    futurerd_obs::reset();
    let detection = config.replay(&trace).expect("canonical trace");
    let snapshot = futurerd_obs::snapshot();
    futurerd_obs::set_enabled(false);

    // Recording does not reroute a P=1 replay into the engine: the run is
    // the paper's single pass, attributed as validate + detect.
    for stage in ["validate", "detect"] {
        let stats = snapshot
            .stage(stage)
            .unwrap_or_else(|| panic!("stage '{stage}' missing from {snapshot:?}"));
        assert_eq!(stats.count, 1, "{stage}: one span per replay");
    }
    assert!(
        snapshot.stage("freeze").is_none(),
        "a P=1 replay must not freeze: {snapshot:?}"
    );
    let reach = detection.reach_stats.expect("single-pass replays meter R");
    let detector = detection.detector_stats.expect("full detection");
    assert_eq!(snapshot.metric("reach.queries"), Some(reach.queries));
    assert_eq!(
        snapshot.metric("detector.read_checks"),
        Some(detector.read_checks)
    );
}

#[test]
fn recorded_threaded_replay_attributes_the_replicas() {
    let _guard = exclusive();
    let program = generate_shaped(FuzzShape::General, 3);
    let (trace, _) = record_spec(&program.spec);
    let config = Config::general().threads(2);

    futurerd_obs::set_enabled(true);
    futurerd_obs::reset();
    let detection = config.replay(&trace).expect("canonical trace");
    let snapshot = futurerd_obs::snapshot();
    futurerd_obs::set_enabled(false);

    // A one-shot replay at P=2 runs two single passes and merges them:
    // one validate, one detect with a task per worker, one merge, and
    // nothing frozen or partitioned.
    for (stage, count) in [
        ("validate", 1),
        ("detect", 1),
        ("detect.partition", 2),
        ("merge", 1),
    ] {
        let stats = snapshot
            .stage(stage)
            .unwrap_or_else(|| panic!("stage '{stage}' missing from {snapshot:?}"));
        assert_eq!(stats.count, count, "{stage}: spans per replay");
    }
    for stage in ["freeze", "detect.ranges"] {
        assert!(
            snapshot.stage(stage).is_none(),
            "a one-shot replay must not run '{stage}': {snapshot:?}"
        );
    }
    assert!(detection.reach_stats.is_none(), "replicas do not sum R");
    let detector = detection.detector_stats.expect("full detection");
    assert_eq!(
        snapshot.metric("detector.read_checks"),
        Some(detector.read_checks)
    );
}

#[test]
fn one_shot_replay_runs_no_more_passes_than_cores() {
    let _guard = exclusive();
    let program = generate_shaped(FuzzShape::General, 3);
    let (trace, _) = record_spec(&program.spec);
    let algorithm = ReplayAlgorithm::MultiBagsPlus;
    let single = replay_detect(&trace, algorithm).expect("canonical trace");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Every pass repeats the reachability work, so a request past the core
    // count runs one pass per core, through the facade and the core alike
    // (on one core, the single pass: no `detect.partition` at all).
    let passes = if cores > 1 { cores as u64 } else { 0 };
    let replays: [(&str, &dyn Fn() -> RaceReport); 2] = [
        ("Config::replay", &|| {
            let config = Config::general().threads(cores + 1);
            config.replay(&trace).expect("canonical").report().clone()
        }),
        ("par_replay_detect", &|| {
            par_replay_detect(&trace, algorithm, cores + 1).expect("canonical")
        }),
    ];
    futurerd_obs::set_enabled(true);
    for (path, replay) in replays {
        futurerd_obs::reset();
        let report = replay();
        let snapshot = futurerd_obs::snapshot();
        let ran = snapshot.stage("detect.partition").map_or(0, |s| s.count);
        assert_eq!(ran, passes, "{path}: passes at P={}", cores + 1);
        assert_eq!(report, single, "{path}");
        if path == "Config::replay" {
            // The facade's pool is sized to the passes it runs: it exports
            // one `pool.worker.<i>` gauge set per thread, and none past
            // the last pass.
            let last = passes.saturating_sub(1);
            let has = |i: u64| {
                snapshot
                    .metric(&format!("pool.worker.{i}.executed"))
                    .is_some()
            };
            assert_eq!(has(last), passes > 0, "{path}: pool worker {last}");
            assert!(!has(passes), "{path}: an idle pool worker {passes}");
        }
    }
    futurerd_obs::set_enabled(false);
}

#[test]
fn disabled_recorder_stays_empty() {
    let _guard = exclusive();
    futurerd_obs::set_enabled(false);
    futurerd_obs::reset();
    let program = generate_shaped(FuzzShape::General, 5);
    let (trace, _) = record_spec(&program.spec);
    let config = Config::general().threads(4);
    config.replay(&trace).expect("canonical trace");
    let mut session = config.session();
    session.ingest(trace.events()).expect("canonical");
    session.report().expect("reports");
    assert!(
        futurerd_obs::snapshot().is_empty(),
        "a disabled recorder must record nothing"
    );
}
